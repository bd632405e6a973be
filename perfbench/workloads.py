"""The benchmark workloads: inputs, the calls into enriques, and checks.

``PREPARE[name](seed, refs)`` builds a workload's inputs outside the
timed region and returns ``solve``, a function of no arguments that
makes every call and checks every output.  The references come from
the golden files, from the acceptance criteria, and from CLI text
recorded once at the seed commit; none is computed by the code under
test.  ``enriques`` is imported inside the functions, so that importing
this module does not import the package.
"""

import json
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference" / "cli_text.json"
GOLDEN = Path("tests") / "golden"  # relative to the checkout root

CENSUS_ARGV = ["classify", "--filter", "survivors"]
SURFACES = ("E8~", "D8~", "E7~", "A7~", "typeI", "BP", "E7(2)", "2D4~")
CATALOG_ARGVS = [[cmd, s] for s in SURFACES
                 for cmd in ("verify-surface", "nd", "fibrations")]
LATTICE_ARGV = ["lattice"]

# acceptance criterion 5: every claim on these surfaces verifies
ALL_CLAIMS_PASS = ("A7~", "BP", "E7(2)", "2D4~")
# acceptance criterion 6: nd bounds
ND_LINES = {
    "E7(2)": "[pass] nd bounds: min 3, max 3",
    "2D4~": "[pass] nd bounds: min 3, max 4",
    "typeI": "[pass] nd bounds: min 3, max 4",
}

N_QUADRICS = 400
N_OCTICS = 400
N_GENERIC = 3
N_VECTORS = 10_000
N_LATTICE = 4
N_SPOT = 5  # certificates per kind handed to the spot-check


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # the first few failures
    samples: dict = field(default_factory=dict)  # outputs to spot-check

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def op(self, what, call, check):
        """Run one operation; a wrong result and an exception both fail."""
        try:
            result = call()
            ok = bool(check(result))
        except Exception as exc:  # counted as a failed operation
            result = None
            ok = False
            what = f"{what}: {type(exc).__name__}: {exc}"
        self.record(ok, what)
        return result


def argv_key(argv):
    return " ".join(argv)


def load_references(root=Path(".")):
    with open(REFERENCE) as fh:
        cli_text = {argv_key(r["argv"]): r["text"] for r in json.load(fh)}
    golden = {name: (root / GOLDEN / name).read_text().splitlines()
              for name in ("survivors.txt", "resolved_ge10.txt")}
    return {"cli": cli_text, "golden": golden}


def _text(result):
    report, _ = result
    return report.to_text()


def prepare_census(seed, refs):
    """The paper's census with its survivors; the input is fixed."""
    from enriques import cli

    survivors = refs["golden"]["survivors.txt"]
    excluded = [row for row in refs["golden"]["resolved_ge10.txt"]
                if "Survivor(" not in row]
    recorded = refs["cli"][argv_key(CENSUS_ARGV)]

    def check(result):
        report, _ = result
        return (report.artifacts.get("survivors") == survivors
                and report.artifacts.get("excluded") == excluded
                and report.to_text() == recorded)

    def solve():
        out = Outcome()
        out.op(argv_key(CENSUS_ARGV), lambda: cli.run(CENSUS_ARGV), check)
        return out
    return solve


def _catalog_facts(argv, text):
    cmd, surface = argv
    lines = text.splitlines()
    if cmd == "verify-surface" and surface in ALL_CLAIMS_PASS:
        statuses = [ln for ln in lines if ln.startswith("[")]
        return statuses and all(ln.startswith("[pass]") for ln in statuses)
    if cmd == "nd" and surface in ND_LINES:
        return ND_LINES[surface] in lines
    return True


def prepare_catalog(seed, refs):
    """verify-surface, nd and fibrations on the eight catalogued surfaces."""
    from enriques import cli

    expected = [(argv, refs["cli"][argv_key(argv)]) for argv in CATALOG_ARGVS]

    def solve():
        out = Outcome()
        for argv, recorded in expected:
            out.op(argv_key(argv), lambda: _text(cli.run(argv)),
                   lambda text: (text == recorded
                                 and _catalog_facts(argv, text)))
        return out
    return solve


def form_text(rng, degree, nvars):
    """A dense form with nonzero coefficients in -9..9, in --q syntax."""
    text = ""
    for combo in combinations_with_replacement(range(nvars), degree):
        c = rng.choice((-1, 1)) * rng.randint(1, 9)
        mono = "*".join(f"x{i}" for i in combo)
        text += f" {'-' if c < 0 else '+'} {abs(c)}*{mono}"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def certificate_inputs(seed):
    rng = random.Random(seed)
    return {
        "quadrics": [form_text(rng, 2, 4) for _ in range(N_QUADRICS)],
        "octics": [(form_text(rng, 3, 3), form_text(rng, 3, 3),
                    form_text(rng, 2, 3)) for _ in range(N_OCTICS)],
        "vectors": [[rng.randint(-50, 50) for _ in range(10)]
                    for _ in range(N_VECTORS)],
        "spot_quadrics": sorted(rng.sample(range(N_QUADRICS), N_SPOT)),
        "spot_octics": sorted(rng.sample(range(N_OCTICS), N_SPOT)),
    }


def _sextic_quintic(text):
    """The quintic line of a passing sextic-check report, else None."""
    lines = text.splitlines()
    if not any(ln.startswith("[pass] castelnuovo certificate:")
               for ln in lines):
        return None
    for ln in lines:
        if ln.startswith("quintic: "):
            return ln[len("quintic: "):]
    return None


def prepare_certificates(seed, refs):
    """Symbolic and lattice certificates on inputs drawn from the seed."""
    from enriques import cli, lattice, polymodels

    inp = certificate_inputs(seed)
    quadrics = inp["quadrics"]
    octics = [tuple(polymodels.parse_poly(t) for t in triple)
              for triple in inp["octics"]]
    spot_q = set(inp["spot_quadrics"])
    spot_o = set(inp["spot_octics"])
    generic = [(polymodels.generic_form(2, "q"),
                polymodels.generic_form(3, "a", nvars=3),
                polymodels.generic_form(3, "b", nvars=3),
                polymodels.generic_form(2, "c", nvars=3))
               for _ in range(N_GENERIC)]
    gram = lattice.e10_gram()
    basis = lattice.e10_isotropic_basis()
    vectors = inp["vectors"]
    lattice_text = refs["cli"][argv_key(LATTICE_ARGV)]

    def solve():
        out = Outcome()
        kept = out.samples
        kept["sextic"], kept["octic"], kept["generic"] = [], [], []
        for i, q in enumerate(quadrics):
            quintic = out.op(
                f"sextic-check --q {q}",
                lambda: _sextic_quintic(_text(cli.run(
                    ["sextic-check", "--q", q]))),
                lambda line: line is not None)
            if i in spot_q:
                kept["sextic"].append((q, quintic))
        for i, (c1, c2, qpp) in enumerate(octics):
            res = out.op(f"double_plane_octic #{i}",
                         lambda: polymodels.double_plane_octic(c1, c2, qpp),
                         lambda r: r[1] is True)
            if i in spot_o:
                kept["octic"].append((*inp["octics"][i],
                                      res and res[0]))
        for q, a, b, c in generic:
            r1 = out.op("castelnuovo_transform generic",
                        lambda: polymodels.castelnuovo_transform(q),
                        lambda r: r[1] is True)
            r2 = out.op("double_plane_octic generic",
                        lambda: polymodels.double_plane_octic(a, b, c),
                        lambda r: r[1] is True)
            if not kept["generic"]:
                kept["generic"].append(
                    (q, r1 and r1[0], a, b, c, r2 and r2[0]))
        # acceptance criterion 7: 3 | v.Sf, and v is in the span iff 9 | v.Sf
        for v in vectors:
            out.op("divisibility_check",
                   lambda: lattice.divisibility_check(v, basis, gram),
                   lambda r: r[0] is True and r[1] == r[2])
        for _ in range(N_LATTICE):
            out.op("lattice", lambda: _text(cli.run(LATTICE_ARGV)),
                   lambda text: text == lattice_text)
        return out
    return solve


PREPARE = {
    "census": prepare_census,
    "catalog": prepare_catalog,
    "certificates": prepare_certificates,
}
