"""Command line front end with deterministic, golden-testable output.

Every subcommand produces a Report: a list of named checks plus JSON
artifacts.  Output is byte-identical across runs for fixed arguments;
tables are sorted by canonical keys and the JSON schema is versioned.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field
from functools import lru_cache

from . import catalog, classify, lattice, polymodels

SCHEMA = 1


class UsageError(Exception):
    pass


@dataclass
class Report:
    command: str
    checks: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    def add(self, name, status, detail=""):
        if status not in ("pass", "fail", "inconclusive"):
            raise ValueError(f"bad status {status!r}")
        self.checks.append((name, status, detail))

    def failed(self):
        return any(status == "fail" for _, status, _ in self.checks)

    def to_json(self):
        return {
            "schema": SCHEMA,
            "command": self.command,
            "checks": [
                {"name": n, "status": s, "detail": d}
                for n, s, d in self.checks
            ],
            "artifacts": self.artifacts,
        }

    def to_text(self):
        lines = [f"command: {self.command}"]
        for name, status, detail in self.checks:
            suffix = f": {detail}" if detail else ""
            lines.append(f"[{status}] {name}{suffix}")
        for key in sorted(self.artifacts):
            value = self.artifacts[key]
            if isinstance(value, list):
                lines.append(f"{key}:")
                lines.extend(f"  {row}" for row in value)
            else:
                lines.append(f"{key}: {value}")
        return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once: parse_args keeps no state and
    every default is immutable."""
    parser = _Parser(prog="enriques")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("classify", description="Census of triangle graphs")
    p.add_argument("--filter", default="census",
                   choices=("census", "discriminant", "survivors"))
    p.add_argument("--max-components", type=int,
                   default=classify.MAX_COMPONENTS)
    p.add_argument("--json", action="store_true")

    for name in ("verify-surface", "nd", "fibrations"):
        p = sub.add_parser(name)
        p.add_argument("surface")
        p.add_argument("--catalog-dir", default=None)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("sextic-check")
    p.add_argument("--q", default="0",
                   help="quadric in x0..x3 (grammar: + - * ^ ints parens)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("lattice")
    p.add_argument("--json", action="store_true")

    return parser


def _entry_row(e):
    types = ",".join(str(t) for t in e.types)
    row = (f"({types}) variant {e.variant}: n={e.glued.size()} "
           f"rank={e.rank} disc={e.disc}")
    if e.verdict is not None:
        row += f" {e.verdict}"
    return row


def _cmd_classify(args, report):
    if not 1 <= args.max_components <= classify.MAX_COMPONENTS:
        raise UsageError(f"--max-components must lie in "
                         f"1..{classify.MAX_COMPONENTS}")
    census = classify.enumerate_triangles(max_components=args.max_components)
    if args.filter == "census":
        report.add("census size", "pass", str(len(census)))
        report.artifacts["entries"] = [_entry_row(e) for e in census]
        return
    filtered = classify.discriminant_filter(census)
    if args.filter == "discriminant":
        report.add("entries with >= 10 components", "pass", str(len(filtered)))
        report.artifacts["entries"] = [_entry_row(e) for e in filtered]
        return
    resolved = classify.derive_survivors(filtered)
    survivors = [e for e in resolved
                 if isinstance(e.verdict, classify.Survivor)]
    report.add("survivor outcomes", "pass" if len(survivors) == 3 else "fail",
               f"found {len(survivors)}, expected 3")
    report.artifacts["survivors"] = [_entry_row(e) for e in survivors]
    report.artifacts["excluded"] = [
        _entry_row(e) for e in resolved
        if not isinstance(e.verdict, classify.Survivor)
    ]


def _load_surface(args, report):
    try:
        return catalog.load_surface(args.surface,
                                    catalog_dir=args.catalog_dir)
    except catalog.UnknownSurface:
        report.add("catalog lookup", "fail",
                   f"{args.surface} not in catalog")
    return None


def _cmd_verify_surface(args, report):
    s = _load_surface(args, report)
    if s is None:
        return
    for name, status, detail in catalog.verify_surface(s):
        report.add(name, status, detail)
    report.artifacts["surface"] = s.name
    report.artifacts["char"] = s.char_tag


def _cmd_nd(args, report):
    s = _load_surface(args, report)
    if s is None:
        return
    try:
        lo, hi = catalog.nd_bounds(s)
    except catalog.IncompleteCatalog as exc:
        report.add("nd bounds", "inconclusive", str(exc))
        return
    report.add("nd bounds", "pass", f"min {lo}, max {hi}")
    report.artifacts["min_nd"] = lo
    report.artifacts["max_nd"] = hi


def _cmd_fibrations(args, report):
    s = _load_surface(args, report)
    if s is None:
        return
    records = catalog.fibration_records(s)
    report.add("fibration classes", "pass", str(len(records)))
    rows = []
    for r in records:
        labels = ",".join(r.labels) if r.labels else "-"
        scale = "half-fiber" if r.cls is not None else "undetermined scale"
        rows.append(f"ray {r.ray}: kinds {','.join(r.kinds)} "
                    f"labels {labels} ({scale})")
    report.artifacts["classes"] = rows


def _cmd_sextic_check(args, report):
    try:
        q = polymodels.parse_poly(args.q)
    except polymodels.ParseError as exc:
        raise UsageError(f"cannot parse --q: {exc}")
    try:
        quintic, certificate = polymodels.castelnuovo_transform(q)
    except polymodels.DegreeError as exc:
        raise UsageError(str(exc))
    report.add("castelnuovo certificate",
               "pass" if certificate else "fail",
               "substituted sextic factors as predicted" if certificate
               else "shape mismatch after division")
    report.artifacts["q"] = str(q)
    report.artifacts["quintic"] = str(quintic)


def _cmd_lattice(args, report):
    g = lattice.e10_gram()
    tup = lattice.e10_isotropic_basis()
    index = lattice.sublattice_index(tup, g)
    report.add("isotropic 10-tuple index", "pass" if index == 3 else "fail",
               str(index))
    v = lattice.solve_cossec_vector(tup, 8, 9)
    products = tuple(lattice.gram_product(list(v), list(f), g) for f in tup)
    want = tuple(2 if k in (8, 9) else 1 for k in range(10))
    report.add("distinguished vector products",
               "pass" if products == want else "fail",
               ",".join(str(p) for p in products))
    total = sum(products)
    report.add("product sum", "pass" if total == 12 else "fail", str(total))
    div = lattice.divisibility_check(v, tup, g)
    report.add("divisibility by 3 outside the span",
               "pass" if div[0] and not div[1] else "fail",
               f"3 | v.Sf: {div[0]}, in span: {div[1]}, 9 | v.Sf: {div[2]}")
    report.artifacts["vector"] = "(" + ", ".join(str(c) for c in v) + ")"


_COMMANDS = {
    "classify": _cmd_classify,
    "verify-surface": _cmd_verify_surface,
    "nd": _cmd_nd,
    "fibrations": _cmd_fibrations,
    "sextic-check": _cmd_sextic_check,
    "lattice": _cmd_lattice,
}


def run(argv):
    """Execute a subcommand and return its Report; UsageError on bad input."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("a subcommand is required")
    report = Report(command=args.command)
    try:
        _COMMANDS[args.command](args, report)
    except catalog.CatalogDataError as exc:
        report.add("catalog data", "fail", str(exc))
    return report, args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        report, args = run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.to_text())
    return 1 if report.failed() else 0


if __name__ == "__main__":
    sys.exit(main())
