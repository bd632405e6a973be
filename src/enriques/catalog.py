"""Catalog of concrete curve configurations with annotated fibrations.

Each catalogued surface is a weighted dual graph of (-2)-curves together
with a list of genus one fibers, each marked as a half-fiber or a simple
fiber.  The catalog data lives in JSON files under data/; everything
else (fiber kinds, fibration classes, sequence claims, non-degeneracy
bounds) is recomputed from the graph.  Curve names are read once, at
load; past it a set of curves is an ascending tuple of vertex indices.
"""

import json
import reprlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from pathlib import Path
from typing import NamedTuple

from . import divisors as _divisors
from .config import CurveConfig, Divisor, intersect, pairings
from .divisors import (
    MAX_FIBER_COMPONENTS,
    build_triangle,
    extension_obstruction,
    is_c_sequence,
    specialness_witness,
)
from .lattice import rank_and_discriminant
from .rootfibers import KodairaType, NotAffine, fiber_divisor, root_subsets


# the reference enumerator, unused here: perfbench/selftest.py reads it as
# catalog.connected_subsets to check that the tracer patches every module
# binding a function
connected_subsets = _divisors.connected_subsets


class UnknownSurface(KeyError):
    pass


class IncompleteCatalog(RuntimeError):
    """The surface's curve graph does not list every fibration."""


class CatalogDataError(ValueError):
    pass


# the rank of Num(Y) for an Enriques surface Y
NUM_RANK = 10
# the most curves a surface file may list (the shipped ones list 10 to
# 12); the load checks the count before it builds the Gram matrix, whose
# Smith normal form is cubic in it
MAX_CURVES = 60
# the most distinct file contents whose parse and model a process keeps
CACHED_FILES = 64


@dataclass(frozen=True)
class FiberAnnotation:
    label: str
    multiplicity: str  # "half" or "simple"
    kind: str
    divisor: Divisor  # fundamental (null-vector) divisor on the surface


@dataclass(frozen=True)
class SurfaceModel:
    """One surface, shared by every load of the same file content: no
    code changes a model, its claims or the parsed data they come from."""
    name: str
    config: CurveConfig
    fibrations: tuple  # of FiberAnnotation
    char_tag: str
    complete: bool
    additive_default: str  # "simple" or "" (no default)
    claims: dict

    @cached_property
    def records(self):
        """The fibration records (fibration_records), worked out once."""
        return _enumerate_fibrations(self)


def _data_dir():
    return Path(__file__).parent / "data"


class _Shape(NamedTuple):
    """A JSON value the catalog file format accepts, and the words that
    name it in a message.  A list's items have one shape, or a shape per
    position; an object's are {key: shape}, the key str standing for any
    key the object's own table does not name."""
    type: type
    text: str
    items: object = None
    sizes: tuple = ()  # the lengths a list may have
    ok: object = None  # a test the value must pass besides its type
    required: tuple = ()  # the keys an object must hold


def _object(required, optional=None):
    return _Shape(dict, "an object", {**required, **(optional or {})},
                  required=tuple(required))


def _strings(n):
    return _Shape(list, f"a list of {n} strings", _STR, (n,))


_STR, _INT, _BOOL = (_Shape(str, "a string"), _Shape(int, "an integer"),
                     _Shape(bool, "true or false"))
_NAMES = _Shape(list, "a list of strings", _STR)

# The catalog file format: each key a surface file may hold, with the
# shape of its value, required keys first.  Load checks a parsed file
# against it once, before anything else reads the data.
SURFACE_FILE = _object({
    "name": _STR,
    "curves": _Shape(list, f"a list of at most {MAX_CURVES} strings", _STR,
                     range(MAX_CURVES + 1)),
    "edges": _Shape(list, "a list of edges", _Shape(
        list, "a list of 2 curves and an optional weight",
        (_STR, _STR, _Shape(int, "an integer >= 0", ok=(0).__le__)), (2, 3))),
    "fibrations": _Shape(list, "a list of fibers", _object(
        {"label": _STR, "support": _NAMES,
         "multiplicity": _Shape(str, "'half' or 'simple'",
                                ok=("half", "simple").__contains__)},
        {"kind": _STR})),
}, {
    "tangent_edges": _Shape(list, "a list of curve pairs", _strings(2)),
    "char_tag": _STR, "complete": _BOOL,
    "additive_default": _Shape(str, "'simple' or ''",
                               ok=("simple", "").__contains__),
    "claims": _object({}, {
        "fibration_count": _INT, "max_clique": _INT,
        "nd": _Shape(list, "a list of 2 integers", _INT, (2,)),
        "triple": _strings(3), "types": _strings(3), "non_extendable": _BOOL,
        "witness": _object({
            "divisor": _object({}, {str: _INT}),
            "k": _Shape(int, "an integer in 1..3", ok=(1, 2, 3).__contains__),
        }),
        "four_sequence": _strings(4),
        "minus_two": _object(
            {"triple": _strings(3), "other": _STR, "value": _INT}),
        "unique_nonspecial": _object({}, {str: _strings(2)}),
    }),
})
# the value of a missing key, and the shape of a key no table names
_MISSING = type("Missing", (), {"__repr__": lambda self: "missing"})()
_ABSENT = _Shape(type(_MISSING), "absent")


def _check_shape(value, shape, path=""):
    """Check a parsed value, and everything it holds, against its shape."""
    if (type(value) is not shape.type
            or shape.sizes and len(value) not in shape.sizes
            or shape.ok and not shape.ok(value)):
        raise CatalogDataError(f"{path or 'the file'} must be {shape.text}, "
                               f"not {reprlib.repr(value)}")
    items = shape.items
    if type(items) is dict:
        for key in sorted(value.keys() | set(shape.required)):
            _check_shape(value.get(key, _MISSING),
                         items.get(key, items.get(str, _ABSENT)),
                         f"{path}.{key}" if path else key)
    elif items:
        for i, item in enumerate(value):
            _check_shape(item, items[i] if type(items) is tuple else items,
                         f"{path}[{i}]")


@lru_cache(maxsize=CACHED_FILES)
def _parse(raw):
    """The parsed bytes of a surface file, an object with a string name."""
    data = json.loads(raw)
    _check_shape(data, SURFACE_FILE._replace(items=None, required=()))
    _check_shape(data.get("name", _MISSING), _STR, "name")
    return data


@lru_cache(maxsize=CACHED_FILES)
def _model(raw):
    """The validated model of a surface file's bytes."""
    return _model_from_json(_parse(raw))


def _surfaces(catalog_dir=None):
    """(path, surface name, file bytes) for every surface file, in file
    order.  Every call reads the directory afresh; a missing directory, a
    file that cannot be read, is not an object with a string name, or
    names the surface of an earlier file raises CatalogDataError."""
    base = Path(catalog_dir) if catalog_dir is not None else _data_dir()
    if not base.is_dir():
        raise CatalogDataError(f"{base} is not a directory")
    out, paths = [], {}
    for path in sorted(base.glob("*.json")):
        try:
            raw = path.read_bytes()
            name = _parse(raw)["name"]
        except (OSError, RecursionError, ValueError) as exc:
            raise CatalogDataError(f"{path.name}: {exc}") from None
        if name in paths:
            raise CatalogDataError(
                f"{paths[name].name} and {path.name} both name {name!r}")
        paths[name] = path
        out.append((path, name, raw))
    return out


def _load(path, raw):
    try:
        return _model(raw)
    except ValueError as exc:
        raise CatalogDataError(f"{path.name}: {exc}") from None


def load_surface(name, catalog_dir=None):
    """The named surface; malformed data raises CatalogDataError.  Loads
    of the same file content return the same model."""
    for path, surface, raw in _surfaces(catalog_dir):
        if surface == name:
            return _load(path, raw)
    raise UnknownSurface(f"{name!r} is not in the catalog")


def surfaces():
    """Every surface of the catalog data directory, loaded, in file order."""
    return [_load(path, raw) for path, _, raw in _surfaces()]


def _model_from_json(data):
    _check_shape(data, SURFACE_FILE)
    tangents = data.get("tangent_edges", [])
    config = CurveConfig.from_edges(data["curves"], data["edges"], tangents)
    # a tangent edge marks two curves tangent at one point (III, not I2)
    for a, b in tangents:
        if config.pair(a, b) != 2:
            raise CatalogDataError(
                f"tangent edge {[a, b]} joins curves meeting with weight "
                f"{config.pair(a, b)}, not 2")
    rank, _ = rank_and_discriminant(config.inter)
    if rank > NUM_RANK:
        raise CatalogDataError(
            f"the curves span a lattice of rank {rank}, above {NUM_RANK}")
    fibrations = []
    for entry in data["fibrations"]:
        names = set(entry["support"])
        for f in fibrations:
            if f.label == entry["label"] or names == {
                    name for name, _ in f.divisor.coeffs}:
                raise CatalogDataError(
                    f"fibers {f.label} and {entry['label']} repeat a label "
                    "or a support")
        try:
            support = Divisor.from_map(dict.fromkeys(names, 1),
                                       config).support()
            kind, divisor = fiber_divisor(config, support)
        except NotAffine as exc:
            raise CatalogDataError(f"fiber {entry['label']} is not an affine "
                                   f"configuration: {exc}")
        except ValueError as exc:
            raise CatalogDataError(f"fiber {entry['label']}: {exc}")
        kind = str(kind)
        if entry.get("kind") and entry["kind"] != kind:
            raise CatalogDataError(f"fiber {entry['label']} annotated "
                                   f"{entry['kind']} but classifies as {kind}")
        if len(divisor.support()) > MAX_FIBER_COMPONENTS:
            raise CatalogDataError(
                f"fiber {entry['label']} has {len(divisor.support())} "
                f"components, above {MAX_FIBER_COMPONENTS}")
        fibrations.append(FiberAnnotation(
            entry["label"], entry["multiplicity"], kind, divisor))
    claims = data.get("claims", {})
    _check_claims(claims, {f.label for f in fibrations}, config.names)
    return SurfaceModel(
        data["name"], config, tuple(fibrations), data.get("char_tag", ""),
        data.get("complete", False), data.get("additive_default", ""), claims)


def _check_claims(claims, labels, curves):
    """Reject claims that name a fiber label or a curve the surface does
    not list, or that lack a claim they are checked with."""
    minus_two = claims.get("minus_two", {})
    unique = claims.get("unique_nonspecial", {})
    named = {
        "triple": claims.get("triple", ()),
        "four_sequence": claims.get("four_sequence", ()),
        "minus_two": minus_two and [*minus_two["triple"], minus_two["other"]],
        "unique_nonspecial": [lab for label, partners in unique.items()
                              for lab in (label, *partners)],
    }
    for key, seq in named.items():
        for label in seq:
            if label not in labels:
                raise CatalogDataError(
                    f"claims.{key} names {label!r}, no annotated fiber")
    for name in claims.get("witness", {}).get("divisor", {}):
        if name not in curves:
            raise CatalogDataError(
                f"claims.witness.divisor names {name!r}, no curve")
    for key, needs in (("witness", "triple"), ("types", "witness"),
                       ("non_extendable", "witness")):
        if key in claims and needs not in claims:
            raise CatalogDataError(
                f"claims.{key} needs claims.{needs}, which is missing")
    if "witness" in claims and "types" not in claims:
        raise CatalogDataError(
            "claims.types must list the 3 fiber types of a special "
            "triple, not None")


@dataclass(frozen=True)
class FibrationClass:
    labels: tuple  # annotation labels of members, possibly empty
    cls: Divisor  # the half-fiber F, or None when the scale is undetermined
    kinds: tuple  # fiber kinds seen in this class's fibration
    ray: tuple  # primitive pairing vector, the dedup key


def fibration_records(s):
    """All genus one fibration classes visible in the curve graph, as a
    tuple of FibrationClass, worked out once per model.

    Connected affine subconfigurations are grouped into fibrations by
    the primitive ray of their pairing vector.  The half-fiber scale of
    a ray is fixed by a member with an odd pairing, by an annotation,
    or, for an additive member, by the additive default (in
    characteristic other than 2 a half-fiber is multiplicative,
    Cossec-Dolgachev).  An annotated member always fixes it; a ray that
    no member fixes has cls None.
    """
    return s.records


def _enumerate_fibrations(s):
    config = s.config
    annotated = {f.divisor.support(): f for f in s.fibrations}
    rays = {}
    for subset, kind, d in root_subsets(config, KodairaType,
                                        MAX_FIBER_COMPONENTS):
        pv = pairings(d.vec, config)
        g = gcd(*pv)
        if g == 0:
            raise CatalogDataError(
                f"{s.name}: fiber {'+'.join(config.names[i] for i in subset)}"
                " has no horizontal curve")
        ray = tuple(x // g for x in pv)
        rays.setdefault(ray, []).append((d, g, kind, annotated.get(subset)))
    records = []
    for ray, members in sorted(rays.items()):
        cls = step = None
        for d, g, kind, ann in members:
            # d pairs as g * ray, oddly with some curve when g is odd (a
            # primitive ray has an odd entry): then d is the half-fiber
            if g % 2:
                den = 1
            elif ann is not None:
                den = 2 if ann.multiplicity == "simple" else 1
            elif (s.additive_default == "simple"
                  and not kind.is_multiplicative()):
                den = 2
            else:
                continue
            # the half-fiber d / den pairs as (g // den) * ray
            if cls is None:
                cls, step = Divisor(d.vec, config, den), g // den
            elif g // den != step:
                raise CatalogDataError(
                    f"{s.name}: inconsistent half-fiber scale on ray {ray}"
                )
        labels = tuple(ann.label for _, _, _, ann in members if ann)
        kinds = tuple(sorted({str(kind) for _, _, kind, _ in members}))
        records.append(FibrationClass(labels, cls, kinds, ray))
    return tuple(records)


def _clique_sizes(adj):
    """Sizes of the maximal cliques of the graph with adjacency matrix adj,
    by Bron-Kerbosch with pivoting; an empty graph has one, of size 0."""
    nbrs = [{j for j, a in enumerate(row) if a} for row in adj]
    sizes = []

    def expand(size, cand, done):
        if not cand and not done:
            sizes.append(size)
            return
        pivot = max(cand | done, key=lambda u: len(cand & nbrs[u]))
        for v in cand - nbrs[pivot]:
            expand(size + 1, cand & nbrs[v], done & nbrs[v])
            cand = cand - {v}
            done = done | {v}

    expand(0, set(range(len(adj))), set())
    return sizes


def _clique_matrix(classes):
    n = len(classes)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adj[i][j] = adj[j][i] = intersect(classes[i], classes[j]) == 1
    return adj


def _half_fibers(s):
    """The half-fiber of every fibration record; a record whose scale is
    undetermined raises CatalogDataError."""
    records = fibration_records(s)
    undetermined = [r.ray for r in records if r.cls is None]
    if undetermined:
        raise CatalogDataError(
            f"undetermined fibration scale on rays {undetermined}"
        )
    return [r.cls for r in records]


def nd_bounds(s):
    """(min, max) length of maximal half-fiber sequences on the surface:
    the sizes of the maximal cliques of its half-fiber classes, two joined
    when they meet once."""
    if not s.complete:
        raise IncompleteCatalog(
            f"{s.name} does not list all of its fibrations"
        )
    sizes = _clique_sizes(_clique_matrix(_half_fibers(s)))
    return min(sizes), max(sizes)


def _check(checks, name, ok, detail):
    checks.append((name, "pass" if ok else "fail", detail))


def verify_surface(s):
    """Re-derive every claim recorded for the surface.

    Returns a list of (check name, status, detail) triples; status is
    "pass", "fail" or "inconclusive".
    """
    checks = []
    claims = s.claims

    for f in s.fibrations:
        kind = f.kind
        if f.multiplicity == "simple":
            ok = gcd(*pairings(f.divisor.vec, s.config)) % 2 == 0
            _check(checks, f"fiber {f.label} simple scale", ok,
                   f"{kind}; pairing vector halves to an integral class"
                   if ok
                   else f"{kind}; odd pairing contradicts a simple fiber")
        else:
            _check(checks, f"fiber {f.label} half-fiber", True, kind)

    records = fibration_records(s)
    # the half-fiber classes, and the one of each annotated fiber
    found = [r.cls for r in records if r.cls is not None]
    classes = {label: r.cls for r in records for label in r.labels}
    if s.complete:
        _check(checks, "fibration scales determined",
               len(found) == len(records), f"{len(records)} fibration classes")

    if "fibration_count" in claims:
        got = len(records)
        _check(checks, "fibration count", got == claims["fibration_count"],
               f"found {got}, expected {claims['fibration_count']}")

    if "triple" in claims:
        _verify_triple(s, classes, checks)

    if "four_sequence" in claims:
        seq = [classes[lab] for lab in claims["four_sequence"]]
        _check(checks, "four-sequence", is_c_sequence(seq),
               " ".join(claims["four_sequence"]))

    if "unique_nonspecial" in claims:
        _verify_unique_nonspecial(s, classes, found, checks)

    if "minus_two" in claims:
        claim = claims["minus_two"]
        f1, f2, f4 = (classes[lab] for lab in claim["triple"])
        f5 = classes[claim["other"]]
        val = intersect(f1, f5) + intersect(f2, f5) - intersect(f4, f5)
        _check(checks, "degenerating product", val == claim["value"],
               f"({'+'.join(claim['triple'][:2])}-{claim['triple'][2]})"
               f".{claim['other']} = {val}")

    if "nd" in claims:
        try:
            got = list(nd_bounds(s))
        except IncompleteCatalog as exc:
            checks.append(("nd bounds", "inconclusive", str(exc)))
        except CatalogDataError as exc:  # an undetermined scale
            checks.append(("nd bounds", "fail", str(exc)))
        else:
            _check(checks, "nd bounds", got == claims["nd"],
                   f"min {got[0]}, max {got[1]}")

    if "max_clique" in claims:
        try:
            got = max(_clique_sizes(_clique_matrix(_half_fibers(s))))
        except CatalogDataError as exc:
            checks.append(("max sequence length", "fail", str(exc)))
        else:
            _check(checks, "max sequence length",
                   got == claims["max_clique"], f"{got}")

    return checks


def _witness_text(k, d):
    """S_(k+1) as the `special witness` line writes it."""
    return f"S{k + 1} = " + "+".join(
        f"{c}{name}" if c != 1 else name for name, c in sorted(d.coeffs))


def _check_nonspecial(checks, name, found):
    """Record that no witness was found, or name each one that was."""
    _check(checks, name, not found,
           ", ".join(_witness_text(k, found[k]) for k in sorted(found))
           or "no effective F_i + F_j - F_k")


def _verify_triple(s, classes, checks):
    claims = s.claims
    F = [classes[lab] for lab in claims["triple"]]
    _check(checks, "three-sequence", is_c_sequence(F),
           " ".join(claims["triple"]))

    found = specialness_witness(F, s.config)
    expected = claims.get("witness")
    if expected is None:
        _check_nonspecial(checks, "non-special", found)
        return
    want = Divisor.from_map(expected["divisor"], s.config)
    ok = len(found) == 3 and found.get(expected["k"] - 1) == want
    _check(checks, "special witness", ok,
           _witness_text(expected["k"] - 1, want))
    if not ok:
        return
    tri = build_triangle(F=F, witnesses=[found[k] for k in range(3)],
                         ambient=s.config)
    got_types = sorted(str(t) for t in tri.types)
    want_types = sorted(claims["types"])
    _check(checks, "triangle type", got_types == want_types,
           f"({', '.join(str(t) for t in tri.types)})")

    if claims.get("non_extendable"):
        obstruction = extension_obstruction(tri)
        ok = obstruction is not None
        _check(checks, "non-extendable", ok,
               str(obstruction) if ok else "criterion inconclusive")


def _verify_unique_nonspecial(s, classes, found, checks):
    claims = s.claims["unique_nonspecial"]
    for label in sorted(claims):
        f = classes[label]
        partners = [g for g in found if intersect(f, g) == 1]
        want = [classes[p] for p in claims[label]]
        ok = (sorted(p.pairing_vector() for p in partners)
              == sorted(q.pairing_vector() for q in want))
        _check(checks, f"unique sequence through {label}", ok,
               f"partners {', '.join(claims[label])}")
        _check_nonspecial(checks, f"non-special through {label}",
                          specialness_witness(want + [f], s.config))
