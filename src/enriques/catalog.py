"""Catalog of concrete curve configurations with annotated fibrations.

Each catalogued surface is a weighted dual graph of (-2)-curves together
with a list of genus one fibers, each marked as a half-fiber or a simple
fiber.  The catalog data lives in JSON files under data/; everything
else (fiber kinds, fibration classes, sequence claims, non-degeneracy
bounds) is recomputed from the graph.
"""

import json
from dataclasses import dataclass
from math import gcd
from pathlib import Path

from .config import CurveConfig, Divisor, NumClass, intersect, pairings
from .divisors import (
    build_triangle,
    connected_subsets,
    extension_obstruction,
    is_c_sequence,
    specialness_witness,
)
from .lattice import GramForm, rank_and_discriminant
from .rootfibers import NotAffine, affine_shape


class UnknownSurface(KeyError):
    pass


class IncompleteCatalog(RuntimeError):
    """The surface's curve graph does not list every fibration."""


class CatalogDataError(ValueError):
    pass


# the rank of Num(Y) for an Enriques surface Y, and the most components a
# fiber of a genus one fibration on Y can have
NUM_RANK = 10
MAX_FIBER_COMPONENTS = 9

CATALOG_NAMES = (
    "E8~", "D8~", "E7~", "A7~", "typeI", "BP", "E7(2)", "2D4~",
)


@dataclass(frozen=True)
class FiberAnnotation:
    label: str
    support: tuple
    multiplicity: str  # "half" or "simple"
    kind: str
    divisor: Divisor  # fundamental (null-vector) divisor on the surface


@dataclass(frozen=True)
class SurfaceModel:
    name: str
    config: CurveConfig
    fibrations: tuple  # of FiberAnnotation
    char_tag: str
    complete: bool
    additive_default: str  # "simple" or "" (no default)
    claims: dict


def _data_dir():
    return Path(__file__).parent / "data"


def _data_error(path, exc):
    reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return CatalogDataError(f"{path.name}: {reason}")


def _surfaces(catalog_dir=None):
    """(path, surface name, parsed JSON) for every surface file.

    Files that cannot be read or lack a name raise CatalogDataError.
    """
    base = Path(catalog_dir) if catalog_dir is not None else _data_dir()
    for path in sorted(base.glob("*.json")):
        try:
            with open(path) as fh:
                data = json.load(fh)
            name = data["name"]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise _data_error(path, exc) from None
        yield path, name, data


def _fiber_divisor(config, support):
    """Fundamental (null-vector) divisor of an affine subconfiguration."""
    sub = config.subconfig(support)
    shape = affine_shape(sub)
    return Divisor.from_map(shape.mult_map(), config), str(shape.kind)


def load_surface(name, catalog_dir=None):
    """The named surface; malformed data raises CatalogDataError."""
    for path, surface, data in _surfaces(catalog_dir):
        if surface == name:
            try:
                return _model_from_json(data)
            except (KeyError, TypeError, ValueError) as exc:
                raise _data_error(path, exc) from None
    raise UnknownSurface(f"{name!r} is not in the catalog")


def _model_from_json(data):
    tangents = [tuple(t) for t in data.get("tangent_edges", [])]
    config = CurveConfig.from_edges(
        data["curves"], [tuple(e) for e in data["edges"]], tangents)
    # a tangent edge marks two curves tangent at one point (III, not I2)
    for a, b in tangents:
        if config.pair(a, b) != 2:
            raise CatalogDataError(
                f"tangent edge {[a, b]} joins curves meeting with weight "
                f"{config.pair(a, b)}, not 2")
    complete = data.get("complete", False)
    if type(complete) is not bool:
        raise CatalogDataError(
            f"complete must be true or false, not {complete!r}")
    additive_default = data.get("additive_default", "")
    if additive_default not in ("simple", ""):
        raise CatalogDataError(
            f"additive_default must be 'simple' or '', "
            f"not {additive_default!r}")
    rank, _ = rank_and_discriminant(GramForm.from_rows(config.inter))
    if rank > NUM_RANK:
        raise CatalogDataError(
            f"the curves span a lattice of rank {rank}, above {NUM_RANK}")
    fibrations = []
    for entry in data["fibrations"]:
        support = tuple(entry["support"])
        for f in fibrations:
            if f.label == entry["label"] or set(f.support) == set(support):
                raise CatalogDataError(
                    f"fibers {f.label} and {entry['label']} repeat a label "
                    "or a support")
        if entry["multiplicity"] not in ("half", "simple"):
            raise CatalogDataError(
                f"bad multiplicity {entry['multiplicity']!r}"
            )
        try:
            divisor, kind = _fiber_divisor(config, support)
        except NotAffine as exc:
            raise CatalogDataError(
                f"fiber {entry['label']} is not an affine configuration: {exc}"
            )
        except ValueError as exc:
            raise CatalogDataError(f"fiber {entry['label']}: {exc}")
        if entry.get("kind") and entry["kind"] != kind:
            raise CatalogDataError(
                f"fiber {entry['label']} annotated {entry['kind']} "
                f"but classifies as {kind}"
            )
        if len(divisor.support()) > MAX_FIBER_COMPONENTS:
            raise CatalogDataError(
                f"fiber {entry['label']} has {len(divisor.support())} "
                f"components, above {MAX_FIBER_COMPONENTS}"
            )
        fibrations.append(
            FiberAnnotation(entry["label"], support, entry["multiplicity"],
                            kind, divisor)
        )
    claims = data.get("claims", {})
    _check_claims(claims, {f.label for f in fibrations})
    return SurfaceModel(
        name=data["name"],
        config=config,
        fibrations=tuple(fibrations),
        char_tag=data.get("char_tag", ""),
        complete=complete,
        additive_default=additive_default,
        claims=claims,
    )


def _check_claims(claims, labels):
    """Reject claims that verify_surface could not read: claims that are
    not an object, sequences of the wrong length, fiber labels the
    surface does not annotate, a witness that is not an object with a
    divisor of integer coefficients and an index in 1..3, and a special
    triple without its three fiber types."""
    if not isinstance(claims, dict):
        raise CatalogDataError("claims must be a JSON object")
    named = {key: (claims[key], size)
             for key, size in (("triple", 3), ("four_sequence", 4))
             if key in claims}
    if "minus_two" in claims:
        claim = claims["minus_two"]
        named["minus_two"] = (list(claim["triple"]) + [claim["other"]], 4)
    if "unique_nonspecial" in claims:
        named["unique_nonspecial"] = (
            [lab for label, partners in claims["unique_nonspecial"].items()
             for lab in (label, *partners)], None)
    for key, (seq, size) in named.items():
        if size is not None and len(seq) != size:
            raise CatalogDataError(f"claims.{key} must name {size} fibers")
        for label in seq:
            if label not in labels:
                raise CatalogDataError(
                    f"claims.{key} names {label!r}, no annotated fiber")
    if "witness" in claims:
        witness = claims["witness"]
        if not (isinstance(witness, dict)
                and isinstance(witness.get("divisor"), dict)):
            raise CatalogDataError(
                "claims.witness must be an object with a divisor object")
        for name, c in witness["divisor"].items():
            if type(c) is not int:
                raise CatalogDataError(
                    f"claims.witness.divisor[{name!r}] must be an integer, "
                    f"not {c!r}")
        k = witness.get("k")
        if type(k) is not int or not 1 <= k <= 3:
            raise CatalogDataError(
                f"claims.witness.k must be an integer in 1..3, not {k!r}")
        types = claims.get("types")
        if "triple" in claims and not (
                isinstance(types, list) and len(types) == 3
                and all(isinstance(t, str) for t in types)):
            raise CatalogDataError(
                f"claims.types must list the 3 fiber types of a special "
                f"triple, not {types!r}")


@dataclass(frozen=True)
class FibrationClass:
    labels: tuple  # annotation labels of members, possibly empty
    cls: NumClass  # half-fiber class when determined, else the raw fiber
    kinds: tuple  # fiber kinds seen in this class's fibration
    determined: bool
    ray: tuple  # primitive pairing vector, the dedup key


def _is_multiplicative(kind):
    return kind.startswith("I") and not kind.endswith("*")


def fibration_records(s):
    """All genus one fibration classes visible in the curve graph.

    Connected affine subconfigurations are grouped into fibrations by
    the primitive ray of their pairing vector.  The half-fiber scale of
    a ray is fixed by a member with an odd pairing, by an annotation,
    or (where the surface's characteristic permits no additive
    half-fibers) by the additive default; remaining rays are returned
    undetermined at the fiber scale.
    """
    config = s.config
    annotated = {frozenset(f.support): f for f in s.fibrations}
    rays = {}
    for subset in connected_subsets(config, min_size=2,
                                    max_size=MAX_FIBER_COMPONENTS):
        sub = config.subconfig(subset)
        try:
            shape = affine_shape(sub)
        except NotAffine:
            continue
        d = Divisor.from_map(shape.mult_map(), config)
        pv = pairings(d.vec, config)
        g = gcd(*pv)
        if g == 0:
            raise CatalogDataError(
                f"{s.name}: fiber {'+'.join(subset)} has no horizontal curve")
        ray = tuple(x // g for x in pv)
        rays.setdefault(ray, []).append(
            (d, pv, str(shape.kind), annotated.get(frozenset(subset)))
        )
    records = []
    for ray in sorted(rays):
        members = rays[ray]
        half_pv = None
        rep = None
        for d, pv, kind, ann in members:
            forced = None
            if any(x % 2 for x in pv):
                forced = pv
            elif ann is not None:
                forced = (
                    tuple(x // 2 for x in pv) if ann.multiplicity == "simple"
                    else pv
                )
            elif s.additive_default == "simple" and not _is_multiplicative(kind):
                forced = tuple(x // 2 for x in pv)
            if forced is None:
                continue
            if half_pv is None:
                half_pv = forced
                rep = (d, pv)
            elif half_pv != forced:
                raise CatalogDataError(
                    f"{s.name}: inconsistent half-fiber scale on ray {ray}"
                )
        labels = tuple(
            ann.label for _, _, _, ann in members if ann is not None
        )
        kinds = tuple(sorted({kind for _, _, kind, _ in members}))
        if half_pv is None:
            d, pv, _, _ = members[0]
            cls = NumClass.from_divisor(d)
            records.append(FibrationClass(labels, cls, kinds, False, ray))
            continue
        d, pv = rep
        # the forced pairing is pv itself or pv / 2, so the class is d or d/2
        cls = NumClass.from_divisor(d, 1 if half_pv == pv else 2).flagged(
            half_fiber=True)
        records.append(FibrationClass(labels, cls, kinds, True, ray))
    return records


def _record_class(records, label):
    """Half-fiber class of the record holding the labelled fiber."""
    for rec in records:
        if label in rec.labels:
            if not rec.determined:
                raise CatalogDataError(f"fiber {label} has undetermined scale")
            return rec.cls
    raise KeyError(f"no annotated fiber labelled {label!r}")


def _max_clique(adj, n):
    best = 0
    order = sorted(range(n), key=lambda i: -sum(adj[i]))

    def extend(chosen, candidates):
        nonlocal best
        if len(chosen) > best:
            best = len(chosen)
        for idx, v in enumerate(candidates):
            if len(chosen) + len(candidates) - idx <= best:
                return
            rest = [u for u in candidates[idx + 1:] if adj[v][u]]
            extend(chosen + [v], rest)

    extend([], order)
    return best


def _clique_matrix(classes):
    n = len(classes)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adj[i][j] = adj[j][i] = intersect(classes[i], classes[j]) == 1
    return adj


def nd_bounds(s):
    """(min, max) length of maximal half-fiber sequences on the surface."""
    return _nd_bounds(s, None)


def _nd_bounds(s, records):
    """nd_bounds, on the surface's records when they are already known."""
    if not s.complete:
        raise IncompleteCatalog(
            f"{s.name} does not list all of its fibrations"
        )
    if records is None:
        records = fibration_records(s)
    undetermined = [r.ray for r in records if not r.determined]
    if undetermined:
        raise CatalogDataError(
            f"undetermined fibration scale on rays {undetermined}"
        )
    classes = [r.cls for r in records]
    adj = _clique_matrix(classes)
    n = len(classes)
    max_nd = _max_clique(adj, n)
    min_nd = max_nd
    for i in range(n):
        others = [j for j in range(n) if j != i and adj[i][j]]
        sub = [[adj[a][b] for b in others] for a in others]
        min_nd = min(min_nd, 1 + _max_clique(sub, len(others)))
    return min_nd, max_nd


def _check(checks, name, ok, detail):
    checks.append((name, "pass" if ok else "fail", detail))
    return ok


def _claimed_triple(records, labels):
    return [_record_class(records, lab) for lab in labels]


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
            ok = all(x % 2 == 0 for x in pairings(f.divisor.vec, s.config))
            _check(checks, f"fiber {f.label} simple scale", ok,
                   f"{kind}; pairing vector halves to an integral class"
                   if ok else f"{kind}; odd pairing contradicts a simple fiber")
        else:
            _check(checks, f"fiber {f.label} half-fiber", True, kind)

    records = fibration_records(s)
    if s.complete:
        ok = all(r.determined for r in records)
        _check(checks, "fibration scales determined", ok,
               f"{len(records)} fibration classes")

    if "fibration_count" in claims:
        got = len(records)
        _check(checks, "fibration count", got == claims["fibration_count"],
               f"found {got}, expected {claims['fibration_count']}")

    if "triple" in claims:
        _verify_triple(s, records, checks)

    if "four_sequence" in claims:
        seq = _claimed_triple(records, claims["four_sequence"])
        _check(checks, "four-sequence", is_c_sequence(seq),
               " ".join(claims["four_sequence"]))

    if "unique_nonspecial" in claims:
        _verify_unique_nonspecial(s, records, checks)

    if "minus_two" in claims:
        claim = claims["minus_two"]
        f1, f2, f4 = _claimed_triple(records, claim["triple"])
        f5 = _record_class(records, claim["other"])
        val = intersect(f1, f5) + intersect(f2, f5) - intersect(f4, f5)
        _check(checks, "degenerating product", val == claim["value"],
               f"({'+'.join(claim['triple'][:2])}-{claim['triple'][2]})"
               f".{claim['other']} = {val}")

    if "nd" in claims:
        try:
            got = list(_nd_bounds(s, records))
        except IncompleteCatalog as exc:
            checks.append(("nd bounds", "inconclusive", str(exc)))
        else:
            _check(checks, "nd bounds", got == claims["nd"],
                   f"min {got[0]}, max {got[1]}")

    if "max_clique" in claims:
        classes = [r.cls for r in records if r.determined]
        adj = _clique_matrix(classes)
        got = _max_clique(adj, len(classes))
        _check(checks, "max sequence length", got == claims["max_clique"],
               f"{got}")

    return checks


def _verify_triple(s, records, checks):
    claims = s.claims
    F = _claimed_triple(records, claims["triple"])
    _check(checks, "three-sequence", is_c_sequence(F),
           " ".join(claims["triple"]))

    found = specialness_witness(F, s.config)
    expected = claims.get("witness")
    if expected is None:
        _check(checks, "non-special", not found,
               "no effective F_i + F_j - F_k")
        return
    k = expected["k"] - 1
    want = expected["divisor"]
    got = found.get(k)
    ok = got is not None and dict(got.divisor.coeffs) == want
    desc = "+".join(
        (f"{c}{name}" if c != 1 else name) for name, c in sorted(want.items())
    )
    _check(checks, "special witness", ok, f"S{expected['k']} = {desc}")
    if not ok:
        return

    witnesses = []
    for kk in range(3):
        if kk in found:
            witnesses.append(found[kk].divisor)
        else:
            i, j = [t for t in range(3) if t != kk]
            gi = _fiber_sum(s, claims["triple"][i])
            gj = _fiber_sum(s, claims["triple"][j])
            gk = _fiber_sum(s, claims["triple"][kk])
            half = {}
            for name in s.config.names:
                c = gi.coeff(name) + gj.coeff(name) - gk.coeff(name)
                if c % 2:
                    _check(checks, "triangle graph", False,
                           f"G_i + G_j - G_k odd at {name}")
                    return
                if c:
                    half[name] = c // 2
            witnesses.append(Divisor.from_map(half, s.config))
    tri = build_triangle(F=F, witnesses=witnesses, ambient=s.config)
    got_types = sorted(str(t) for t in tri.types)
    want_types = sorted(claims["types"])
    _check(checks, "triangle type", got_types == want_types,
           f"({', '.join(str(t) for t in tri.types)})")

    if claims.get("non_extendable"):
        obstruction = extension_obstruction(tri)
        ok = obstruction is not None
        _check(checks, "non-extendable", ok,
               str(obstruction) if ok else "criterion inconclusive")


def _fiber_sum(s, label):
    for f in s.fibrations:
        if f.label == label:
            return f.divisor.scale(2 if f.multiplicity == "half" else 1)
    raise KeyError(f"no annotated fiber labelled {label!r}")


def _verify_unique_nonspecial(s, records, checks):
    claims = s.claims["unique_nonspecial"]
    classes = {
        lab: _record_class(records, lab)
        for rec in records for lab in rec.labels
    }
    determined = [r.cls for r in records if r.determined]
    for label in sorted(claims):
        f = classes[label]
        partners = [g for g in determined if intersect(f, g) == 1]
        want = [classes[p] for p in claims[label]]
        ok = sorted(tuple(p.pairing_vector()) for p in partners) == sorted(
            tuple(q.pairing_vector()) for q in want
        )
        _check(checks, f"unique sequence through {label}", ok,
               f"partners {', '.join(claims[label])}")
        triple = want + [f]
        witness = specialness_witness(triple, s.config)
        _check(checks, f"non-special through {label}", not witness,
               "no effective F_i + F_j - F_k")
