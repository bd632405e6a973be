"""Fiber decompositions, the triangle-graph census, and the survivors.

A fiber G splits as G = S_j + S_k into two fundamental cycles; gluing
three fibers along shared cycles produces every possible triangle graph.
The census enumerates all such gluings up to isomorphism, filters by
rank and discriminant, and derives the surviving dual graphs.
"""

from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import permutations

from .config import CurveConfig, Divisor
from .divisors import (
    InvariantViolation,
    build_triangle,
    connected_subsets,
    extension_obstruction,
    fibration_capacity_ok,
    internal_extender,
)
from .lattice import GramForm, rank_and_discriminant
from .rootfibers import (
    DynkinType,
    KodairaType,
    NotDynkin,
    canonical_vertex_order,
    classify_dynkin,
    fundamental_cycle,
    null_vector,
)

# fibers that can occur as a simple fiber of a single fibration: at most
# nine components and root type embeddable in E8
FIBER_KINDS = tuple(
    KodairaType(s)
    for s in (
        ["I%d" % n for n in range(2, 10)]
        + ["I%d*" % n for n in range(5)]
        + ["IV*", "III*", "II*"]
    )
)

_FAMILY_ORDER = {"E": 0, "D": 1, "A": 2}


def type_sort_key(t):
    return (_FAMILY_ORDER[t.family], -t.n)


def sort_triple(types):
    return tuple(sorted(types, key=type_sort_key))


@lru_cache(maxsize=None)
def fiber_graph(kind):
    """The dual graph of a Kodaira fiber, vertices t0, t1, ..."""
    s = kind.symbol
    if s in ("III", "I2"):
        return CurveConfig.from_edges(
            ("t0", "t1"), [("t0", "t1", 2)],
            tangent_edges=[("t0", "t1")] if s == "III" else (),
        )
    if s in ("IV", "I3") or (s.startswith("I") and not s.endswith("*")):
        n = 3 if s == "IV" else int(s[1:])
        if n == 1:
            return CurveConfig.from_edges(("t0",), [])
        names = tuple(f"t{i}" for i in range(n))
        edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
        tangents = [(names[0], names[1])] if s == "IV" else ()
        return CurveConfig.from_edges(names, edges, tangent_edges=tangents)
    if s.endswith("*") and s[1:-1].isdigit():
        n = int(s[1:-1])
        if n == 0:
            return CurveConfig.from_edges(
                ("t0", "t1", "t2", "t3", "t4"),
                [("t0", "t1"), ("t0", "t2"), ("t0", "t3"), ("t0", "t4")],
            )
        spine = [f"t{i}" for i in range(n + 1)]
        names = tuple(spine + ["a0", "a1", "b0", "b1"])
        edges = [(spine[i], spine[i + 1]) for i in range(n)]
        edges += [("a0", spine[0]), ("a1", spine[0]),
                  ("b0", spine[n]), ("b1", spine[n])]
        return CurveConfig.from_edges(names, edges)
    arms = {"IV*": (2, 2, 2), "III*": (3, 3, 1), "II*": (5, 2, 1)}[s]
    names = ["c"]
    edges = []
    for ai, length in enumerate(arms):
        prev = "c"
        for j in range(length):
            v = f"t{ai}_{j}"
            names.append(v)
            edges.append((prev, v))
            prev = v
    return CurveConfig.from_edges(tuple(names), edges)


def _diagram_orderings(config, dtype):
    """All vertex orderings realizing the canonical diagram layout; they
    differ by a diagram automorphism and preserve highest-root labels."""
    order = canonical_vertex_order(config, dtype)
    if dtype.family == "A":
        if dtype.n == 1:
            return (tuple(order),)
        return (tuple(order), tuple(reversed(order)))
    if dtype.family == "D":
        if dtype.n == 4:
            l1, l2, c, l3 = order
            return tuple(
                (a, b, c, d) for a, b, d in permutations((l1, l2, l3))
            )
        swapped = [order[1], order[0]] + list(order[2:])
        return (tuple(order), tuple(swapped))
    if dtype.n == 6:
        # the chain reverses onto itself, fixing the branch leaf
        rev = list(reversed(order[:5])) + [order[5]]
        return (tuple(order), tuple(rev))
    return (tuple(order),)


@dataclass(frozen=True)
class Part:
    dtype: DynkinType
    coeffs: tuple  # coefficient per fiber vertex, 0 outside the support
    orders: tuple  # vertex-index tuples aligned with highest_root positions


@dataclass(frozen=True)
class Decomposition:
    kind: KodairaType
    first: Part
    second: Part


def _part(cfg, sub):
    """The Part on cfg carried by the fundamental cycle of the connected
    subconfiguration sub, or None when sub is not a Dynkin diagram."""
    try:
        dtype = classify_dynkin(sub)
    except NotDynkin:
        return None
    z = fundamental_cycle(sub)
    orders = tuple(tuple(cfg.index(v) for v in order)
                   for order in _diagram_orderings(sub, dtype))
    return Part(dtype, tuple(z.coeff(v) for v in cfg.names), orders)


@lru_cache(maxsize=None)
def _decompositions(kind):
    """All ordered splittings G = first + second into fundamental cycles."""
    cfg = fiber_graph(kind)
    if cfg.size() < 2:
        return ()  # irreducible fiber: nothing to split
    null = null_vector(cfg)
    null = tuple(null[v] for v in cfg.names)
    out = []
    for subset in connected_subsets(cfg, max_size=cfg.size() - 1):
        first = _part(cfg, cfg.subconfig(subset))
        if first is None:
            continue
        rest = tuple(g - c for g, c in zip(null, first.coeffs))
        if any(c < 0 for c in rest):
            continue
        second = _part(cfg, cfg.subconfig(
            v for v, c in zip(cfg.names, rest) if c))
        if second is None or second.coeffs != rest:
            continue
        out.append(Decomposition(kind, first, second))
    return tuple(out)


@dataclass(frozen=True)
class DecompositionRow:
    G: KodairaType
    pairs: frozenset  # of sorted (DynkinType, DynkinType) tuples


def decompose_fiber(kind):
    """Unordered type pairs (S_j, S_k) splitting the fiber G."""
    pairs = set()
    for d in _decompositions(kind):
        pairs.add(tuple(sorted((d.first.dtype, d.second.dtype),
                               key=type_sort_key)))
    return DecompositionRow(kind, frozenset(pairs))


def _glue_indexed(kinds, decomps, chosen):
    """Glue three fibers; returns (class lists, weights, coeffs) or None.

    kinds/decomps are indexed by fiber 1..3 (fiber i omits S_i);
    chosen[k] = ((fiber, order), (fiber, order)) for S_k's two copies.
    """
    mats = [None] + [fiber_graph(k).inter for k in kinds]
    sizes = [0] + [len(m) for m in mats[1:]]
    offsets = [0, 0, sizes[1], sizes[1] + sizes[2]]
    total = sizes[1] + sizes[2] + sizes[3]
    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (ia, oa), (ib, ob) in chosen.values():
        for va, vb in zip(oa, ob):
            ra, rb = find(offsets[ia] + va), find(offsets[ib] + vb)
            if ra != rb:
                parent[ra] = rb
    classes = {}
    for x in range(total):
        classes.setdefault(find(x), []).append(x)
    groups = sorted(classes.values())
    cls_of = [0] * total
    for gi, g in enumerate(groups):
        for x in g:
            cls_of[x] = gi
    n = len(groups)
    # no two vertices of one fiber may collapse, and every weight must be
    # consistent across the fibers seeing both endpoints
    weights = [[0] * n for _ in range(n)]
    known = [[False] * n for _ in range(n)]
    for i in (1, 2, 3):
        m = mats[i]
        off = offsets[i]
        sz = sizes[i]
        local_cls = cls_of[off:off + sz]
        if len(set(local_cls)) != sz:
            return None
        for a in range(sz):
            ga = local_cls[a]
            row = m[a]
            for b in range(a + 1, sz):
                gb = local_cls[b]
                w = row[b]
                if known[ga][gb]:
                    if weights[ga][gb] != w:
                        return None
                else:
                    known[ga][gb] = known[gb][ga] = True
                    weights[ga][gb] = weights[gb][ga] = w
    # coefficients of each S_k on the classes, read off either copy
    part_sources = {1: (2, 0), 2: (1, 0), 3: (1, 1)}
    coeff_rows = []
    for k in (1, 2, 3):
        fib, pi = part_sources[k]
        d = decomps[fib - 1]
        part = d.first if pi == 0 else d.second
        row = [0] * n
        off = offsets[fib]
        for v, c in enumerate(part.coeffs):
            if c:
                row[cls_of[off + v]] = c
        coeff_rows.append(tuple(row))
    return n, tuple(tuple(r) for r in weights), tuple(coeff_rows)


@dataclass(frozen=True)
class CensusEntry:
    triple: tuple  # three DynkinType, sorted by type_sort_key
    variant: int
    glued: CurveConfig
    S: tuple  # three Divisors on glued, aligned with triple
    G_types: tuple  # G_i = S_j + S_k
    rank: int
    disc: int
    verdict: object = None  # Excluded(...) / Survivor(...) once derived


@dataclass(frozen=True)
class Excluded:
    reason: str

    def __str__(self):
        return f"Excluded({self.reason})"


@dataclass(frozen=True)
class Survivor:
    surface: str

    def __str__(self):
        return f"Survivor({self.surface})"


def _raw_triangles(max_components):
    """All consistent gluings as (types, n, weights, coeff rows), with the
    role types already in canonical sorted order."""
    by_first = {}
    by_pair = {}
    all_decomps = []
    for kind in FIBER_KINDS:
        for d in _decompositions(kind):
            all_decomps.append((kind, d))
            by_first.setdefault(d.first.dtype, []).append((kind, d))
            by_pair.setdefault((d.first.dtype, d.second.dtype),
                               []).append((kind, d))
    found = {}
    for k3, d3 in all_decomps:  # fiber 3 carries (S_1, S_2)
        t1, t2 = d3.first.dtype, d3.second.dtype
        if type_sort_key(t1) > type_sort_key(t2):
            continue
        for k2, d2 in by_first.get(t1, ()):  # fiber 2 carries (S_1, S_3)
            t3 = d2.second.dtype
            if type_sort_key(t2) > type_sort_key(t3):
                continue
            for k1, d1 in by_pair.get((t2, t3), ()):  # fiber 1: (S_2, S_3)
                kinds = (k1, k2, k3)
                decomps = (d1, d2, d3)
                for o1 in d2.first.orders:
                    for o2 in d1.first.orders:
                        for o3 in d1.second.orders:
                            chosen = {
                                1: ((2, o1), (3, d3.first.orders[0])),
                                2: ((1, o2), (3, d3.second.orders[0])),
                                3: ((1, o3), (2, d2.second.orders[0])),
                            }
                            glued = _glue_indexed(kinds, decomps, chosen)
                            if glued is None:
                                continue
                            n, weights, coeffs = glued
                            if n > max_components:
                                continue
                            key = ((t1, t2, t3), weights, coeffs)
                            if key not in found:
                                found[key] = (kinds, (t1, t2, t3),
                                              n, weights, coeffs)
    return list(found.values())


def _make_entry(types, n, weights, coeffs):
    names = tuple(f"v{i}" for i in range(n))
    inter = tuple(
        tuple(-2 if i == j else weights[i][j] for j in range(n))
        for i in range(n)
    )
    glued = CurveConfig(names, inter)
    divisors = tuple(Divisor(row, glued) for row in coeffs)
    tri = build_triangle(witnesses=divisors, ambient=glued)
    if not fibration_capacity_ok(tri):
        return None
    order = sorted(range(3), key=lambda k: type_sort_key(tri.types[k]))
    gram = GramForm.from_rows([list(r) for r in glued.inter])
    r, disc = rank_and_discriminant(gram)
    return CensusEntry(
        tuple(tri.types[k] for k in order), 0, tri.glued,
        tuple(tri.S[k] for k in order),
        tuple(tri.G_types[k] for k in order), r, disc)


def _refine(colours, nbrs):
    """Coarsest equitable refinement of a vertex colouring, renumbered
    canonically: a vertex's next colour is its colour together with the
    multiset of (neighbour colour, edge weight) pairs."""
    while True:
        sigs = [(c, tuple(sorted((colours[u], w) for u, w in nb)))
                for c, nb in zip(colours, nbrs)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        refined = [rank[s] for s in sigs]
        if len(rank) == len(set(colours)):
            return refined
        colours = refined


def _leaves(colours, nbrs):
    """Discrete colourings reached by individualising, in every possible
    way, a vertex of the first non-singleton cell and refining again."""
    cell = min((c for c, k in Counter(colours).items() if k > 1), default=None)
    if cell is None:
        yield colours
        return
    for v, c in enumerate(colours):
        if c == cell:
            # v alone takes the cell's place, ahead of the rest of the cell
            split = [2 * x + (x == cell and u != v)
                     for u, x in enumerate(colours)]
            yield from _leaves(_refine(split, nbrs), nbrs)


def _canonical_key(types, n, weights, coeffs):
    """Isomorphism invariant of a raw gluing that separates non-isomorphic
    ones: isomorphisms may relabel vertices and permute roles of equal type.

    Colour refinement plus exhaustive individualisation, after McKay and
    Piperno, "Practical graph isomorphism II" (2014), with no automorphism
    pruning.  Vertices are coloured by their S-coefficients in the permuted
    role order; a leaf's certificate is the vertex labels in leaf order
    plus the reordered weight matrix, and the key keeps the least one.
    """
    nbrs = [[(u, w) for u, w in enumerate(row) if w] for row in weights]
    best = None
    for perm in permutations(range(3)):
        if any(types[p] != t for p, t in zip(perm, types)):
            continue
        labels = [tuple(coeffs[p][v] for p in perm) for v in range(n)]
        for leaf in _leaves(_refine(labels, nbrs), nbrs):
            order = sorted(range(n), key=leaf.__getitem__)
            cert = (tuple(labels[v] for v in order),
                    tuple(tuple(weights[a][b] for b in order)
                          for a in order))
            if best is None or cert < best:
                best = cert
    return types, best


def enumerate_triangles(max_components=11):
    """Census of triangle graphs up to isomorphism.

    For every triple of fibers (G_1, G_2, G_3), every ordered splitting
    of each, and every identification of the two copies of each S_k up
    to a diagram automorphism, attempt the gluing and keep the
    consistent results, deduplicated up to isomorphism respecting the
    (S_1, S_2, S_3) partition up to permutation.  Each class is
    represented by its first gluing in enumeration order; capacity, rank
    and discriminant are isomorphism invariants, so the entry is built
    for that gluing only.
    """
    seen = set()
    kept = []
    for _, types, n, weights, coeffs in _raw_triangles(max_components):
        key = _canonical_key(types, n, weights, coeffs)
        if key in seen:
            continue
        seen.add(key)
        entry = _make_entry(types, n, weights, coeffs)
        if entry is not None:
            kept.append(entry)
    kept.sort(key=lambda e: (
        tuple(type_sort_key(t) for t in e.triple), e.glued.size(), e.disc))
    counts = {}
    final = []
    for e in kept:
        idx = counts.get(e.triple, 0)
        counts[e.triple] = idx + 1
        final.append(replace(e, variant=idx))
    return final


def discriminant_filter(census):
    """Keep |glued| >= 10, rank 10 and disc in {1, 4, 16}; annotate the rest."""
    out = []
    for e in census:
        if e.glued.size() < 10:
            continue
        if e.rank == 10 and e.disc in (1, 4, 16):
            out.append(e)
        else:
            out.append(replace(e, verdict=Excluded(
                f"rank {e.rank}, disc {e.disc}")))
    return out


# completions of the lattice-level survivors into full dual graphs: the
# (E8,A1,A1) triangle completes in two ways depending on whether the
# III* fiber through the two-component fibration is simple or a half
_COMPLETIONS = {
    ("E8", "A1", "A1"): ("E7(2)", "BP"),
    ("E7", "D8", "A1"): ("A7~",),
}


def derive_survivors(filtered):
    """Resolve every filtered entry into Excluded(...) or Survivor(...)."""
    out = []
    for e in filtered:
        if isinstance(e.verdict, Excluded):
            out.append(e)
            continue
        tri = build_triangle(witnesses=e.S, ambient=e.glued)
        ext = internal_extender(tri)
        if ext is not None:
            out.append(replace(e, verdict=Excluded(f"extends: {ext[1]}")))
            continue
        obs = extension_obstruction(tri)
        if obs is None:
            out.append(replace(e, verdict=Excluded(
                "no extender found but obstruction inconclusive")))
            continue
        key = tuple(str(t) for t in e.triple)
        completions = _COMPLETIONS.get(key)
        if completions is None:
            out.append(replace(e, verdict=Excluded(
                f"non-extendable but no completion known: {obs}")))
            continue
        for surface in completions:
            out.append(replace(e, verdict=Survivor(surface)))
    return out
