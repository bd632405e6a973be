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

from . import catalog
from .config import CurveConfig, Divisor
from .divisors import (
    MAX_COMPONENTS,
    MAX_FIBER_COMPONENTS,
    OTHER_TWO,
    TriangleGraph,
    build_triangle,
    extension_obstruction,
    fibration_capacity_ok,
    internal_extender,
)
from .lattice import rank_and_discriminant
from .rootfibers import (
    DynkinType,
    KodairaType,
    _affine_kind,
    diagram_maps,
    fiber_graph,
    null_vector,
    root_subsets,
)

# the simple fibers of one fibration: at most MAX_FIBER_COMPONENTS
# components, so root rank at most 8 (every such lattice embeds in E8),
# and one kind per dual graph (III and IV repeat those of I2 and I3)
FIBER_KINDS = tuple(
    _affine_kind(DynkinType(family, n))
    for family, least in (("A", 1), ("D", 4), ("E", 6))
    for n in range(least, MAX_FIBER_COMPONENTS)
)

_FAMILY_ORDER = {"E": 0, "D": 1, "A": 2}


def type_sort_key(t):
    return (_FAMILY_ORDER[t.family], -t.n)


@dataclass(frozen=True)
class Part:
    dtype: DynkinType
    support: tuple  # ascending fiber vertices
    coeffs: tuple  # coefficient per fiber vertex, 0 outside the support


@dataclass(frozen=True)
class Decomposition:
    kind: KodairaType
    first: Part
    second: Part


@lru_cache(maxsize=None)
def _decompositions(kind):
    """All ordered splittings G = first + second into fundamental cycles,
    first in root_subsets order."""
    cfg = fiber_graph(kind)
    if cfg.size() < 2:
        return ()  # irreducible fiber: nothing to split
    null = null_vector(cfg)
    # the proper ADE subsets and their fundamental cycles; the whole
    # fiber is affine, so no second part covers it
    cycles = {support: Part(dtype, support, z.vec) for support, dtype, z
              in root_subsets(cfg, DynkinType, cfg.size() - 1)}
    out = []
    for part in cycles.values():
        rest = tuple(g - c for g, c in zip(null, part.coeffs))
        other = tuple(i for i, c in enumerate(rest) if c)
        if other in cycles and cycles[other].coeffs == rest:
            out.append(Decomposition(kind, part, cycles[other]))
    return tuple(out)


@lru_cache(maxsize=None)
def _orbit_first(kind):
    """The splittings of kind that come first in their Aut(G)-orbit, in
    _decompositions order.  On every kind in FIBER_KINDS two splittings
    lie in one orbit exactly when they have the same ordered type pair
    (first.dtype, second.dtype); the tests check this against a
    brute-force automorphism search."""
    out = {}
    for d in _decompositions(kind):
        out.setdefault((d.first.dtype, d.second.dtype), d)
    return tuple(out.values())


def decompose_fiber(kind):
    """The unordered type pairs (S_j, S_k) splitting the fiber G, as a
    frozenset of (DynkinType, DynkinType) in type_sort_key order."""
    return frozenset(
        tuple(sorted((d.first.dtype, d.second.dtype), key=type_sort_key))
        for d in _decompositions(kind))


def _glue_indexed(decomps, maps):
    """Glue three fibers; returns (intersection matrix, coeffs) or None.

    decomps splits G_1, G_2, G_3, and G_i omits S_i; maps[k] holds the two
    diagram maps of S_(k+1), into the fibers that OTHER_TWO[k] indexes.
    Classes of identified vertices are numbered by first appearance.
    None means two fibers disagree on an entry of the glued matrix; a
    fiber with two curves in one class disagrees with itself, writing -2
    and then their weight (>= 0) on that class's diagonal cell.
    """
    mats = [fiber_graph(d.kind).inter for d in decomps]
    offsets = [0, len(mats[0]), len(mats[0]) + len(mats[1])]
    parent = list(range(offsets[2] + len(mats[2])))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (ia, ib), (oa, ob) in zip(OTHER_TWO, maps):
        for va, vb in zip(oa, ob):
            parent[find(offsets[ia] + va)] = find(offsets[ib] + vb)
    number = {}
    cls_of = [number.setdefault(find(x), len(number))
              for x in range(len(parent))]
    n = len(number)
    # every entry must agree across the fibers seeing both classes
    # (None: unseen); each fiber writes its -2 on the diagonal first
    inter = [[None] * n for _ in range(n)]
    for m, off in zip(mats, offsets):
        local = cls_of[off:off + len(m)]
        for a, ga in enumerate(local):
            row, wa = m[a], inter[ga]
            for b in range(a, len(m)):
                gb = local[b]
                if wa[gb] is None:
                    wa[gb] = inter[gb][ga] = row[b]
                elif wa[gb] != row[b]:
                    return None
    # coefficients of S_1, S_2, S_3 on the classes, read off one copy each
    d1, d2, _ = decomps
    coeff_rows = []
    for part, off in ((d2.first, offsets[1]), (d1.first, 0), (d1.second, 0)):
        row = [0] * n
        for v, c in enumerate(part.coeffs):  # distinct v, distinct classes
            row[cls_of[off + v]] = c
        coeff_rows.append(tuple(row))
    return (tuple(tuple(w or 0 for w in r) for r in inter),
            tuple(coeff_rows))


@dataclass(frozen=True)
class CensusEntry(TriangleGraph):
    """A census triangle graph, its roles in type_sort_key order, with the
    rank and discriminant of its lattice."""
    rank: int
    disc: int
    variant: int = 0
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


def _raw_triangles(splittings=_orbit_first, funnel=None):
    """Consistent gluings as (types, intersection matrix, coeff rows),
    with the role types already in canonical sorted order.  Each fiber
    takes splittings(kind), by default its orbit-first splittings: a
    gluing from any other splitting has an isomorphic twin from the
    orbit-first one, earlier in this order (_decompositions gives the
    uncut loop).  funnel, a Counter, counts the attempts and the
    consistent ones."""
    if funnel is None:
        funnel = Counter()
    by_first = {}
    by_pair = {}
    # each splitting with the maps of diagram(dtype) onto its first and
    # its second part, as tuples of fiber vertices; gluing two copies of
    # a part identifies them position-wise
    all_decomps = []
    for kind in FIBER_KINDS:
        cfg = fiber_graph(kind)
        for d in splittings(kind):
            item = (d, *(diagram_maps(cfg, p.support, p.dtype)
                         for p in (d.first, d.second)))
            all_decomps.append(item)
            by_first.setdefault(d.first.dtype, []).append(item)
            by_pair.setdefault((d.first.dtype, d.second.dtype),
                               []).append(item)
    found = {}  # the distinct gluings, in order of appearance
    for d3, first3, second3 in all_decomps:  # fiber 3 carries (S_1, S_2)
        t1, t2 = d3.first.dtype, d3.second.dtype
        if type_sort_key(t1) > type_sort_key(t2):
            continue
        # fiber 2 carries (S_1, S_3)
        for d2, first2, second2 in by_first.get(t1, ()):
            t3 = d2.second.dtype
            if type_sort_key(t2) > type_sort_key(t3):
                continue
            # fiber 1 carries (S_2, S_3)
            for d1, first1, second1 in by_pair.get((t2, t3), ()):
                decomps = (d1, d2, d3)
                for o1 in first2:
                    for o2 in first1:
                        for o3 in second1:
                            glued = _glue_indexed(decomps, (
                                (o1, first3[0]), (o2, second3[0]),
                                (o3, second2[0])))
                            funnel["attempts"] += 1
                            if glued is None:
                                continue
                            funnel["consistent"] += 1
                            found[((t1, t2, t3), *glued)] = None
    return list(found)


def _make_entry(inter, coeffs):
    """The census entry of a raw gluing, or None when it fails the
    capacity check.  The gluing's roles come in type_sort_key order."""
    glued = CurveConfig(tuple(f"v{i}" for i in range(len(inter))), inter)
    divisors = tuple(Divisor(row, glued) for row in coeffs)
    tri = build_triangle(witnesses=divisors, ambient=glued)
    if not fibration_capacity_ok(tri):
        return None
    r, disc = rank_and_discriminant(glued.inter)
    return CensusEntry(**vars(tri), rank=r, disc=disc)


def _refine(colours, nbrs):
    """Coarsest equitable refinement of a vertex colouring, renumbered
    canonically: a vertex's next colour is its colour together with the
    multiset of (neighbour colour, edge weight) pairs."""
    cells = len(set(colours))
    while True:
        sigs = [(c, tuple(sorted((colours[u], w) for u, w in nb)))
                for c, nb in zip(colours, nbrs)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        refined = [rank[s] for s in sigs]
        if len(rank) == cells:
            return refined
        colours, cells = refined, len(rank)


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


def _leaf_certificates(gluing, nbrs, perm):
    """Each leaf's certificate, in _leaves order, with vertices coloured by
    their S-coefficients in role order perm: the types, and the colours
    and intersection matrix in leaf order.  Equal ones mean isomorphic
    gluings."""
    types, inter, coeffs = gluing
    labels = [tuple(coeffs[p][v] for p in perm) for v in range(len(inter))]
    for leaf in _leaves(_refine(labels, nbrs), nbrs):
        order = sorted(range(len(inter)), key=leaf.__getitem__)
        yield (types, tuple(labels[v] for v in order),
               tuple(tuple(inter[a][b] for b in order) for a in order))


def _first_of_each_class(gluings):
    """The first gluing of each isomorphism class, in input order;
    isomorphisms may relabel vertices and permute roles of equal type.

    Colour refinement plus individualisation, after McKay and Piperno,
    "Practical graph isomorphism II" (2014).  The index holds every leaf
    certificate of each class's first gluing in the identity role order.
    Both steps are equivariant, so a gluing isomorphic to it by a role
    permutation rho has its first leaf in the role order rho^-1 there.
    """
    index = set()
    firsts = []
    for gluing in gluings:
        types = gluing[0]
        nbrs = [[(u, w) for u, w in enumerate(r) if w > 0] for r in gluing[1]]
        # the identity comes first; its leaves go on to fill the index
        own, *others = (
            _leaf_certificates(gluing, nbrs, perm)
            for perm in permutations(range(3))
            if all(types[p] == t for p, t in zip(perm, types)))
        first = next(own)
        if first in index or any(next(c) in index for c in others):
            continue
        index.add(first)
        index.update(own)
        firsts.append(gluing)
    return firsts


def enumerate_triangles(max_components=MAX_COMPONENTS):
    """Census of triangle graphs up to isomorphism.

    For every triple of fibers (G_1, G_2, G_3), every ordered splitting
    of each that comes first in its Aut(G)-orbit, and every
    identification of the two copies of each S_k up to a diagram
    automorphism, attempt the gluing and keep the consistent results,
    deduplicated up to isomorphism respecting the (S_1, S_2, S_3)
    partition up to permutation.  Gluing only orbit-first splittings is
    the isomorph-free cut of McKay, "Isomorph-free exhaustive
    generation" (1998): the other splittings give only gluings
    isomorphic to earlier ones.  The deduplication is a class index of
    leaf certificates (_first_of_each_class): each class pays one full
    search and each duplicate one path, its first leaf per role order.
    Each class is represented by its first gluing in enumeration order;
    capacity, rank and discriminant are isomorphism invariants, so the
    entry is built for that gluing only.
    """
    kept = []
    # n is an isomorphism invariant, so the bound drops whole classes
    raw = [g for g in _raw_triangles() if len(g[1]) <= max_components]
    for _, inter, coeffs in _first_of_each_class(raw):
        entry = _make_entry(inter, coeffs)
        if entry is not None:
            kept.append(entry)
    kept.sort(key=lambda e: (
        tuple(type_sort_key(t) for t in e.types), e.glued.size(), e.disc))
    counts = {}
    final = []
    for e in kept:
        idx = counts.get(e.types, 0)
        counts[e.types] = idx + 1
        final.append(replace(e, variant=idx))
    return final


def discriminant_filter(census):
    """Keep |glued| >= 10, rank 10 and disc in {1, 4, 16}; annotate the
    rest."""
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


def _verdicts(e, completing):
    """The verdict of each row a filtered entry resolves into."""
    if isinstance(e.verdict, Excluded):
        return [e.verdict]
    ext = internal_extender(e)
    if ext is not None:
        return [Excluded(f"extends: {ext[1]}")]
    obs = extension_obstruction(e)
    if obs is None:
        return [Excluded("no extender found but obstruction inconclusive")]
    types = sorted(str(t) for t in e.types)
    names = [s.name for s in completing if sorted(s.claims["types"]) == types]
    if not names:
        return [Excluded(f"non-extendable but no completion known: {obs}")]
    return [Survivor(name) for name in names]


def derive_survivors(filtered):
    """Resolve every filtered entry into Excluded(...) or Survivor(...):
    a non-extendable entry survives once for each catalog surface that
    claims a non-extendable triangle of its types, complete listings
    first, then in file order."""
    completing = sorted((s for s in catalog.surfaces()
                         if s.claims.get("non_extendable")),
                        key=lambda s: not s.complete)
    return [replace(e, verdict=v)
            for e in filtered for v in _verdicts(e, completing)]
