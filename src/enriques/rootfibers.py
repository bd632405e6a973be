"""ADE and Kodaira (extended Dynkin) combinatorics.

The one table of diagram facts (root types of Kodaira fibers, star arm
lengths, and _diagram_edges, the one hand-written ADE layout) and what
reads it: recognition of curve configurations, the diagrams and the dual
graphs of Kodaira fibers derived from that layout, the maps of a diagram
onto a set of curves, and Artin's fundamental-cycle iteration, which
gives highest roots and null vectors.  A set of curves is an ascending
tuple of vertex indices.  One shape reader and one Artin iteration
recognise a set straight from the ambient configuration's adjacency,
with no subconfiguration: dynkin_divisor and fiber_divisor return the
type of one set and its cycle as a Divisor on the ambient configuration,
and root_subsets enumerates every ADE or affine connected set, pruned to
the sets that grow from ADE ones.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .config import CurveConfig, Divisor, connected, pairings


class NotDynkin(ValueError):
    pass


class NotAffine(ValueError):
    pass


@dataclass(frozen=True, order=True)
class DynkinType:
    family: str  # "A", "D" or "E"
    n: int

    def __post_init__(self):
        ok = (
            (self.family == "A" and self.n >= 1)
            or (self.family == "D" and self.n >= 4)
            or (self.family == "E" and self.n in (6, 7, 8))
        )
        if not ok:
            raise ValueError(f"invalid Dynkin type {self.family}{self.n}")

    def __str__(self):
        return f"{self.family}{self.n}"


# The Kodaira fibers with a fixed symbol, by root type: the Dynkin type
# spanned by the fiber components minus one.  Smooth fibers and II have
# none; the two families follow _FAMILY_SYMBOLS.
_FIXED_ROOTS = {
    "III": DynkinType("A", 1),
    "IV": DynkinType("A", 2),
    "IV*": DynkinType("E", 6),
    "III*": DynkinType("E", 7),
    "II*": DynkinType("E", 8),
}
# I_n has root type A_{n-1} and I_n* has D_{n+4}: the symbol's index is
# the rank plus the offset
_FAMILY_SYMBOLS = {"A": ("", 1), "D": ("*", -4)}
# arm lengths of the star-shaped fibers; the Dynkin diagram E_n is the
# same star with its longest arm one shorter
_STAR_ARMS = {"IV*": (2, 2, 2), "III*": (3, 3, 1), "II*": (5, 2, 1)}


@lru_cache(maxsize=None)
def _root_of(symbol):
    """Root type of a Kodaira symbol, None when there is none; ValueError
    when the string is no Kodaira symbol."""
    if symbol in _FIXED_ROOTS:
        return _FIXED_ROOTS[symbol]
    if symbol in ("smooth", "II"):
        return None
    for family, (suffix, offset) in _FAMILY_SYMBOLS.items():
        digits = symbol[1:len(symbol) - len(suffix)]
        if symbol == f"I{digits}{suffix}" and digits.isdigit():
            rank = int(digits) - offset
            if rank == 0:
                return None  # I1, a nodal curve
            if rank > 0:
                return DynkinType(family, rank)
    raise ValueError(f"invalid Kodaira symbol {symbol!r}")


@dataclass(frozen=True, order=True)
class KodairaType:
    symbol: str  # e.g. "I8", "I4*", "II*", "III", "smooth"

    def __post_init__(self):
        _root_of(self.symbol)

    def __str__(self):
        return self.symbol

    def root_type(self):
        """Dynkin type spanned by the fiber components minus one."""
        return _root_of(self.symbol)

    def is_multiplicative(self):
        """Whether the fiber is I_n, n >= 1: a nodal curve or a cycle of
        curves.  Every other singular kind is additive, III and IV too,
        although their root types are those of I2 and I3."""
        root = self.root_type()
        return self.symbol not in _FIXED_ROOTS and (
            root.family == "A" if root else self.symbol == "I1")


def _affine_kind(dtype, additive=False):
    """The Kodaira type whose components minus one span dtype; additive
    picks the tangent readings III and IV over I2 and I3."""
    for symbol, root in _FIXED_ROOTS.items():
        if root == dtype and (additive or dtype.family == "E"):
            return KodairaType(symbol)
    suffix, offset = _FAMILY_SYMBOLS[dtype.family]
    return KodairaType(f"I{dtype.n + offset}{suffix}")


def _dynkin_arms(arms):
    *rest, longest = sorted(arms)
    return tuple(sorted(rest + [longest - 1]))


# star shapes by arm lengths sorted short-to-long, as _tree_shape reports them
_AFFINE_STARS = {
    tuple(sorted(arms)): KodairaType(symbol)
    for symbol, arms in _STAR_ARMS.items()
}
_DYNKIN_STARS = {
    _dynkin_arms(arms): _FIXED_ROOTS[symbol]
    for symbol, arms in _STAR_ARMS.items()
}


def _nbrs(config, support):
    """The neighbours of each curve at the ascending indices support
    within the set: the set read off config with no subconfiguration.
    The shape and Artin code below take it with config, for the weights
    and tangent edges, and none of it depends on the order of the keys
    or of the lists."""
    adj = config.adj
    members = set(support)
    return {v: [u for u in adj[v] if u in members] for v in support}


def _multiple_edge(config, nbrs):
    inter = config.inter
    return any(inter[v][u] > 1 for v, near in nbrs.items() for u in near)


def _tangent(config, nbrs):
    return any(a in nbrs and b in nbrs for a, b in config.tangent_edges)


def _check_tree(config, nbrs):
    """NotDynkin unless the set is a simply laced tree."""
    if not connected(nbrs):
        raise NotDynkin("configuration is not connected")
    if _multiple_edge(config, nbrs):
        raise NotDynkin("multiple edge")
    if sum(map(len, nbrs.values())) != 2 * (len(nbrs) - 1):
        raise NotDynkin("configuration contains a cycle")


def _arm_length(nbrs, branch, first):
    """Length of the arm leaving branch through first, out to a leaf, or
    None when the walk meets another branch vertex."""
    length, prev, cur = 1, branch, first
    while len(nbrs[cur]) == 2:
        x, y = nbrs[cur]
        prev, cur = cur, (y if x == prev else x)
        length += 1
    return length if len(nbrs[cur]) == 1 else None


def _tree_shape(nbrs):
    """(branch count, arm lengths) of a tree.

    The branch vertices are those of valency above 2; an arm is the path
    from a branch vertex out to a leaf, and the lengths come sorted
    short-to-long.  A path has no branch vertex and is its own only arm.
    """
    branches = [v for v, near in nbrs.items() if len(near) > 2]
    if not branches:
        return 0, (len(nbrs),)
    arms = [length for b in branches for first in nbrs[b]
            if (length := _arm_length(nbrs, b, first))]
    return len(branches), tuple(sorted(arms))


def _tree_dynkin(nbrs):
    """ADE type of a simply laced tree, read off its shape, or NotDynkin:
    the one ADE shape classifier."""
    branches, lengths = _tree_shape(nbrs)
    n = len(nbrs)
    if not branches:
        return DynkinType("A", n)
    if branches > 1:
        raise NotDynkin("more than one branch vertex")
    if len(lengths) > 3:
        raise NotDynkin("vertex of valency greater than 3")
    if lengths[:2] == (1, 1):
        return DynkinType("D", n)
    if lengths in _DYNKIN_STARS:
        return _DYNKIN_STARS[lengths]
    raise NotDynkin(f"arm lengths {lengths} match no ADE diagram")


def _tree_kodaira(nbrs):
    """Kodaira type of a simply laced tree, read off its shape, or
    NotAffine."""
    branches, lengths = _tree_shape(nbrs)
    # four leaves next to the branch vertices: one of valency 4 (I0*) or
    # two of valency 3 at the ends of a chain
    if lengths == (1, 1, 1, 1):
        return _affine_kind(DynkinType("D", len(nbrs) - 1))
    if branches == 1 and lengths in _AFFINE_STARS:
        return _AFFINE_STARS[lengths]
    raise NotAffine(f"arm lengths {lengths} match no affine diagram")


def _kodaira_type(config, nbrs):
    """Kodaira type of a connected set, or NotAffine.

    I_2 vs III and I_3 vs IV are numerically identical; a tangent edge
    within the set decides the additive reading.
    """
    n = len(nbrs)
    if n == 2:
        a, b = nbrs
        if config.inter[a][b] != 2:
            raise NotAffine("two vertices must meet with multiplicity 2")
        return _affine_kind(DynkinType("A", 1), _tangent(config, nbrs))
    if all(len(near) == 2 for near in nbrs.values()):  # cycles, or no vertex
        if not connected(nbrs):
            raise NotAffine("configuration is not connected")
        if _multiple_edge(config, nbrs):
            raise NotAffine("multiple edge outside the 2-vertex case")
        return _affine_kind(DynkinType("A", n - 1),
                            n == 3 and _tangent(config, nbrs))
    try:
        _check_tree(config, nbrs)
    except NotDynkin as exc:
        raise NotAffine(str(exc)) from None
    return _tree_kodaira(nbrs)


def _whole(config):
    return _nbrs(config, range(config.size()))


# bound on Artin steps per component; no ADE or affine graph reaches it
# (see dynkin_divisor and null_vector)
ARTIN_STEPS_PER_COMPONENT = 30


def _artin(config, nbrs):
    """Artin's iteration on a set from the reduced sum Z of its
    components: add any component that still pairs positively with Z.
    The vector it stops at, as a Divisor on config, or None when it needs
    more steps than its bound.

    A step changes only the pairings of the bumped component and its
    neighbours, so only those are tested again.  Where the iteration
    stops, it stops at the least Z' >= Z with Z'.C <= 0 for every C, in
    sum(Z') - |S| steps whatever their order (Laufer), so the order of
    the steps decides neither the vector nor None.
    """
    inter = config.inter
    z = dict.fromkeys(nbrs, 1)
    pair = {j: sum(map(inter[j].__getitem__, near)) - 2
            for j, near in nbrs.items()}
    todo = [j for j, p in pair.items() if p > 0]  # each positive one once
    steps = ARTIN_STEPS_PER_COMPONENT * len(z)
    while todo:
        if not steps:
            return None
        steps -= 1
        j = todo.pop()
        z[j] += 1
        pair[j] -= 2
        if pair[j] > 0:
            todo.append(j)
        row = inter[j]
        for i in nbrs[j]:
            was = pair[i]
            pair[i] = was + row[i]
            if was <= 0 < pair[i]:
                todo.append(i)
    vec = [0] * config.size()
    for i, c in z.items():
        vec[i] = c
    return Divisor(tuple(vec), config)


def dynkin_divisor(config, support):
    """(ADE type, fundamental cycle as a Divisor on config) of the curves
    at the ascending indices support, or NotDynkin.

    The fundamental cycle is the least positive Z on the support with
    Z.R <= 0 for every R in it.  A connected configuration (diagonal -2,
    off-diagonal >= 0) is negative definite exactly when it is an ADE
    diagram, as its negation is then a Cartan matrix of finite type (Kac,
    Prop. 4.9), so the diagram's shape decides definiteness.  Artin's
    iteration then stops at Z within the highest-root coefficient total,
    which is at most 29 per component.
    """
    nbrs = _nbrs(config, support)
    _check_tree(config, nbrs)
    return _tree_dynkin(nbrs), _artin(config, nbrs)


def fundamental_cycle(config):
    """Fundamental cycle on all of config, or NotDynkin when config is
    not one connected ADE diagram."""
    return dynkin_divisor(config, range(config.size()))[1]


def null_vector(config):
    """Primitive positive kernel vector of an affine configuration's Gram,
    one coefficient per curve in config order.

    On an affine graph with null vector d, Artin's iteration never passes
    a z' with z'.C <= 0 for every C (Laufer), and by Zariski's lemma
    every such z' is a multiple of d, so it stops at d itself (d sums to
    at most 30, for II*).  The stop is certified: z.C == 0 for every C
    and gcd(z) == 1.  A connected graph with a strictly positive kernel
    vector is affine (Kac, Thm 4.3), so any other input fails the
    certificate or the step bound.
    """
    if not config.is_connected():
        raise NotAffine("configuration is not connected")
    z = _artin(config, _whole(config))
    if z is None:
        raise NotAffine("Artin iteration exceeded its step bound")
    if any(pairings(z.vec, config)) or gcd(*z.vec) != 1:
        raise NotAffine("Gram matrix has no primitive positive kernel vector")
    return z.vec


def fiber_divisor(config, support):
    """(Kodaira type, null vector as a Divisor on config) of the curves at
    the ascending indices support, or NotAffine.  Their shape is affine,
    so Artin's iteration stops at the null vector (see null_vector)."""
    nbrs = _nbrs(config, support)
    return _kodaira_type(config, nbrs), _artin(config, nbrs)


def root_subsets(config, family, max_size=None):
    """(support, kind, cycle as a Divisor on config) for every connected
    set of curves of at most max_size curves whose kind is of family:
    DynkinType with its fundamental cycle, or KodairaType with its null
    vector, as dynkin_divisor and fiber_divisor give them.

    The sets come by size, and lexicographically within a size, the
    order of divisors.connected_subsets, so a caller that stops at its
    first hit stops early.  Level k + 1 grows from the ADE sets of level
    k alone, each by one curve next to it.  That misses no ADE or affine
    set: such a set stays connected without some curve, and what remains
    is ADE, as every connected part of an ADE diagram is, and every
    proper connected part of an affine one.

    A level maps each set to its neighbour lists, or to None when it is
    no simply laced tree.  A set grown from an ADE tree by a curve u is
    one exactly when u meets the tree in one curve, with weight 1, and
    then its lists are the parent's plus u and only its shape is read.
    Any other grown set is no ADE set, and only KodairaType reads it.
    Each set is recognised once, and Artin's iteration runs for the sets
    of family only.
    """
    limit = config.size() if max_size is None else max_size
    level = {(v,): {v: []} for v in range(config.size())}
    for size in range(1, limit + 1):
        grown = {}
        for support in sorted(level):
            nbrs = level[support]
            try:
                if nbrs is None:  # no simply laced tree, so no ADE set
                    nbrs = _nbrs(config, support)
                    kind = _kodaira_type(config, nbrs)
                else:
                    try:
                        kind = _tree_dynkin(nbrs)
                    except NotDynkin:
                        if family is DynkinType:
                            continue
                        kind = _tree_kodaira(nbrs)
                    else:
                        if size < limit:
                            _grow(config, support, nbrs, grown,
                                  family is DynkinType)
            except NotAffine:
                continue
            if type(kind) is family:
                yield support, kind, _artin(config, nbrs)
        level = grown


def _grow(config, support, nbrs, grown, trees_only):
    """Add to grown each set of the ADE tree support (with lists nbrs)
    plus one curve next to it, mapped to its lists when it is a simply
    laced tree and to None otherwise; trees_only leaves out the others."""
    adj, inter = config.adj, config.inter
    meets = {}  # each curve next to the tree: the one curve it meets, or -1
    for v in support:
        for u in adj[v]:
            if u not in nbrs:
                meets[u] = -1 if u in meets else v
    for u, v in meets.items():
        tree = v >= 0 and inter[u][v] == 1
        if tree or not trees_only:
            child = tuple(sorted((*support, u)))
            if child not in grown:
                grown[child] = ({**nbrs, v: nbrs[v] + [u], u: [v]}
                                if tree else None)


def _diagram_edges(dtype):
    """Adjacency of the abstract diagram, the one hand-written ADE layout:
    edges (a, b) with a < b, vertices ordered so that every vertex after
    the first has exactly one edge back to an earlier one."""
    n = dtype.n
    if dtype.family == "A":
        return n, [(i, i + 1) for i in range(n - 1)]
    if dtype.family == "D":
        # 0 = branch vertex, 1 and 2 leaves, 3.. the long arm
        return n, ([(0, 1), (0, 2), (0, 3)]
                   + [(k, k + 1) for k in range(3, n - 1)])
    # E types: 0..n-2 the chain (branch vertex at index 2), n-1 the leaf
    edges = [(i, i + 1) for i in range(n - 2)]
    edges.append((2, n - 1))
    return n, edges


@lru_cache(maxsize=None)
def diagram(dtype):
    """The diagram of dtype as (-2)-curves t0, t1, ... in the vertex order
    of _diagram_edges; for E8 that is the chain c1..c7, then b."""
    n, edges = _diagram_edges(dtype)
    names = tuple(f"t{i}" for i in range(n))
    return CurveConfig.from_edges(names,
                                  [(names[a], names[b]) for a, b in edges])


@lru_cache(maxsize=None)
def fiber_graph(kind):
    """The dual graph of a Kodaira fiber: the diagram of its root type
    plus one last curve, which meets each C with weight -(Z.C) for the
    highest root Z, so that Z plus the curve is the fiber (Kac, ch. 4).
    That closes the cycle of I_n and doubles the edge of I2 and III."""
    rt = kind.root_type()
    if rt is None:
        return CurveConfig.from_edges(("t0",), [])
    base = diagram(rt)
    meet = [-x for x in pairings(fundamental_cycle(base).vec, base)]
    inter = [row + (x,) for row, x in zip(base.inter, meet)] + [(*meet, -2)]
    tangents = {(0, 1)} if kind.symbol in ("III", "IV") else set()
    return CurveConfig(tuple(f"t{i}" for i in range(len(inter))),
                       tuple(inter), frozenset(tangents))


def diagram_maps(config, support, dtype):
    """Every map of diagram(dtype) onto the curves at the ascending indices
    support, a diagram of type dtype, that sends edges to edges, as tuples
    of config indices.

    Each vertex of _diagram_edges after the first has one edge back to an
    earlier one, so the backtracking places it next to that one's image.
    The maps differ by a diagram automorphism, and each carries the
    highest root to the fundamental cycle of the support.
    """
    n, edges = _diagram_edges(dtype)
    earlier = {b: a for a, b in edges}
    out = []

    def extend(images):
        if len(images) == n:
            out.append(tuple(images))
            return
        near = config.adj[images[earlier[len(images)]]] if images else support
        for j in near:
            if j in support and j not in images:
                extend(images + [j])

    extend([])
    return tuple(out)
