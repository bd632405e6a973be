"""Sequences of half-fiber classes, specialness witnesses and triangles.

A 3-sequence (F_1, F_2, F_3) is special when some F_i + F_j - F_k is
effective; the witnesses S_k are fundamental cycles of negative definite
subconfigurations and assemble into the triangle graph, whose structure
drives the whole classification.
"""

from dataclasses import dataclass

from .config import CurveConfig, Divisor, intersect, pairings
from .rootfibers import (
    KodairaType,
    NotAffine,
    NotDynkin,
    dynkin_divisor,
    fiber_divisor,
    root_subsets,
)


# the most components of a triangle graph, and of a fiber
MAX_COMPONENTS = 11
MAX_FIBER_COMPONENTS = 9
# the other two indices (i, j) of each index k = 0, 1, 2 of a triple
OTHER_TWO = ((1, 2), (0, 2), (0, 1))


class InvariantViolation(ValueError):
    pass


def connected_subsets(config, min_size=1, max_size=None):
    """All connected vertex subsets as ascending index tuples, ordered by
    size and then lexicographically: the reference that
    rootfibers.root_subsets is checked against.

    Every subset is grown exactly once, from its least vertex, over the
    adjacency lists (ESU, after Wernicke, "Efficient detection of network
    motifs", 2006): a set takes one frontier vertex at a time, and the
    frontier gains only the larger-than-seed neighbours of that vertex
    that were not yet in or next to the set.
    """
    n = config.size()
    if max_size is None:
        max_size = n
    if max_size < 1:
        return []
    adj = config.adj
    found = []

    def grow(subset, frontier, closed, seed):
        if len(subset) >= min_size:
            found.append(tuple(sorted(subset)))
        if len(subset) == max_size:
            return
        while frontier:
            w = frontier.pop()
            fresh = [u for u in adj[w] if u > seed and u not in closed]
            grow(subset + [w], frontier + fresh, closed.union(fresh), seed)

    for v in range(n):
        grow([v], [u for u in adj[v] if u > v], {v, *adj[v]}, v)
    found.sort(key=lambda s: (len(s), s))
    return found


def is_c_sequence(classes):
    """Pairwise product 1, self product 0; that the classes are
    half-fibers is the caller's guarantee."""
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            want = 0 if i == j else 1
            if intersect(a, b) != want:
                return False
    return True


def _witness_targets(F):
    """The pairing vectors of F_i + F_j - F_k, k = 0, 1, 2; an entry that
    is not integral is an exact Fraction, which no divisor's pairing is."""
    return [(F[i] + F[j] - F[k]).pairing_vector()
            for k, (i, j) in enumerate(OTHER_TWO)]


def cycle_with_pairings(ambient, t):
    """The fundamental cycle, on some connected negative definite set of
    curves, whose pairing vector is t, or None; there is at most one.

    Such a cycle Z pairs <= 0 with each curve of its support S, > 0 with
    exactly the curves next to S, and Z.Z = -2 < 0.  So S is the connected
    component, within the curves C with t.C <= 0, of any curve with
    t.C < 0, and no search over subsets is needed.
    """
    low = {c for c, x in enumerate(t) if x <= 0}
    stack = [c for c in low if t[c] < 0][:1]
    if not stack:
        return None
    seen = set(stack)
    while stack:
        for u in ambient.adj[stack.pop()]:
            if u in low and u not in seen:
                seen.add(u)
                stack.append(u)
    try:
        _, d = dynkin_divisor(ambient, tuple(sorted(seen)))
    except NotDynkin:
        return None
    return d if pairings(d.vec, ambient) == t else None


def specialness_witness(F, ambient):
    """A dict k -> S for every k such that some effective divisor S has
    [S] = F_i + F_j - F_k, with {i, j} the other two indices.

    The witnesses range over fundamental cycles of connected negative
    definite subconfigurations, which exhausts the possible ones, and
    cycle_with_pairings finds the one with the pairings of the class.
    """
    cycles = [cycle_with_pairings(ambient, t) for t in _witness_targets(F)]
    return {k: d for k, d in enumerate(cycles) if d is not None}


@dataclass(frozen=True)
class TriangleGraph:
    S: tuple  # three Divisors on the glued configuration
    types: tuple  # three DynkinType
    G: tuple  # the three fibers G_i = S_j + S_k = 2F_i
    glued: CurveConfig


def build_triangle(witnesses, ambient, F=None):
    """Assemble and validate the triangle graph from the witnesses S_k, a
    triple of Divisors on ambient; when F is given, [S_k] = F_i + F_j - F_k
    is verified as well.
    """
    if len(witnesses) != 3:
        raise InvariantViolation("three witnesses are required")
    support = sorted(set().union(*[d.support() for d in witnesses]))
    glued = ambient.subconfig(support)
    S = tuple(Divisor(tuple(d.vec[i] for i in support), glued)
              for d in witnesses)

    if F is not None:
        for k, (d, t) in enumerate(zip(witnesses, _witness_targets(F))):
            if pairings(d.vec, d.ambient) != t:
                i, j = OTHER_TWO[k]
                raise InvariantViolation(
                    f"[S_{k+1}] != F_{i+1} + F_{j+1} - F_{k+1}")
    types = []
    for k, s in enumerate(S):
        if intersect(s, s) != -2:
            raise InvariantViolation(f"S_{k+1}^2 != -2")
        dtype, z = dynkin_divisor(glued, s.support())
        if z != s:
            raise InvariantViolation(
                f"S_{k+1} is not the fundamental cycle of its support"
            )
        types.append(dtype)
    for a in range(3):
        for b in range(a + 1, 3):
            if intersect(S[a], S[b]) != 2:
                raise InvariantViolation(f"S_{a+1}.S_{b+1} != 2")
    G = tuple(S[j] + S[k] for j, k in OTHER_TWO)
    for (j, k), g in zip(OTHER_TWO, G):
        try:
            _, null = fiber_divisor(glued, g.support())
        except NotAffine as exc:
            raise InvariantViolation(
                f"S_{j+1} + S_{k+1} is not a fiber: {exc}")
        if null != g:
            raise InvariantViolation(
                f"S_{j+1} + S_{k+1} does not carry fiber multiplicities"
            )
    if glued.size() > MAX_COMPONENTS:
        raise InvariantViolation(
            f"triangle graph has more than {MAX_COMPONENTS} components")
    return TriangleGraph(S, tuple(types), G, glued)


def fibration_capacity_ok(t):
    """Bound on vertical components of each half-fiber pencil.

    Every component orthogonal to F_i lies in a fiber of |2F_i|, and a
    genus one pencil carries at most 8 + s components within s fibers.
    G_i accounts for one whole fiber, so its components plus the further
    orthogonal ones can be at most MAX_FIBER_COMPONENTS.
    """
    for g in t.G:
        pv = pairings(g.vec, t.glued)
        extra = sum(1 for c, x in zip(g.vec, pv) if not c and not x)
        if len(g.support()) + extra > MAX_FIBER_COMPONENTS:
            return False
    return True


@dataclass(frozen=True)
class Obstruction:
    reason: str

    def __str__(self):
        return f"NonExtendable({self.reason})"


def extension_obstruction(t):
    """Sound sufficient criterion for non-extendability of the 3-sequence.

    A fourth half-fiber would meet each S_k in a simple component that
    carries multiplicity <= 1 in the other two witnesses; the criterion
    fires when some S_k has no simple component at all, or when every
    simple component of some S_k sits with multiplicity >= 2 inside
    another S_l.  Returns the Obstruction that fired, or None when the
    criterion is inconclusive.
    """
    for k in range(3):
        simple = [i for i, c in enumerate(t.S[k].vec) if c == 1]
        if not simple:
            return Obstruction(f"no simple component in S_{k+1}")
        if all(any(t.S[l].vec[i] >= 2 for l in OTHER_TWO[k])
               for i in simple):
            return Obstruction(
                f"every simple component of S_{k+1} has multiplicity >= 2 "
                "in another S"
            )
    return None


def internal_extender(t):
    """Affine subconfiguration whose class meets every F_i once, that is
    every G_i = 2F_i twice, or None.

    Returns (Divisor, KodairaType) for the first extender found in
    root_subsets order.
    """
    fibers = [pairings(g.vec, t.glued) for g in t.G]
    for _, kind, d in root_subsets(t.glued, KodairaType):
        if all(sum(c * x for c, x in zip(d.vec, pv)) == 2 for pv in fibers):
            return d, kind
    return None
