"""Sequences of half-fiber classes, specialness witnesses and triangles.

A 3-sequence (F_1, F_2, F_3) is special when some F_i + F_j - F_k is
effective; the witnesses S_k are fundamental cycles of negative definite
subconfigurations and assemble into the triangle graph, whose structure
drives the whole classification.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .config import CurveConfig, Divisor, NumClass, intersect
from .rootfibers import (
    DynkinType,
    KodairaType,
    NonDefinite,
    NotAffine,
    affine_shape,
    classify_dynkin,
    fundamental_cycle,
)


class InvariantViolation(ValueError):
    pass


def connected_subsets(config, min_size=1, max_size=None):
    """All connected vertex subsets as name tuples, ordered by size and
    then by ambient index.

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
    return [tuple(config.names[i] for i in s) for s in found]


def is_c_sequence(classes):
    """Pairwise product 1, self product 0, all flagged as half-fibers."""
    if not all(c.half_fiber_flag for c in classes):
        return False
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            want = 0 if i == j else 1
            if intersect(a, b) != want:
                return False
    return True


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: str = ""

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class DegenerateSequence:
    blocks: tuple  # ((half_fiber: NumClass, chain: tuple of curve names), ...)
    ambient: CurveConfig


def validate_degenerate_sequence(seq):
    """The four defining conditions of a degenerate sequence of half-fibers."""
    blocks = seq.blocks
    config = seq.ambient
    fibers = [f for f, _ in blocks]
    for i, a in enumerate(fibers):
        for j, b in enumerate(fibers):
            want = 0 if i == j else 1
            if intersect(a, b) != want:
                return ValidationResult(
                    False, f"condition (1): F_{i+1}.F_{j+1} != {want}"
                )
    for i, (_, chain) in enumerate(blocks):
        for j in range(len(chain) - 1):
            if config.pair(chain[j], chain[j + 1]) != 1:
                return ValidationResult(
                    False,
                    f"condition (2): R_{i+1},{j+1}.R_{i+1},{j+2} != 1",
                )
    all_positions = [
        (i, j, name)
        for i, (_, chain) in enumerate(blocks)
        for j, name in enumerate(chain)
    ]
    for (i1, j1, r1), (i2, j2, r2) in combinations(all_positions, 2):
        if i1 == i2 and abs(j1 - j2) == 1:
            continue
        if config.pair(r1, r2) != 0:
            return ValidationResult(
                False,
                f"condition (3): {r1} meets {r2} outside chain adjacency",
            )
    for i, (_, chain) in enumerate(blocks):
        for k, f in enumerate(fibers):
            for j, name in enumerate(chain):
                want = 1 if (k == i and j == 0) else 0
                vec = f.pairing_vector()
                got = vec[config.index(name)]
                if got != want:
                    return ValidationResult(
                        False,
                        f"condition (4): F_{k+1}.R_{i+1},{j+1} = {got} != {want}",
                    )
    return ValidationResult(True)


@dataclass(frozen=True)
class Witness:
    divisor: Divisor
    k: int  # [divisor] = F_i + F_j - F_k with {i, j} the other two indices


def _class_minus(f, i, j, k):
    vec = tuple(
        f[i].vec[t] + f[j].vec[t] - f[k].vec[t] for t in range(len(f[i].vec))
    )
    return NumClass(vec, f[i].ambient)


def specialness_witness(F, ambient, all_permutations=False):
    """Effective divisor S with [S] = F_i + F_j - F_k, or None.

    The search ranges over fundamental cycles of connected negative
    definite subconfigurations, which exhausts the possible witnesses.
    With all_permutations=True, a dict k -> Witness for every k that
    admits one.
    """
    targets = {}
    for k in range(3):
        i, j = [t for t in range(3) if t != k]
        targets[k] = _class_minus(F, i, j, k).pairing_vector()
    found = {}
    for subset in connected_subsets(ambient):
        try:
            z = fundamental_cycle(ambient.subconfig(subset))
        except NonDefinite:
            continue
        z_amb = Divisor.from_map(dict(z.coeffs), ambient)
        pv = NumClass.from_divisor(z_amb).pairing_vector()
        for k in range(3):
            if k not in found and pv == targets[k]:
                found[k] = Witness(z_amb, k)
        if not all_permutations and found:
            break
    if all_permutations:
        return found
    if not found:
        return None
    return found[min(found)]


@dataclass(frozen=True)
class TriangleGraph:
    S: tuple  # three Divisors on the glued configuration
    types: tuple  # three DynkinType
    G_types: tuple  # three KodairaType; G_i = S_j + S_k
    glued: CurveConfig


def build_triangle(F=None, witnesses=None, ambient=None):
    """Assemble and validate the triangle graph from the witnesses S_k.

    The S_k may be passed directly as a triple of Divisors; when F is
    given, [S_k] = F_i + F_j - F_k is verified as well.
    """
    if witnesses is None or len(witnesses) != 3:
        raise InvariantViolation("three witnesses are required")
    divisors = [
        w.divisor if isinstance(w, Witness) else w for w in witnesses
    ]
    if ambient is None:
        ambient = divisors[0].ambient
    glued = ambient.subconfig(set().union(*[d.support() for d in divisors]))
    S = tuple(Divisor.from_map(dict(d.coeffs), glued) for d in divisors)

    if F is not None:
        for k in range(3):
            i, j = [t for t in range(3) if t != k]
            target = _class_minus(F, i, j, k).pairing_vector()
            got = NumClass.from_divisor(divisors[k]).pairing_vector()
            if got != target:
                raise InvariantViolation(
                    f"[S_{k+1}] != F_{i+1} + F_{j+1} - F_{k+1}"
                )
    types = []
    for k, s in enumerate(S):
        if intersect(s, s) != -2:
            raise InvariantViolation(f"S_{k+1}^2 != -2")
        sub = glued.subconfig(s.support())
        dtype = classify_dynkin(sub)
        z = fundamental_cycle(sub)
        if dict(z.coeffs) != dict(s.coeffs):
            raise InvariantViolation(
                f"S_{k+1} is not the fundamental cycle of its support"
            )
        types.append(dtype)
    for a in range(3):
        for b in range(a + 1, 3):
            if intersect(S[a], S[b]) != 2:
                raise InvariantViolation(f"S_{a+1}.S_{b+1} != 2")
    g_types = []
    for i in range(3):
        j, k = [t for t in range(3) if t != i]
        g = S[j] + S[k]
        sub = glued.subconfig(g.support())
        try:
            shape = affine_shape(sub)
        except NotAffine as exc:
            raise InvariantViolation(f"S_{j+1} + S_{k+1} is not a fiber: {exc}")
        if shape.mult_map() != dict(g.coeffs):
            raise InvariantViolation(
                f"S_{j+1} + S_{k+1} does not carry fiber multiplicities"
            )
        g_types.append(shape.kind)
    if glued.size() > 11:
        raise InvariantViolation("triangle graph has more than 11 components")
    return TriangleGraph(S, tuple(types), tuple(g_types), glued)


def fibration_capacity_ok(t):
    """Bound on vertical components of each half-fiber pencil.

    Every component orthogonal to F_i lies in a fiber of |2F_i|, and a
    genus one pencil carries at most 8 + s components within s fibers.
    G_i accounts for one whole fiber, so the rank of its root type plus
    the number of further orthogonal components can be at most 8.
    """
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        g = t.S[j] + t.S[k]
        supp = g.support()
        gvec = g.as_vector()
        names = t.glued.names
        inter = t.glued.inter
        n = len(names)
        extra = 0
        for idx, name in enumerate(names):
            if name in supp:
                continue
            if sum(inter[idx][m] * gvec[m] for m in range(n)) == 0:
                extra += 1
        if (len(supp) - 1) + extra > 8:
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
    shapes = [
        {name for name, c in s.coeffs if c == 1} for s in t.S
    ]
    for k in range(3):
        simple = shapes[k]
        if not simple:
            return Obstruction(f"no simple component in S_{k+1}")
        clash = True
        for name in simple:
            if all(t.S[l].coeff(name) < 2 for l in range(3) if l != k):
                clash = False
                break
        if clash:
            return Obstruction(
                f"every simple component of S_{k+1} has multiplicity >= 2 "
                "in another S"
            )
    return None


def half_fiber_classes(t):
    """The classes F_i = (S_j + S_k)/2 on the glued configuration."""
    out = []
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        g = t.S[j] + t.S[k]
        vec = tuple(Fraction(c, 2) for c in g.as_vector())
        out.append(NumClass(vec, t.glued, primitive_flag=True,
                            half_fiber_flag=True))
    return out


def internal_extender(t):
    """Affine subconfiguration whose class meets every F_i once, or None.

    Returns (NumClass, KodairaType) for the first extender found in the
    canonical subset order.
    """
    fibers = half_fiber_classes(t)
    for subset in connected_subsets(t.glued, min_size=2):
        sub = t.glued.subconfig(subset)
        try:
            shape = affine_shape(sub)
        except NotAffine:
            continue
        d = Divisor.from_map(shape.mult_map(), t.glued)
        cls = NumClass.from_divisor(d).flagged(half_fiber=True, primitive=True)
        if all(intersect(cls, f) == 1 for f in fibers):
            return cls, shape.kind
    return None
