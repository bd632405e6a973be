"""The indexed core: weighted dual graphs of (-2)-curves and divisors on them.

A CurveConfig is an intersection matrix over named curves: diagonal -2,
off-diagonal >= 0, where an entry 2 may mean either a double edge (two
transversal points) or a tangency; the two are told apart only by the
optional tangent-edge annotation, index pairs (i, j) with i < j.  Every
vertex is its position in ``names``, and a set of curves is an ascending
tuple of these indices: names are read only by from_edges, index, pair
and Divisor.from_map, and written only by Divisor.coeffs.  The
neighbour-index tuples (``adj``) are computed once, at construction.  A
Divisor is an integer coefficient vector aligned with its ambient
configuration's vertices, over a denominator of 1 or 2, so every pairing
is an integer sum.
"""

from dataclasses import dataclass, field
from fractions import Fraction


class AmbientMismatch(ValueError):
    pass


@dataclass(frozen=True)
class CurveConfig:
    names: tuple
    inter: tuple  # tuple of tuples, symmetric, diagonal -2
    tangent_edges: frozenset = field(default_factory=frozenset)
    # derived: neighbour indices per vertex
    adj: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.names)
        if len(self.inter) != n or any(len(row) != n for row in self.inter):
            raise ValueError("matrix size does not match curve count")
        if len(set(self.names)) != n:
            raise ValueError("curve names must be distinct")
        for i in range(n):
            if self.inter[i][i] != -2:
                raise ValueError("diagonal entries must be -2")
            for j in range(n):
                if self.inter[i][j] != self.inter[j][i]:
                    raise ValueError("intersection matrix must be symmetric")
                if i != j and self.inter[i][j] < 0:
                    raise ValueError("off-diagonal entries must be >= 0")
        object.__setattr__(self, "adj", tuple(
            tuple(j for j in range(n) if j != i and self.inter[i][j])
            for i in range(n)
        ))

    @staticmethod
    def from_edges(names, edges, tangent_edges=()):
        """Build from edges (name_a, name_b, weight) or (name_a, name_b),
        the weight defaulting to 1, and tangent edges given as pairs of
        curves, kept as index pairs; an edge or tangent edge that does not
        name two (distinct) curves, and an edge on a pair an earlier edge
        named, raise ValueError."""
        idx = {name: k for k, name in enumerate(names)}
        n = len(names)
        m = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
        named = set()
        for a, b, *w in edges:
            pair = frozenset((a, b))
            if len(pair) != 2 or not pair <= idx.keys():
                raise ValueError(
                    f"edge {[a, b, *w]} does not name two curves")
            if pair in named:
                raise ValueError(
                    f"edge {[a, b, *w]} repeats the curve pair of an "
                    "earlier edge")
            named.add(pair)
            m[idx[a]][idx[b]] = m[idx[b]][idx[a]] = w[0] if w else 1
        tangents = set()
        for t in tangent_edges:
            pair = frozenset(t)
            if len(pair) != 2 or not pair <= idx.keys():
                raise ValueError(f"tangent edge {list(t)} does not name"
                                 " two distinct curves")
            tangents.add(tuple(sorted(idx[c] for c in pair)))
        return CurveConfig(tuple(names), tuple(tuple(r) for r in m),
                           frozenset(tangents))

    def size(self):
        return len(self.names)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown curve {name!r}") from None

    def pair(self, a, b):
        return self.inter[self.index(a)][self.index(b)]

    def subconfig(self, idxs):
        """Induced configuration on the curves at the ascending indices
        idxs, renumbered 0, 1, ... in that order."""
        new = {old: k for k, old in enumerate(idxs)}
        return CurveConfig(
            tuple(self.names[i] for i in idxs),
            tuple(tuple(self.inter[i][j] for j in idxs) for i in idxs),
            frozenset((new[a], new[b]) for a, b in self.tangent_edges
                      if a in new and b in new))


def connected(nbrs):
    """Whether the graph with the neighbour lists nbrs, a dict from each
    vertex to its neighbours, is connected and not empty."""
    if not nbrs:
        return False
    stack = [next(iter(nbrs))]
    seen = set(stack)
    while stack:
        for j in nbrs[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(nbrs)


@dataclass(frozen=True)
class Divisor:
    """The class D/den of an integer combination D of the ambient curves,
    with den 1 or 2.

    ``vec`` holds the integer coefficients of D in ambient order.  A
    half-fiber is half its fiber, so 2 is the only denominator a class
    needs and every pairing stays an integer sum.  The class is kept
    reduced: den is 2 only when some coefficient is odd, so equal classes
    compare equal.
    """

    vec: tuple  # ints, one per ambient curve, in ambient order
    ambient: CurveConfig
    den: int = 1

    def __post_init__(self):
        if len(self.vec) != self.ambient.size():
            raise ValueError("coefficient vector does not match curve count")
        if self.den not in (1, 2):
            raise ValueError(f"denominator {self.den!r} is not 1 or 2")
        if self.den == 2 and not any(c % 2 for c in self.vec):
            object.__setattr__(self, "vec", tuple(c // 2 for c in self.vec))
            object.__setattr__(self, "den", 1)

    @staticmethod
    def from_map(mapping, ambient):
        unknown = set(mapping).difference(ambient.names)
        if unknown:
            raise ValueError(f"unknown curves: {sorted(unknown)}")
        return Divisor(
            tuple(mapping.get(name, 0) for name in ambient.names), ambient
        )

    @property
    def coeffs(self):
        """The nonzero (name, coeff) pairs of vec, in ambient order."""
        return tuple(
            (name, c) for name, c in zip(self.ambient.names, self.vec) if c
        )

    def support(self):
        """The indices of the curves with a nonzero coefficient, ascending."""
        return tuple(i for i, c in enumerate(self.vec) if c)

    def __add__(self, other):
        """The exact sum, over the larger of the two denominators."""
        if other.ambient is not self.ambient and other.ambient != self.ambient:
            raise AmbientMismatch("divisors live on different configurations")
        den = max(self.den, other.den)
        a, b = den // self.den, den // other.den
        vec = tuple(a * x + b * y for x, y in zip(self.vec, other.vec))
        return Divisor(vec, self.ambient, den)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        return Divisor(tuple(k * c for c in self.vec), self.ambient, self.den)

    def pairing_vector(self):
        """Products against every ambient curve, in ambient order: ints,
        and an exact Fraction where a half class meets a curve oddly."""
        pv = pairings(self.vec, self.ambient)
        if self.den == 1:
            return pv
        return tuple(x // 2 if x % 2 == 0 else Fraction(x, 2) for x in pv)


def pairings(vec, ambient):
    """inter . vec for an integer vector, summed over its nonzero entries."""
    inter = ambient.inter
    adj = ambient.adj
    out = [0] * len(vec)
    for i, c in enumerate(vec):
        if c:
            row = inter[i]
            out[i] += c * row[i]
            for j in adj[i]:
                out[j] += c * row[j]
    return tuple(out)


def intersect(a, b):
    """Bilinear pairing of two classes on one configuration.

    An int when the value is integral, else an exact Fraction.
    """
    ambient = a.ambient
    if b.ambient is not ambient and b.ambient != ambient:
        raise AmbientMismatch("mixed ambients in pairing")
    total = sum(x * y for x, y in zip(a.vec, pairings(b.vec, ambient)) if x)
    den = a.den * b.den
    if total % den == 0:
        return total // den
    return Fraction(total, den)
