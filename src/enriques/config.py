"""The indexed core: weighted dual graphs of (-2)-curves and divisors on them.

A CurveConfig is an intersection matrix over named curves: diagonal -2,
off-diagonal >= 0, where an entry 2 may mean either a double edge (two
transversal points) or a tangency; the two are told apart only by the
optional tangent-edge annotation.  The names are labels only: every
vertex is its position in ``names``, and the name-to-index map and the
neighbour-index tuples (``adj``) are computed once, at construction,
next to the validation.  A Divisor is a coefficient vector aligned with
its ambient configuration's vertices.
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
    # derived in __post_init__: name -> index, and neighbour indices per vertex
    _pos: dict = field(init=False, repr=False, compare=False)
    adj: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.names)
        if len(self.inter) != n or any(len(row) != n for row in self.inter):
            raise ValueError("matrix size does not match curve count")
        pos = {name: k for k, name in enumerate(self.names)}
        if len(pos) != n:
            raise ValueError("curve names must be distinct")
        for i in range(n):
            if self.inter[i][i] != -2:
                raise ValueError("diagonal entries must be -2")
            for j in range(n):
                if self.inter[i][j] != self.inter[j][i]:
                    raise ValueError("intersection matrix must be symmetric")
                if i != j and self.inter[i][j] < 0:
                    raise ValueError("off-diagonal entries must be >= 0")
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "adj", tuple(
            tuple(j for j in range(n) if j != i and self.inter[i][j])
            for i in range(n)
        ))

    @staticmethod
    def from_edges(names, edges, tangent_edges=()):
        """Build from a list of (name_a, name_b, weight) or (name_a, name_b)."""
        idx = {name: k for k, name in enumerate(names)}
        n = len(names)
        m = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
        for edge in edges:
            a, b = edge[0], edge[1]
            w = edge[2] if len(edge) > 2 else 1
            m[idx[a]][idx[b]] = w
            m[idx[b]][idx[a]] = w
        tangents = frozenset(frozenset((a, b)) for a, b in tangent_edges)
        return CurveConfig(tuple(names), tuple(tuple(r) for r in m), tangents)

    def size(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._pos[name]
        except KeyError:
            raise ValueError(f"unknown curve {name!r}") from None

    def pair(self, a, b):
        return self.inter[self.index(a)][self.index(b)]

    def neighbors(self, name):
        return [self.names[j] for j in self.adj[self.index(name)]]

    def degree(self, name):
        i = self.index(name)
        return sum(self.inter[i][j] for j in self.adj[i])

    def is_tangent(self, a, b):
        return frozenset((a, b)) in self.tangent_edges

    def subconfig(self, support):
        """Induced configuration on a subset of curves, in ambient order."""
        support = set(support)
        unknown = support.difference(self._pos)
        if unknown:
            raise ValueError(f"unknown curves: {sorted(unknown)}")
        idxs = sorted(self._pos[name] for name in support)
        m = tuple(tuple(self.inter[i][j] for j in idxs) for i in idxs)
        tangents = frozenset(t for t in self.tangent_edges if t <= support)
        return CurveConfig(tuple(self.names[i] for i in idxs), m, tangents)

    def is_connected(self):
        if not self.names:
            return False
        seen = {0}
        stack = [0]
        while stack:
            for j in self.adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == len(self.names)

    def to_json(self):
        return {
            "curves": list(self.names),
            "inter": [[int(x) for x in row] for row in self.inter],
        }

    @staticmethod
    def from_json(data):
        tangents = frozenset(
            frozenset(pair) for pair in data.get("tangent_edges", [])
        )
        return CurveConfig(
            tuple(data["curves"]),
            tuple(tuple(int(x) for x in row) for row in data["inter"]),
            tangents,
        )


@dataclass(frozen=True)
class Divisor:
    """Integer combination of the ambient curves."""

    vec: tuple  # one coefficient per ambient curve, in ambient order
    ambient: CurveConfig

    def __post_init__(self):
        if len(self.vec) != self.ambient.size():
            raise ValueError("coefficient vector does not match curve count")

    @staticmethod
    def from_map(mapping, ambient):
        unknown = set(mapping).difference(ambient._pos)
        if unknown:
            raise ValueError(f"unknown curves: {sorted(unknown)}")
        return Divisor(
            tuple(mapping.get(name, 0) for name in ambient.names), ambient
        )

    @property
    def coeffs(self):
        """The nonzero (name, coeff) pairs, in ambient order."""
        return tuple(
            (name, c) for name, c in zip(self.ambient.names, self.vec) if c
        )

    def coeff(self, name):
        i = self.ambient._pos.get(name)
        return 0 if i is None else self.vec[i]

    def support(self):
        return frozenset(name for name, _ in self.coeffs)

    def as_vector(self):
        return list(self.vec)

    def __add__(self, other):
        if other.ambient is not self.ambient and other.ambient != self.ambient:
            raise AmbientMismatch("divisors live on different configurations")
        return Divisor(
            tuple(a + b for a, b in zip(self.vec, other.vec)), self.ambient
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        return Divisor(tuple(k * c for c in self.vec), self.ambient)

    def is_effective(self):
        return all(c >= 0 for c in self.vec)


@dataclass(frozen=True)
class NumClass:
    """Rational class in the span of the ambient curves."""

    vec: tuple  # tuple of Fraction, indexed by ambient.names
    ambient: CurveConfig
    primitive_flag: bool = False
    half_fiber_flag: bool = False

    @staticmethod
    def from_divisor(d, scale=1):
        vec = tuple(Fraction(c) * scale for c in d.vec)
        return NumClass(vec, d.ambient)

    def flagged(self, primitive=None, half_fiber=None):
        return NumClass(
            self.vec,
            self.ambient,
            self.primitive_flag if primitive is None else primitive,
            self.half_fiber_flag if half_fiber is None else half_fiber,
        )

    def pairing_vector(self):
        """Products against every ambient curve, in ambient order."""
        inter = self.ambient.inter
        n = len(self.vec)
        return tuple(
            sum(self.vec[i] * inter[i][j] for i in range(n)) for j in range(n)
        )

    def is_nef(self):
        return all(x >= 0 for x in self.pairing_vector())


def _as_vec(x, ambient):
    if not isinstance(x, (Divisor, NumClass)):
        raise TypeError(f"cannot pair object of type {type(x)!r}")
    if x.ambient != ambient:
        raise AmbientMismatch("mixed ambients in pairing")
    return x.vec


def intersect(a, b):
    """Bilinear pairing of divisors / numerical classes on one configuration."""
    ambient = a.ambient
    va = _as_vec(a, ambient)
    vb = _as_vec(b, ambient)
    inter = ambient.inter
    n = len(va)
    total = sum(
        va[i] * inter[i][j] * vb[j] for i in range(n) for j in range(n) if inter[i][j]
    )
    if isinstance(total, int):
        return total
    if total.denominator == 1:
        return int(total)
    return total
