"""Weighted dual graphs of (-2)-curves and divisors supported on them.

A CurveConfig is an intersection matrix over named curves: diagonal -2,
off-diagonal >= 0, where an entry 2 may mean either a double edge (two
transversal points) or a tangency; the two are told apart only by the
optional tangent-edge annotation.
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

    def __post_init__(self):
        n = len(self.names)
        if len(self.inter) != n:
            raise ValueError("matrix size does not match curve count")
        for i in range(n):
            if self.inter[i][i] != -2:
                raise ValueError("diagonal entries must be -2")
            for j in range(n):
                if self.inter[i][j] != self.inter[j][i]:
                    raise ValueError("intersection matrix must be symmetric")
                if i != j and self.inter[i][j] < 0:
                    raise ValueError("off-diagonal entries must be >= 0")

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
        return self.names.index(name)

    def pair(self, a, b):
        return self.inter[self.index(a)][self.index(b)]

    def neighbors(self, name):
        i = self.index(name)
        return [self.names[j] for j in range(len(self.names))
                if j != i and self.inter[i][j] != 0]

    def degree(self, name):
        i = self.index(name)
        return sum(self.inter[i][j] for j in range(len(self.names)) if j != i)

    def is_tangent(self, a, b):
        return frozenset((a, b)) in self.tangent_edges

    def subconfig(self, support):
        """Induced configuration on a subset of curves, in ambient order."""
        support = set(support)
        unknown = support.difference(self.names)
        if unknown:
            raise ValueError(f"unknown curves: {sorted(unknown)}")
        keep = [name for name in self.names if name in support]
        idxs = [self.index(name) for name in keep]
        m = tuple(tuple(self.inter[i][j] for j in idxs) for i in idxs)
        tangents = frozenset(t for t in self.tangent_edges if t <= support)
        return CurveConfig(tuple(keep), m, tangents)

    def is_connected(self):
        if not self.names:
            return False
        seen = {self.names[0]}
        stack = [self.names[0]]
        while stack:
            for other in self.neighbors(stack.pop()):
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
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
    """Finitely supported integer combination of the ambient curves."""

    coeffs: tuple  # ((name, coeff), ...) sorted by ambient order
    ambient: CurveConfig

    @staticmethod
    def from_map(mapping, ambient):
        unknown = set(mapping) - set(ambient.names)
        if unknown:
            raise ValueError(f"unknown curves: {sorted(unknown)}")
        items = tuple(
            (name, mapping[name]) for name in ambient.names
            if mapping.get(name, 0) != 0
        )
        return Divisor(items, ambient)

    def coeff(self, name):
        return dict(self.coeffs).get(name, 0)

    def support(self):
        return frozenset(name for name, _ in self.coeffs)

    def as_vector(self):
        m = dict(self.coeffs)
        return [m.get(name, 0) for name in self.ambient.names]

    def __add__(self, other):
        if other.ambient is not self.ambient and other.ambient != self.ambient:
            raise AmbientMismatch("divisors live on different configurations")
        m = dict(self.coeffs)
        for name, c in other.coeffs:
            m[name] = m.get(name, 0) + c
        return Divisor.from_map(m, self.ambient)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        return Divisor.from_map({n: k * c for n, c in self.coeffs}, self.ambient)

    def is_effective(self):
        return all(c > 0 for _, c in self.coeffs)


@dataclass(frozen=True)
class NumClass:
    """Rational class in the span of the ambient curves."""

    vec: tuple  # tuple of Fraction, indexed by ambient.names
    ambient: CurveConfig
    primitive_flag: bool = False
    half_fiber_flag: bool = False

    @staticmethod
    def from_divisor(d, scale=1):
        vec = tuple(Fraction(c) * scale for c in d.as_vector())
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
    if isinstance(x, Divisor):
        if x.ambient != ambient:
            raise AmbientMismatch("mixed ambients in pairing")
        return x.as_vector()
    if isinstance(x, NumClass):
        if x.ambient != ambient:
            raise AmbientMismatch("mixed ambients in pairing")
        return list(x.vec)
    raise TypeError(f"cannot pair object of type {type(x)!r}")


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
