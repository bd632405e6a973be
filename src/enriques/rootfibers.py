"""ADE and Kodaira (extended Dynkin) combinatorics.

Recognition of curve configurations, highest-root and null-vector
multiplicities, Artin's fundamental-cycle iteration, embeddings into the
E8 root lattice, and the component-count bound for fibers sharing one
fibration.
"""

from dataclasses import dataclass
from functools import lru_cache

from .config import CurveConfig, Divisor
from .exactmat import smith_normal_form


class NotDynkin(ValueError):
    pass


class NotAffine(ValueError):
    pass


class NonDefinite(ValueError):
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

    @staticmethod
    def parse(s):
        return DynkinType(s[0], int(s[1:]))


@dataclass(frozen=True, order=True)
class KodairaType:
    symbol: str  # e.g. "I8", "I4*", "II*", "III", "smooth"

    def __post_init__(self):
        s = self.symbol
        if s in ("smooth", "II", "III", "IV", "II*", "III*", "IV*"):
            return
        if s.startswith("I") and s.endswith("*") and s[1:-1].isdigit():
            if int(s[1:-1]) >= 0:
                return
        if s.startswith("I") and s[1:].isdigit() and int(s[1:]) >= 1:
            return
        raise ValueError(f"invalid Kodaira symbol {s!r}")

    def __str__(self):
        return self.symbol

    def root_type(self):
        """Dynkin type spanned by the fiber components minus one."""
        s = self.symbol
        if s in ("smooth", "II"):
            return None
        if s == "III":
            return DynkinType("A", 1)
        if s == "IV":
            return DynkinType("A", 2)
        if s == "II*":
            return DynkinType("E", 8)
        if s == "III*":
            return DynkinType("E", 7)
        if s == "IV*":
            return DynkinType("E", 6)
        if s.endswith("*"):
            return DynkinType("D", int(s[1:-1]) + 4)
        n = int(s[1:])
        return DynkinType("A", n - 1) if n >= 2 else None

    def component_count(self):
        rt = self.root_type()
        return 1 if rt is None else rt.n + 1


@dataclass(frozen=True)
class FiberShape:
    config: CurveConfig
    mult: tuple  # ((name, positive int), ...) over all vertices
    kind: object  # DynkinType or KodairaType

    def mult_map(self):
        return dict(self.mult)

    def divisor(self):
        return Divisor.from_map(dict(self.mult), self.config)

    def to_json(self):
        edges = []
        n = self.config.size()
        for i in range(n):
            for j in range(i + 1, n):
                w = self.config.inter[i][j]
                if w:
                    edges.append([i, j, w])
        return {
            "kind": str(self.kind),
            "vertices": list(self.config.names),
            "mult": {name: m for name, m in self.mult},
            "edges": edges,
        }


def _arm_walk(config, branch, first):
    """Vertices of the arm leaving branch through first, in order."""
    arm = [first]
    prev, cur = branch, first
    while True:
        nxt = [x for x in config.neighbors(cur) if x != prev]
        if not nxt:
            return arm
        if len(nxt) > 1:
            raise NotDynkin("second branch vertex inside an arm")
        prev, cur = cur, nxt[0]
        arm.append(cur)


def _tree_shape(config):
    """(branch_vertex, arms sorted short-to-long) for a tree with one branch.

    For a path, branch_vertex is None and arms is the path itself.
    Raises NotDynkin when the graph is not a simply laced tree with at
    most one trivalent vertex.
    """
    n = config.size()
    if not config.is_connected():
        raise NotDynkin("configuration is not connected")
    edge_count = 0
    for i in range(n):
        for j in range(i + 1, n):
            w = config.inter[i][j]
            if w > 1:
                raise NotDynkin("multiple edge")
            edge_count += w
    if edge_count != n - 1:
        raise NotDynkin("configuration contains a cycle")
    branch = [name for name in config.names if len(config.neighbors(name)) > 2]
    if len(branch) > 1:
        raise NotDynkin("more than one branch vertex")
    if not branch:
        if n == 1:
            return None, [list(config.names)]
        ends = [name for name in config.names if len(config.neighbors(name)) == 1]
        path = _arm_walk(config, ends[0], config.neighbors(ends[0])[0])
        return None, [[ends[0]] + path]
    b = branch[0]
    if len(config.neighbors(b)) > 3:
        raise NotDynkin("vertex of valency greater than 3")
    arms = [_arm_walk(config, b, first) for first in config.neighbors(b)]
    arms.sort(key=lambda arm: (len(arm), arm))
    return b, arms


def classify_dynkin(config):
    """ADE type of a connected simply laced configuration, or NotDynkin."""
    branch, arms = _tree_shape(config)
    n = config.size()
    if branch is None:
        return DynkinType("A", n)
    lengths = tuple(len(a) for a in arms)
    if lengths[0] == lengths[1] == 1:
        return DynkinType("D", n)
    if lengths == (1, 2, 2):
        return DynkinType("E", 6)
    if lengths == (1, 2, 3):
        return DynkinType("E", 7)
    if lengths == (1, 2, 4):
        return DynkinType("E", 8)
    raise NotDynkin(f"arm lengths {lengths} match no ADE diagram")


def classify_affine(config):
    """Kodaira type of a connected configuration, or NotAffine.

    I_2 vs III and I_3 vs IV are numerically identical; the tangent-edge
    annotation on the configuration decides the additive reading.
    """
    n = config.size()
    if not config.is_connected():
        raise NotAffine("configuration is not connected")
    if n == 2:
        a, b = config.names
        if config.pair(a, b) == 2:
            if config.is_tangent(a, b):
                return KodairaType("III")
            return KodairaType("I2")
        raise NotAffine("two vertices must meet with multiplicity 2")
    weights = [
        config.inter[i][j] for i in range(n) for j in range(i + 1, n)
        if config.inter[i][j]
    ]
    if any(w > 1 for w in weights):
        raise NotAffine("multiple edge outside the 2-vertex case")
    degrees = [len(config.neighbors(name)) for name in config.names]
    if all(d == 2 for d in degrees):
        if len(weights) != n:
            raise NotAffine("not a single cycle")
        if n == 3 and config.tangent_edges:
            return KodairaType("IV")
        return KodairaType(f"I{n}")
    if max(degrees) == 4:
        if n == 5 and sorted(degrees) == [1, 1, 1, 1, 4]:
            return KodairaType("I0*")
        raise NotAffine("valency-4 vertex outside the I0* star")
    if len(weights) != n - 1:
        raise NotAffine("cycle together with extra edges")
    trivalent = [name for name, d in zip(config.names, degrees) if d == 3]
    if len(trivalent) == 2:
        for b in trivalent:
            leaves = [
                x for x in config.neighbors(b) if len(config.neighbors(x)) == 1
            ]
            if len(leaves) != 2:
                raise NotAffine("trivalent vertex without two leaf arms")
        return KodairaType(f"I{n - 5}*")
    if len(trivalent) == 1:
        arms = [_arm_walk(config, trivalent[0], x)
                for x in config.neighbors(trivalent[0])]
        lengths = tuple(sorted(len(a) for a in arms))
        if lengths == (2, 2, 2):
            return KodairaType("IV*")
        if lengths == (1, 3, 3):
            return KodairaType("III*")
        if lengths == (1, 2, 5):
            return KodairaType("II*")
        raise NotAffine(f"arm lengths {lengths} match no affine diagram")
    raise NotAffine("shape matches no affine diagram")


def canonical_vertex_order(config, dtype=None):
    """Vertices in the canonical ordering used by highest_root.

    A_n: along the path.  D_n: the two short-arm leaves, then the branch
    vertex, then the long arm.  E_n: the long chain end to end (the
    branch vertex sits third from the short end), then the branch leaf.
    """
    if dtype is None:
        dtype = classify_dynkin(config)
    branch, arms = _tree_shape(config)
    if dtype.family == "A":
        return list(arms[0])
    if dtype.family == "D":
        short1, short2 = arms[0], arms[1]
        return [short1[0], short2[0], branch] + list(arms[2])
    # E types: chain = reversed middle arm + branch + long arm, leaf last
    leaf, mid, long_arm = arms[0], arms[1], arms[2]
    return list(reversed(mid)) + [branch] + list(long_arm) + [leaf[0]]


def highest_root(d):
    """Highest-root coefficients along the canonical vertex ordering."""
    if d.family == "A":
        return tuple([1] * d.n)
    if d.family == "D":
        # leaves, branch vertex, then along the chain; far end is simple
        return tuple([1, 1] + [2] * (d.n - 3) + [1])
    if d.n == 6:
        return (1, 2, 3, 2, 1, 2)
    if d.n == 7:
        return (2, 3, 4, 3, 2, 1, 2)
    return (2, 4, 6, 5, 4, 3, 2, 3)


def is_negative_definite(config):
    """Sylvester's criterion: the k-th leading principal minor of the
    intersection matrix has sign (-1)^k for every k.

    One fraction-free (Bareiss) elimination without pivoting leaves the
    k-th leading minor as its k-th pivot; a zero pivot is a zero minor.
    """
    m = [list(row) for row in config.inter]
    n = len(m)
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot == 0 or (pivot > 0) != (k % 2 == 1):
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return True


# safety bound on Artin steps per component (see fundamental_cycle)
ARTIN_STEPS_PER_COMPONENT = 30


def fundamental_cycle(config):
    """Least positive divisor Z on all of config with Z.R <= 0 for every R.

    Artin's iteration: start from the reduced sum of components and add
    any component that still pairs positively.  On a negative definite
    configuration this stops within the highest-root coefficient total,
    which is at most 29 per component.
    """
    if not is_negative_definite(config):
        raise NonDefinite("fundamental cycle needs a negative definite config")
    inter, adj = config.inter, config.adj
    n = config.size()
    z = [1] * n
    for _ in range(ARTIN_STEPS_PER_COMPONENT * n + 1):
        for j in range(n):
            if sum(z[i] * inter[i][j] for i in adj[j]) > 2 * z[j]:
                z[j] += 1
                break
        else:
            return Divisor(tuple(z), config)
    raise NonDefinite("Artin iteration exceeded its step bound")


def dynkin_shape(config):
    """FiberShape with highest-root multiplicities for an ADE configuration."""
    dtype = classify_dynkin(config)
    order = canonical_vertex_order(config, dtype)
    hr = highest_root(dtype)
    mult = {name: c for name, c in zip(order, hr)}
    shape = FiberShape(
        config, tuple((name, mult[name]) for name in config.names), dtype
    )
    z = fundamental_cycle(config)
    if dict(z.coeffs) != mult:
        raise AssertionError("highest root disagrees with the fundamental cycle")
    return shape


def null_vector(config):
    """Primitive positive kernel vector of an affine configuration's Gram."""
    m = [list(row) for row in config.inter]
    d, _, v = smith_normal_form(m)
    n = config.size()
    r = sum(1 for i in range(n) if d[i][i] != 0)
    if r != n - 1:
        raise NotAffine("Gram radical is not one-dimensional")
    kernel = [v[row][n - 1] for row in range(n)]
    from math import gcd
    g = 0
    for x in kernel:
        g = gcd(g, abs(x))
    kernel = [x // g for x in kernel]
    if any(x < 0 for x in kernel):
        kernel = [-x for x in kernel]
    if any(x <= 0 for x in kernel):
        raise NotAffine("kernel vector is not strictly positive")
    return {name: c for name, c in zip(config.names, kernel)}


def affine_shape(config):
    """FiberShape with null-vector multiplicities for a Kodaira configuration."""
    ktype = classify_affine(config)
    mult = null_vector(config)
    return FiberShape(
        config, tuple((name, mult[name]) for name in config.names), ktype
    )


def simple_components(f):
    """Vertices carrying multiplicity 1."""
    return {name for name, m in f.mult if m == 1}


_E8_GRAM = None
_E8_ROOTS = None


def _e8_data():
    global _E8_GRAM, _E8_ROOTS
    if _E8_ROOTS is not None:
        return _E8_GRAM, _E8_ROOTS
    g = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i in range(6):  # chain c1..c7
        g[i][i + 1] = g[i + 1][i] = 1
    g[2][7] = g[7][2] = 1  # branch at c3
    simple = [tuple(1 if j == i else 0 for j in range(8)) for i in range(8)]

    def pair(a, b):
        return sum(a[i] * g[i][j] * b[j] for i in range(8) for j in range(8))

    roots = set(simple) | {tuple(-x for x in s) for s in simple}
    frontier = list(roots)
    while frontier:
        new = []
        for beta in frontier:
            for alpha in simple:
                r = tuple(b + pair(beta, alpha) * a for a, b in zip(alpha, beta))
                if r not in roots:
                    roots.add(r)
                    new.append(r)
        frontier = new
    assert len(roots) == 240
    _E8_GRAM = g
    _E8_ROOTS = sorted(roots)
    return _E8_GRAM, _E8_ROOTS


def _diagram_edges(dtype):
    """Adjacency of the abstract diagram, vertices in a search-friendly
    order where every vertex after the first touches an earlier one."""
    n = dtype.n
    if dtype.family == "A":
        return n, [(i, i + 1) for i in range(n - 1)]
    if dtype.family == "D":
        # 0 = branch vertex, 1 and 2 leaves, 3.. the long arm
        edges = [(0, 1), (0, 2)]
        prev = 0
        for k in range(3, n):
            edges.append((prev, k))
            prev = k
        return n, edges
    # E types: 0..n-2 the chain (branch vertex at index 2), n-1 the leaf
    edges = [(i, i + 1) for i in range(n - 2)]
    edges.append((2, n - 1))
    return n, edges


@lru_cache(maxsize=None)
def _embeds_in_e8(key):
    total = sum(n for _, n in key)
    if total > 8:
        return False
    g, roots = _e8_data()

    def pair(a, b):
        return sum(a[i] * g[i][j] * b[j] for i in range(8) for j in range(8))

    slots = []  # (component index, required products against earlier slots)
    offset = 0
    for comp, (family, n) in enumerate(key):
        size, edges = _diagram_edges(DynkinType(family, n))
        adj = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
        for v in range(size):
            req = {}
            for prev in range(offset + v):
                if prev < offset:
                    req[prev] = 0  # earlier component: orthogonal
                else:
                    req[prev] = 1 if (prev - offset, v) in adj else 0
            slots.append(req)
        offset += size

    chosen = []

    def extend(k):
        if k == len(slots):
            return True
        # Weyl transitivity lets the very first root be pinned down
        candidates = roots[:1] if k == 0 else roots
        for r in candidates:
            ok = True
            for prev, want in slots[k].items():
                if pair(chosen[prev], r) != want:
                    ok = False
                    break
            if ok:
                chosen.append(r)
                if extend(k + 1):
                    return True
                chosen.pop()
        return False

    return extend(0)


def embeds_in_E8(types):
    """Whether the orthogonal sum of the given root lattices embeds in E8."""
    key = tuple(sorted((t.family, t.n) for t in types))
    return _embeds_in_e8(key)


def fiber_count_bound(fibers, s):
    """Component-count and embedding bound for fibers within s fibers of
    one fibration: at most 8 + s components in total, and the associated
    root types must embed into E8."""
    total = 0
    types = []
    for f in fibers:
        if isinstance(f, KodairaType):
            k = f
        else:
            k = f.kind
        total += k.component_count()
        rt = k.root_type()
        if rt is not None:
            types.append(rt)
    if total > 8 + s:
        return False
    return embeds_in_E8(types)
