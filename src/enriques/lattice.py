"""Integer lattice arithmetic for the even unimodular hyperbolic lattice E10.

Everything runs on exact Python integers.  The standard model is
U + E8(-1) in the basis order (e, f, c1..c7, b), where e, f are the
hyperbolic pair with e.f = 1 and c1..c7 is the E8 chain with the branch
vertex b attached at c3 (negative definite, diagonal -2, adjacent +1).
"""

from math import prod
from operator import mul

from .exactmat import mat_vec, smith_normal_form
from .rootfibers import DynkinType, diagram, fundamental_cycle


class DimensionMismatch(ValueError):
    pass


def gram_product(a, b, g):
    """The bilinear pairing a.b with respect to the Gram matrix g."""
    n = len(g)
    if len(a) != n or len(b) != n:
        raise DimensionMismatch("vector length does not match form dimension")
    return sum(a[i] * g[i][j] * b[j] for i in range(n) for j in range(n))


def rank_and_discriminant(g):
    """Rank over Q, and |det| of the form induced on the quotient by the
    radical.

    The integer kernel of the Gram matrix is saturated, so a unimodular
    change of basis splits the form as the induced nondegenerate form plus
    zeros; the rank is the number of nonzero invariant factors and the
    discriminant is their product.
    """
    d, _, _ = smith_normal_form(g)
    rank, disc = 0, 1
    for i in range(len(g)):
        if d[i][i]:
            rank += 1
            disc *= d[i][i]
    return rank, disc


def sublattice_index(sub, g):
    """Index [ambient : span(sub)], or "infinite" when span is not full rank.

    The index is the product of the first dim invariant factors of the
    matrix of any m >= dim vectors, and that product is 0 exactly when the
    rank falls short.  A vector of the wrong length raises
    DimensionMismatch.
    """
    n = len(g)
    if any(len(v) != n for v in sub):
        raise DimensionMismatch("vector length does not match form dimension")
    if len(sub) < n:
        return "infinite"
    d, _, _ = smith_normal_form(sub)
    return prod(d[i][i] for i in range(n)) or "infinite"


def e10_gram():
    hyperbolic = [(0, 1) + (0,) * 8, (1, 0) + (0,) * 8]
    e8 = [(0, 0) + row for row in diagram(DynkinType("E", 8)).inter]
    return tuple(hyperbolic + e8)


def e10_isotropic_basis():
    """A 10-tuple of isotropic vectors with pairwise product 1.

    f_1 = e, f_2 = f, and f_{i+2} = e + f + u_i where u_1, ..., u_8 are
    the partial sums of an A8 chain of roots inside E8 (the chain
    c1, ..., c7 closed up by minus the highest root).  Each u_i is a
    root, and distinct partial sums pair to -1, which gives all the
    required products against e + f.
    """
    chain = [[0] * 8 for _ in range(8)]
    for i in range(7):
        chain[i][i] = 1
    # on an ADE diagram Artin's fundamental cycle is the highest root
    highest = fundamental_cycle(diagram(DynkinType("E", 8))).vec
    chain[7] = [-x for x in highest]
    vectors = [
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    ]
    acc = [0] * 8
    for i in range(8):
        acc = [a + b for a, b in zip(acc, chain[i])]
        vectors.append([1, 1] + list(acc))
    return [tuple(v) for v in vectors]


class CossecSolveError(RuntimeError):
    pass


def solve_cossec_vector(tup, i, j):
    """An isotropic vector pairing 2 with f_i, f_j and 1 with the other f_k.

    The ten linear constraints A x = b determine the vector uniquely
    because the tuple spans a finite-index sublattice.  With U A V = D in
    Smith normal form, x = V y where D y = U b, so x is integral exactly
    when each d_i divides (U b)_i; isotropy is verified afterwards.
    """
    if i == j:
        raise ValueError("indices must differ")
    if len(tup) != 10:
        raise ValueError("need a full 10-tuple")
    g = e10_gram()
    a = [mat_vec(g, f) for f in tup]
    d, u, vmat = smith_normal_form(a)
    ub = mat_vec(u, [2 if k in (i, j) else 1 for k in range(10)])
    diag = [d[k][k] for k in range(10)]
    if 0 in diag:
        raise CossecSolveError("constraint system is singular")
    if any(x % dk for x, dk in zip(ub, diag)):
        raise CossecSolveError("no integral solution")
    v = mat_vec(vmat, [x // dk for x, dk in zip(ub, diag)])
    if gram_product(v, v, g) != 0:
        raise CossecSolveError("solution is not isotropic")
    return tuple(v)


# the last span test's (rows of the tuple, form, G*Sf, non-unit columns)
_span_entry = None


def _span_data(tup, g):
    """(G*(f_1 + ... + f_n), the pairs (d_i, column i of V) with |d_i| != 1)
    for U*T*V = D and T the square tuple as rows.

    v.Sf is the dot product of v with the first.  A unit factor divides
    every integer, so only the listed columns can keep a vector out of the
    span.  Both are kept for the last tuple and form, with a tuple copy of
    each, and reused while the rows and the form are equal in value, so a
    list edited in place is never read stale (a form given as lists never
    equals the copy, and is worked out again).  Rows that are the same
    tuples as last time compare by identity, so reuse costs no arithmetic.
    """
    global _span_entry
    rows = tuple(map(tuple, tup))
    entry = _span_entry
    if entry is None or entry[0] != rows or entry[1] != g:
        if len(rows) != len(g) or any(len(f) != len(g) for f in rows):
            raise DimensionMismatch("span test needs a square generating set")
        d, _, v = smith_normal_form(rows)
        paired = tuple(mat_vec(g, [sum(col) for col in zip(*rows)]))
        cols = tuple((d[i][i], col) for i, col in enumerate(zip(*v))
                     if abs(d[i][i]) != 1)
        entry = _span_entry = rows, tuple(map(tuple, g)), paired, cols
    return entry[2], entry[3]


def divisibility_check(v, tup, g=None):
    """(3 | v.Sf, v in Z-span(f), 9 | v.Sf) for the isotropic tuple f.

    v = x*T has an integral solution x exactly when v*V = y*D does, that
    is, when each (v*V)_i is divisible by d_i, and is 0 where d_i = 0.
    """
    if g is None:
        g = e10_gram()
    if len(v) != len(g):
        raise DimensionMismatch("vector length does not match form dimension")
    paired, cols = _span_data(tup, g)
    span = True
    for d, col in cols:
        x = sum(map(mul, v, col))
        if (x % d if d else x) != 0:
            span = False
            break
    pairing = sum(map(mul, v, paired))
    return pairing % 3 == 0, span, pairing % 9 == 0
