"""The discriminant filter as a lattice statement: an entry is kept exactly
when its curves and half-fibers F_i = G_i/2 span a unimodular lattice of
signature (1, 9), that is Num(Y), and every catalog surface's curves and
determined half-fibers span such a lattice too."""

from collections import Counter
from fractions import Fraction

from enriques import catalog
from enriques.config import Divisor
from enriques.exactmat import smith_normal_form
from enriques.lattice import e10_gram, rank_and_discriminant

from conftest import SURFACES


def span_gram(inter, classes):
    """The Gram matrix of a basis of the lattice spanned by the curves of
    the intersection matrix inter and the classes, Divisors D/den on them.

    In coordinates doubled, the generators are the rows 2e_a and
    (2/den)D; the nonzero rows of U*M, for U*M*V the Smith normal form of
    their matrix M, are a basis of the same lattice.
    """
    n = len(inter)
    gens = [[2 * (a == b) for b in range(n)] for a in range(n)]
    gens += [[2 // d.den * c for c in d.vec] for d in classes]
    _, u, _ = smith_normal_form(gens)
    basis = [b for b in ([sum(x * g[j] for x, g in zip(row, gens))
                          for j in range(n)] for row in u) if any(b)]
    return [[Fraction(sum(a[i] * inter[i][j] * b[j]
                          for i in range(n) for j in range(n)), 4)
             for b in basis] for a in basis]


def signature(gram):
    """(positive, negative) inertia of a rational symmetric matrix, by
    LDL^T: pivot on a nonzero diagonal entry, or first add to a row and
    column i the row and column j of a nonzero entry a_ij, which puts
    2a_ij on the diagonal (Sylvester's law of inertia)."""
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    while a:
        m = len(a)
        p = next((i for i in range(m) if a[i][i]), None)
        if p is None:
            ij = next(((i, j) for i in range(m) for j in range(m) if a[i][j]),
                      None)
            if ij is None:
                break  # the rest is the radical
            p, j = ij
            a[p] = [x + y for x, y in zip(a[p], a[j])]
            for row in a:
                row[p] += row[j]
        piv = a[p][p]
        pos, neg = pos + (piv > 0), neg + (piv < 0)
        rest = [k for k in range(m) if k != p]
        a = [[a[r][c] - a[r][p] * a[p][c] / piv for c in rest] for r in rest]
    return pos, neg


def span_invariants(inter, classes):
    """(signature, discriminant modulo the radical) of the span."""
    gram = span_gram(inter, classes)
    assert all(x.denominator == 1 for row in gram for x in row)
    rank, disc = rank_and_discriminant(
        [[int(x) for x in row] for row in gram])
    sig = signature(gram)
    assert sum(sig) == rank
    return sig, disc


def test_signature_reads_e10_and_a_hyperbolic_plane_with_a_radical():
    assert signature(e10_gram()) == (1, 9)
    # a zero diagonal takes the off-diagonal pivot
    assert signature([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) == (1, 1)


def test_kept_entries_are_those_whose_half_fibers_span_num_y(filtered):
    table = Counter()
    for e in filtered:
        halves = [Divisor(g.vec, g.ambient, 2) for g in e.G]
        sig, disc = span_invariants(e.glued.inter, halves)
        kept = e.verdict is None
        assert kept == (sig == (1, 9) and disc == 1)
        table[kept, e.rank, e.disc, sig, disc] += 1
    # [L' : L] <= 4, since F_i + F_j - F_k = S_k lies in L; the disc-48
    # entry breaks the Hodge index theorem
    assert table == {
        (True, 10, 4, (1, 9), 1): 3, (True, 10, 16, (1, 9), 1): 10,
        (False, 10, 64, (1, 9), 4): 13, (False, 10, 144, (1, 9), 9): 8,
        (False, 10, 48, (2, 8), 3): 1,
        (False, 11, 32, (2, 9), 2): 3, (False, 11, 96, (2, 9), 6): 1,
        (False, 11, 128, (2, 9), 8): 1, (False, 11, 64, (1, 10), 4): 6,
        (False, 11, 160, (1, 10), 10): 5,
        (False, 9, 8, (1, 8), 2): 1, (False, 9, 32, (1, 8), 2): 1,
    }


def test_catalog_curves_and_half_fibers_span_num_y():
    for name in SURFACES:
        s = catalog.load_surface(name)
        halves = [r.cls for r in catalog.fibration_records(s)
                  if r.cls is not None]
        assert halves, name
        assert span_invariants(s.config.inter, halves) == ((1, 9), 1), name
