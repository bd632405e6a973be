from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enriques.exactmat import smith_normal_form
from enriques.lattice import (
    CossecSolveError,
    DimensionMismatch,
    divisibility_check,
    e10_gram,
    e10_isotropic_basis,
    gram_product,
    rank_and_discriminant,
    solve_cossec_vector,
    sublattice_index,
)
from test_core_oracles import det_bareiss

G = e10_gram()
BASIS = e10_isotropic_basis()


def test_e10_gram_is_even_unimodular_of_signature_one_nine():
    assert len(G) == 10
    for i in range(10):
        assert G[i][i] % 2 == 0
    rank, disc = rank_and_discriminant(G)
    assert (rank, disc) == (10, 1)


def test_isotropic_tuple_products():
    for i, a in enumerate(BASIS):
        for j, b in enumerate(BASIS):
            want = 0 if i == j else 1
            assert gram_product(list(a), list(b), G) == want


def test_isotropic_tuple_has_index_three():
    assert sublattice_index(BASIS, G) == 3


def test_sublattice_index_of_degenerate_set_is_infinite():
    degenerate = [BASIS[0]] * 10
    assert sublattice_index(degenerate, G) == "infinite"


def index_by_minors(vectors):
    """gcd of the maximal minors of the vectors' matrix: the index of
    their span, 0 when the rank falls short."""
    return gcd(*(det_bareiss([vectors[i] for i in rows])
                 for rows in combinations(range(len(vectors)), 10)))


@pytest.mark.parametrize("extra, index", [
    (BASIS[0], 3),
    (solve_cossec_vector(BASIS, 8, 9), 1),
], ids=("f1-again", "cossec-vector"))
def test_sublattice_index_of_eleven_vectors(extra, index):
    vectors = [list(f) for f in BASIS + [extra]]
    assert index_by_minors(vectors) == index
    assert sublattice_index(vectors, G) == index


@pytest.mark.parametrize("bad", [BASIS[9][:9], BASIS[9] + (0,)],
                         ids=("short", "long"))
def test_sublattice_index_rejects_a_vector_of_the_wrong_length(bad):
    with pytest.raises(DimensionMismatch):
        sublattice_index(BASIS[:9] + [bad], G)


def test_cossec_vector_known_value():
    v = solve_cossec_vector(BASIS, 8, 9)
    assert v == (1, 1, 2, 3, 4, 3, 2, 1, 0, 2)
    assert gram_product(list(v), list(v), G) == 0
    products = [gram_product(list(v), list(f), G) for f in BASIS]
    assert products == [1] * 8 + [2, 2]
    assert sum(products) == 12


def test_cossec_vector_symmetric_in_index_pair():
    assert solve_cossec_vector(BASIS, 9, 8) == solve_cossec_vector(BASIS, 8, 9)


def test_cossec_vector_rejects_equal_indices():
    with pytest.raises(ValueError):
        solve_cossec_vector(BASIS, 4, 4)


@pytest.mark.parametrize("basis, reason", [
    ([tuple(2 * x for x in f) for f in BASIS], "no integral solution"),
    ([BASIS[0]] + BASIS[:9], "singular"),
], ids=("doubled", "repeated-vector"))
def test_cossec_vector_rejects_unsolvable_constraints(basis, reason):
    with pytest.raises(CossecSolveError, match=reason):
        solve_cossec_vector(basis, 8, 9)


def test_cossec_vector_outside_span():
    v = solve_cossec_vector(BASIS, 8, 9)
    div3, span, div9 = divisibility_check(v, BASIS)
    assert div3 and not span and not div9


def test_basis_vectors_lie_in_their_own_span():
    for f in BASIS:
        div3, span, div9 = divisibility_check(f, BASIS)
        assert div3 and span and div9


def test_gram_product_dimension_check():
    with pytest.raises(DimensionMismatch):
        gram_product([1, 2], [3, 4], G)
    with pytest.raises(DimensionMismatch):
        divisibility_check([1, 2], BASIS, G)


def test_rank_and_discriminant_on_degenerate_form():
    # A1 + radical: rank 1, induced discriminant 2
    g = ((-2, 0), (0, 0))
    assert rank_and_discriminant(g) == (1, 2)
    # list rows read like tuple rows
    assert rank_and_discriminant([list(row) for row in g]) == (1, 2)
    assert rank_and_discriminant([list(row) for row in G]) == (10, 1)


def complement_rank_and_discriminant(g):
    """Reference: a nonzero determinant, or else the determinant of the form
    restricted to a complement of the kernel, read off the first columns of
    the Smith column transform."""
    m = [list(row) for row in g]
    if not m:
        return 0, 1
    full = det_bareiss(m)
    if full != 0:
        return len(g), abs(full)
    d, _, v = smith_normal_form(m)
    n = len(g)
    r = sum(1 for i in range(n) if d[i][i] != 0)
    if r == 0:
        return 0, 1
    p = [[v[row][col] for col in range(r)] for row in range(n)]
    q = [[sum(p[a][i] * m[a][b] * p[b][j]
              for a in range(n) for b in range(n))
          for j in range(r)] for i in range(r)]
    return r, abs(det_bareiss(q))


@st.composite
def gram_forms(draw):
    """P^T A P for a random symmetric A (k x k) and P (k x n): degenerate
    whenever n > k or P loses rank."""
    k = draw(st.integers(0, 5))
    n = draw(st.integers(0, 6))
    small = st.integers(-3, 3)
    a = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            a[i][j] = a[j][i] = draw(small)
    p = [[draw(small) for _ in range(n)] for _ in range(k)]
    return tuple(
        tuple(sum(p[x][i] * a[x][y] * p[y][j]
                  for x in range(k) for y in range(k)) for j in range(n))
        for i in range(n))


@given(gram_forms())
@settings(max_examples=200, deadline=None)
def test_rank_and_discriminant_match_the_complement_method(g):
    assert rank_and_discriminant(g) == complement_rank_and_discriminant(g)


def test_in_span_on_a_singular_tuple():
    # e0..e8 and 2*e0 span a rank-9 sublattice that contains e1
    units = [tuple(int(k == i) for k in range(10)) for i in range(9)]
    tup = units + [tuple(2 * x for x in units[0])]
    assert divisibility_check(tup[1], tup, G)[1]
    assert divisibility_check([3, 0, 0, 0, 0, 0, 0, 0, 5, 0], tup, G)[1]
    assert not divisibility_check([0] * 9 + [1], tup, G)[1]


def all_columns_in_span(v, tup):
    """The span test before unit factors were dropped: every invariant
    factor with its column of V, units included."""
    d, _, vv = smith_normal_form([list(f) for f in tup])
    diag = tuple(d[i][i] for i in range(len(d)))
    for di, col in zip(diag, zip(*vv)):
        x = sum(a * b for a, b in zip(v, col))
        if (x % di if di else x) != 0:
            return False
    return True


@st.composite
def span_cases(draw):
    """(v, tuple, form) in dimension n <= 6.  Rows have entries in -3..3
    and are scaled by 0, 1, 2 or 3 at random, so singular tuples and
    non-unit invariant factors are common; v is a combination of the rows,
    moved off it by a small offset in about half the draws."""
    n = draw(st.integers(1, 6))
    small = st.integers(-3, 3)
    tup = tuple(tuple(s * draw(small) for _ in range(n))
                for s in draw(st.lists(st.sampled_from((0, 1, 1, 2, 3)),
                                       min_size=n, max_size=n)))
    coeffs = [draw(small) for _ in range(n)]
    v = [sum(c * f[k] for c, f in zip(coeffs, tup)) for k in range(n)]
    if draw(st.booleans()):
        v = [a + draw(st.integers(-2, 2)) for a in v]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(small)
    return v, tup, tuple(map(tuple, a))


_SINGULAR = ([2, 4], ((1, 2), (2, 4)), ((0, 1), (1, 0)))
_FACTOR_TWO = ([1, 1], ((2, 0), (0, 1)), ((1, 1), (1, 1)))


@given(span_cases())
@example(_SINGULAR)
@example(_FACTOR_TWO)
@settings(max_examples=300, deadline=None)
def test_span_and_divisibility_match_the_all_columns_formula(case):
    v, tup, g = case
    span = all_columns_in_span(v, tup)
    sf = [sum(f[k] for f in tup) for k in range(len(g))]
    prod = gram_product(v, sf, g)
    assert divisibility_check(v, tup, g) == (prod % 3 == 0, span,
                                             prod % 9 == 0)


def test_span_tests_read_a_list_basis_like_a_tuple_basis():
    lists = [list(f) for f in BASIS]
    tuples = tuple(BASIS)
    vectors = lists + [list(solve_cossec_vector(BASIS, 8, 9)), [1] * 10,
                       [3] + [0] * 9, [0] * 9 + [9]]
    for v in vectors:
        assert (divisibility_check(v, lists, G)
                == divisibility_check(v, tuples, G))


def test_span_tests_see_a_basis_edited_in_place_and_a_new_form():
    units = [[int(k == i) for k in range(10)] for i in range(10)]
    v = [0] * 9 + [1]
    assert divisibility_check(v, units, G)[1]
    units[9][9] = 2
    assert not divisibility_check(v, units, G)[1]
    units[9] = list(v)
    assert divisibility_check(v, units, G)[1]
    # the same basis under two forms: v.Sf follows the form
    identity = tuple(map(tuple, units))
    w = [1, 0, 2] + [0] * 7
    assert gram_product(w, [1] * 10, identity) == 3
    assert divisibility_check(w, units, identity) == (True, True, False)
    assert gram_product(w, [1] * 10, G) == -1
    assert divisibility_check(w, units, G) == (False, True, False)
    # a form given as lists and edited in place between two checks: v.Sf
    # follows the edit, so the cache compares forms by value
    form = [list(row) for row in identity]
    assert divisibility_check(w, units, form) == (True, True, False)
    form[2][2] = 4
    assert gram_product(w, [1] * 10, form) == 9
    assert divisibility_check(w, units, form) == (True, True, True)


def test_divisibility_check_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(DimensionMismatch):
        divisibility_check([1, 2], BASIS, G)


def test_span_tests_reject_a_tuple_of_short_vectors():
    with pytest.raises(DimensionMismatch):
        divisibility_check([0] * 10, [f[:9] for f in BASIS], G)


def test_nine_vectors_span_no_full_rank_lattice():
    with pytest.raises(DimensionMismatch):
        divisibility_check([0] * 10, BASIS[:9], G)
    assert sublattice_index(BASIS[:9], G) == "infinite"


_coords = st.lists(st.integers(min_value=-30, max_value=30),
                   min_size=10, max_size=10)


@given(_coords)
@settings(max_examples=300, deadline=None)
def test_divisibility_invariant_random_vectors(v):
    # the tuple sum pairs with every lattice vector in 3Z, and membership
    # in the Z-span of the tuple is equivalent to divisibility by 9
    div3, span, div9 = divisibility_check(v, BASIS)
    assert div3
    assert span == div9


@given(_coords, _coords)
@settings(max_examples=100, deadline=None)
def test_gram_product_is_symmetric_and_bilinear(a, b):
    assert gram_product(a, b, G) == gram_product(b, a, G)
    double = [2 * x for x in a]
    assert gram_product(double, b, G) == 2 * gram_product(a, b, G)


@given(_coords)
@settings(max_examples=100, deadline=None)
def test_in_span_detects_integer_combinations(v):
    combo = [sum(c * f[k] for c, f in zip(v, BASIS)) for k in range(10)]
    assert divisibility_check(combo, BASIS, G)[1]
