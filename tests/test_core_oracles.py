"""Independent oracles for the indexed configuration core.

Random weighted graphs (up to 10 curves, weights 0, 1, 2) and random
integer matrices are checked against brute-force or textbook references
kept in this file.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enriques import rootfibers
from enriques.catalog import fibration_records, load_surface
from enriques.classify import FIBER_KINDS
from enriques.config import CurveConfig, Divisor, intersect, pairings
from enriques.divisors import (
    connected_subsets,
    cycle_with_pairings,
    specialness_witness,
)
from enriques.exactmat import smith_normal_form
from enriques.rootfibers import (
    DynkinType,
    KodairaType,
    NotAffine,
    NotDynkin,
    _artin,
    _diagram_edges,
    _nbrs,
    dynkin_divisor,
    fiber_divisor,
    fiber_graph,
    fundamental_cycle,
    null_vector,
    root_subsets,
)

from conftest import SURFACES, highest_root_by_vertex


def det_bareiss(m):
    """Determinant by fraction-free Gaussian elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@st.composite
def configs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    names = tuple(f"c{i}" for i in draw(st.permutations(range(n))))
    edges = [
        (names[a], names[b], w)
        for a, b in combinations(range(n), 2)
        if (w := draw(st.sampled_from((0, 0, 1, 2))))
    ]
    return CurveConfig.from_edges(names, edges)


def brute_connected_subsets(config, min_size, max_size):
    out = []
    for size in range(min_size, max_size + 1):
        for subset in combinations(range(config.size()), size):
            if config.subconfig(subset).is_connected():
                out.append(subset)
    return out


@settings(max_examples=150, deadline=None)
@given(configs(), st.integers(1, 9), st.integers(0, 9))
def test_connected_subsets_match_brute_force(config, lo, hi):
    assert connected_subsets(config) == brute_connected_subsets(
        config, 1, config.size())
    assert connected_subsets(config, lo, hi) == brute_connected_subsets(
        config, lo, hi)


@settings(max_examples=200, deadline=None)
@given(configs(max_n=10), st.data())
def test_subconfig_matches_the_validated_constructor(config, data):
    meeting = [(a, b) for a, b in combinations(range(config.size()), 2)
               if config.inter[a][b]]
    tangents = data.draw(st.sets(st.sampled_from(meeting))
                         if meeting else st.just(set()))
    config = CurveConfig(config.names, config.inter, frozenset(tangents))
    support = data.draw(st.sets(st.sampled_from(config.names))
                        if config.names else st.just(set()))
    idxs = [i for i, name in enumerate(config.names) if name in support]
    want = CurveConfig(
        tuple(config.names[i] for i in idxs),
        tuple(tuple(config.inter[i][j] for j in idxs) for i in idxs),
        frozenset((idxs.index(a), idxs.index(b))
                  for a, b in config.tangent_edges
                  if a in idxs and b in idxs),
    )
    sub = config.subconfig(idxs)
    assert sub == want
    assert (sub.names, sub.inter, sub.tangent_edges, sub.adj) == (
        want.names, want.inter, want.tangent_edges, want.adj)
    for name in config.names:
        if name in support:
            assert sub.index(name) == want.index(name)
        else:
            with pytest.raises(ValueError):
                sub.index(name)


@settings(max_examples=200, deadline=None)
@given(configs().filter(CurveConfig.is_connected))
def test_negative_definite_matches_leading_minor_signs(config):
    # Sylvester: negative definite exactly when the k-th leading minor has
    # sign (-1)^k for every k; the fundamental cycle exists exactly then
    m = [list(row) for row in config.inter]
    definite = all(
        (-1) ** k * det_bareiss([row[:k] for row in m[:k]]) > 0
        for k in range(1, len(m) + 1)
    )
    if definite:
        z = fundamental_cycle(config)
        assert z.ambient is config and intersect(z, z) == -2
    else:
        with pytest.raises(NotDynkin):
            fundamental_cycle(config)


ADE_UP_TO_RANK_8 = (
    [DynkinType("A", n) for n in range(1, 9)]
    + [DynkinType("D", n) for n in range(4, 9)]
    + [DynkinType("E", n) for n in (6, 7, 8)]
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ADE_UP_TO_RANK_8), st.randoms(use_true_random=False))
def test_fundamental_cycle_is_highest_root_under_relabelling(dtype, rnd):
    n, edges = _diagram_edges(dtype)
    label = [f"r{i}" for i in range(n)]
    rnd.shuffle(label)
    names = list(label)
    rnd.shuffle(names)
    cfg = CurveConfig.from_edges(
        names, [(label[a], label[b]) for a, b in edges])
    z = fundamental_cycle(cfg)
    assert dict(z.coeffs) == dict(zip(label, highest_root_by_vertex(dtype)))


@settings(max_examples=150, deadline=None)
@given(configs(), st.data())
def test_divisor_round_trips_through_from_map_and_coeffs(config, data):
    coeff = st.integers(-3, 3)
    m1 = data.draw(st.dictionaries(st.sampled_from(config.names), coeff)
                   if config.names else st.just({}))
    m2 = data.draw(st.dictionaries(st.sampled_from(config.names), coeff)
                   if config.names else st.just({}))
    d1, d2 = Divisor.from_map(m1, config), Divisor.from_map(m2, config)
    assert d1.coeffs == tuple(
        (name, m1[name]) for name in config.names if m1.get(name, 0))
    assert Divisor.from_map(dict(d1.coeffs), config) == d1
    assert list(d1.vec) == [m1.get(name, 0) for name in config.names]
    assert d1.support() == tuple(
        i for i, name in enumerate(config.names) if m1.get(name, 0))
    for i, name in enumerate(config.names):
        assert d1.vec[i] == m1.get(name, 0)
        assert (d1 + d2).vec[i] == m1.get(name, 0) + m2.get(name, 0)
        assert (d1 - d2).vec[i] == m1.get(name, 0) - m2.get(name, 0)
        assert d1.scale(3).vec[i] == 3 * m1.get(name, 0)


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@st.composite
def int_matrices(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.integers(-40, 40)
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=300, deadline=None)
@given(int_matrices())
@example([[36, 6, 13, -25, 25, 7, -3], [6, 15, 8, -13, 3, 10, -6],
          [13, 8, 13, -12, 4, -7, 1], [-25, -13, -12, 18, -13, 0, 1],
          [25, 3, 4, -13, 22, 8, 0], [7, 10, -7, 0, 8, 15, -7],
          [-3, -6, 1, 1, 0, -7, 9]])
def test_smith_normal_form_is_a_unimodular_diagonalisation(m):
    d, u, v = smith_normal_form(m)
    assert _matmul(_matmul(u, m), v) == d
    assert abs(det_bareiss(u)) == 1 and abs(det_bareiss(v)) == 1
    diag = [d[i][i] for i in range(min(len(m), len(m[0])))]
    assert all(d[i][j] == 0 for i in range(len(m))
               for j in range(len(m[0])) if i != j)
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def fraction_pairing_vector(vec, config):
    """The pairing vector of a class given by Fraction coefficients."""
    n = len(vec)
    return tuple(sum(vec[i] * config.inter[i][j] for i in range(n))
                 for j in range(n))


def fraction_vec(vec, den):
    return tuple(Fraction(c, den) for c in vec)


def _exact(value):
    """An int when integral, else a Fraction, as the package returns."""
    return (type(value) is int if Fraction(value).denominator == 1
            else type(value) is Fraction)


@st.composite
def class_forms(draw, config):
    """(integer vector, denominator 1 or 2), as drawn, before reduction."""
    vec = tuple(draw(st.integers(-4, 4)) for _ in config.names)
    return vec, draw(st.sampled_from((1, 2)))


@settings(max_examples=200, deadline=None)
@given(configs(max_n=10), st.data())
def test_integer_pairing_matches_the_fraction_formula(config, data):
    form_a = data.draw(class_forms(config))
    form_b = data.draw(class_forms(config))
    a = Divisor(form_a[0], config, form_a[1])
    b = Divisor(form_b[0], config, form_b[1])
    fa, fb = fraction_vec(*form_a), fraction_vec(*form_b)
    k = data.draw(st.integers(-3, 3))
    # sums, differences and multiples, against their Fraction vectors
    for cls, frac in ((a, fa), (a + b, [x + y for x, y in zip(fa, fb)]),
                      (a - b, [x - y for x, y in zip(fa, fb)]),
                      (a.scale(k), [k * x for x in fa])):
        assert fraction_vec(cls.vec, cls.den) == tuple(frac)
        pv = cls.pairing_vector()
        assert pv == fraction_pairing_vector(frac, config)
        assert all(_exact(x) for x in pv)
        value = intersect(cls, b)
        assert value == sum(x * y for x, y in
                            zip(frac, fraction_pairing_vector(fb, config)))
        assert _exact(value)
    d = Divisor(form_b[0], config)
    assert intersect(a, d) == intersect(d, a) == sum(
        x * y for x, y in zip(fa, fraction_pairing_vector(d.vec, config)))


@lru_cache(maxsize=None)
def fraction_cycles(name):
    """(fundamental cycle, its Fraction pairing vector) for every connected
    negative definite subconfiguration of the surface, in subset order."""
    config = load_surface(name).config
    out = []
    for subset in connected_subsets(config):
        try:
            _, z = dynkin_divisor(config, subset)
        except NotDynkin:
            continue
        out.append((z, fraction_pairing_vector(
            tuple(Fraction(c) for c in z.vec), config)))
    return out


def fraction_specialness_witness(F, name):
    """specialness_witness(F) over Fractions."""
    config = load_surface(name).config
    frac = [fraction_vec(f.vec, f.den) for f in F]
    targets = {}
    for k in range(3):
        i, j = [t for t in range(3) if t != k]
        targets[k] = fraction_pairing_vector(tuple(
            x + y - z for x, y, z in zip(frac[i], frac[j], frac[k])), config)
    found = {}
    for z, pv in fraction_cycles(name):
        for k in range(3):
            if k not in found and pv == targets[k]:
                found[k] = z
    return found


def claimed_triples(claims):
    """Every triple of fiber labels the surface's claims name."""
    triples = []
    if "triple" in claims:
        triples.append(claims["triple"])
    triples += [list(t) for t in combinations(claims.get("four_sequence", ()),
                                              3)]
    if "minus_two" in claims:
        triples.append(claims["minus_two"]["triple"])
    for label, partners in claims.get("unique_nonspecial", {}).items():
        triples.append(partners + [label])
    return triples


@pytest.mark.parametrize("name", SURFACES)
def test_specialness_witness_matches_the_fraction_search(name):
    s = load_surface(name)
    classes = {label: r.cls for r in fibration_records(s)
               for label in r.labels}
    for labels in claimed_triples(s.claims):
        F = [classes[label] for label in labels]
        assert specialness_witness(F, s.config) == (
            fraction_specialness_witness(F, name)), labels


def snf_null_vector(config):
    """The positive primitive kernel vector of the Gram matrix, read from
    its Smith normal form, or None when the kernel is not one-dimensional
    or its generator has a zero or mixed signs."""
    n = config.size()
    if n == 0:
        return None
    d, _, v = smith_normal_form([list(row) for row in config.inter])
    if sum(1 for i in range(n) if d[i][i]) != n - 1:
        return None
    kernel = [v[row][n - 1] for row in range(n)]
    g = gcd(*kernel)
    kernel = [x // g for x in kernel]
    if kernel[0] < 0:
        kernel = [-x for x in kernel]
    if any(x <= 0 for x in kernel):
        return None
    return tuple(kernel)


def assert_null_vector_matches_snf(config):
    want = snf_null_vector(config)
    if want is None:
        with pytest.raises(NotAffine):
            null_vector(config)
    else:
        assert null_vector(config) == want


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(FIBER_KINDS), st.randoms(use_true_random=False))
def test_null_vector_of_reordered_fiber_graphs_matches_snf(kind, rnd):
    graph = fiber_graph(kind)
    order = list(range(graph.size()))
    rnd.shuffle(order)
    cfg = CurveConfig(
        tuple(graph.names[i] for i in order),
        tuple(tuple(graph.inter[i][j] for j in order) for i in order))
    assert snf_null_vector(cfg) is not None
    assert_null_vector_matches_snf(cfg)


@pytest.mark.parametrize("name", SURFACES)
def test_null_vector_on_catalog_subsets_matches_snf(name):
    config = load_surface(name).config
    affine = 0
    for subset in connected_subsets(config):
        sub = config.subconfig(subset)
        affine += snf_null_vector(sub) is not None
        assert_null_vector_matches_snf(sub)
    assert affine > 0


@settings(max_examples=200, deadline=None)
@given(configs())
def test_null_vector_of_random_graphs_matches_snf(config):
    assert_null_vector_matches_snf(config)


def _edges(cfg, suffix=""):
    return [(a + suffix, b + suffix, cfg.pair(a, b))
            for a, b in combinations(cfg.names, 2) if cfg.pair(a, b)]


def _disjoint_union(first, second):
    return CurveConfig.from_edges(
        [name + "_0" for name in first.names]
        + [name + "_1" for name in second.names],
        _edges(first, "_0") + _edges(second, "_1"))


def _diagram(dtype):
    n, edges = _diagram_edges(dtype)
    names = [f"v{i}" for i in range(n)]
    return CurveConfig.from_edges(names, [(names[a], names[b])
                                          for a, b in edges])


II_STAR = fiber_graph(FIBER_KINDS[-1])


@pytest.mark.parametrize("config", [
    *(_diagram(d) for d in ADE_UP_TO_RANK_8),
    # indefinite: a triple edge, a 4-cycle with a chord, K4, II* with a
    # leaf on the end of its long arm
    CurveConfig.from_edges(("a", "b"), [("a", "b", 3)]),
    CurveConfig.from_edges("abcd", [
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]),
    CurveConfig.from_edges("abcd", list(combinations("abcd", 2))),
    CurveConfig.from_edges(II_STAR.names + ("x",),
                           _edges(II_STAR) + [("t8", "x")]),
    # disconnected: two fibers, a fiber and a curve
    _disjoint_union(fiber_graph(FIBER_KINDS[0]), fiber_graph(FIBER_KINDS[1])),
    _disjoint_union(fiber_graph(FIBER_KINDS[2]), _diagram(DynkinType("A", 1))),
], ids=[*(str(d) for d in ADE_UP_TO_RANK_8), "triple-edge",
        "cycle-with-chord", "K4", "II*-plus-leaf", "I2+I3", "I4+A1"])
def test_null_vector_rejects_dynkin_indefinite_and_disconnected(config):
    assert snf_null_vector(config) is None
    with pytest.raises(NotAffine):
        null_vector(config)


@st.composite
def annotated_configs(draw, max_n=9):
    """Random graphs with weights 0..3 and tangent edges on meeting pairs."""
    n = draw(st.integers(0, max_n))
    inter = [[-2 if a == b else 0 for b in range(n)] for a in range(n)]
    for a, b in combinations(range(n), 2):
        inter[a][b] = inter[b][a] = draw(st.sampled_from((0, 0, 1, 1, 2, 3)))
    meeting = [(a, b) for a, b in combinations(range(n), 2) if inter[a][b]]
    tangents = draw(st.sets(st.sampled_from(meeting))
                    if meeting else st.just(set()))
    return CurveConfig(tuple(f"c{i}" for i in range(n)),
                       tuple(map(tuple, inter)), frozenset(tangents))


def recognised_subsets(config, family):
    """(support, kind, cycle) for every connected subset of the family's
    kind, by the reference enumerator and the one-set recognisers, which
    agree with the recognisers of the subset's own configuration."""
    recognise, failure, cycle_of = {
        DynkinType: (dynkin_divisor, NotDynkin,
                     lambda sub: fundamental_cycle(sub).vec),
        KodairaType: (fiber_divisor, NotAffine, null_vector),
    }[family]
    out = []
    for support in connected_subsets(config):
        sub = config.subconfig(support)
        whole = range(sub.size())
        try:
            kind, cycle = recognise(config, support)
        except failure:
            with pytest.raises(failure):
                recognise(sub, whole)
            continue
        assert kind == recognise(sub, whole)[0]
        assert tuple(cycle.vec[i] for i in support) == cycle_of(sub)
        out.append((support, kind, cycle))
    return out


def assert_root_subsets_match(config, family, max_sizes):
    want = recognised_subsets(config, family)
    assert list(root_subsets(config, family)) == want
    for max_size in max_sizes:
        assert list(root_subsets(config, family, max_size)) == [
            r for r in want if len(r[0]) <= max_size], max_size


@settings(max_examples=150, deadline=None)
@given(annotated_configs(), st.sampled_from((DynkinType, KodairaType)),
       st.integers(0, 10))
def test_root_subsets_match_the_reference_enumeration(config, family, cap):
    assert_root_subsets_match(config, family, (cap,))


@pytest.mark.parametrize("family", (DynkinType, KodairaType))
@pytest.mark.parametrize("config", [
    *(load_surface(name).config for name in SURFACES),
    *(fiber_graph(kind) for kind in FIBER_KINDS),
], ids=[*SURFACES, *(str(kind) for kind in FIBER_KINDS)])
def test_root_subsets_on_surfaces_and_fibers(config, family):
    assert_root_subsets_match(config, family, range(config.size() + 1))


@st.composite
def trees_and_unicyclic(draw):
    """Random trees of 10 or 11 curves, with one more edge half the time,
    so that long chains and D and E shapes grow deep: each curve hangs
    off its predecessor or off any earlier curve.  An occasional edge has
    weight 2, and an occasional meeting pair is tangent."""
    n = draw(st.integers(10, 11))
    weight = st.sampled_from((1,) * 7 + (2,))
    edges = {(draw(st.one_of(st.just(v - 1), st.integers(0, v - 1))), v):
             draw(weight) for v in range(1, n)}
    if draw(st.booleans()):
        extra = [p for p in combinations(range(n), 2) if p not in edges]
        edges[draw(st.sampled_from(extra))] = draw(weight)
    inter = [[-2 if a == b else 0 for b in range(n)] for a in range(n)]
    for (a, b), w in edges.items():
        inter[a][b] = inter[b][a] = w
    tangents = draw(st.sets(st.sampled_from(sorted(edges)), max_size=1))
    return CurveConfig(tuple(f"c{i}" for i in range(n)),
                       tuple(map(tuple, inter)), frozenset(tangents))


@settings(max_examples=60, deadline=None)
@given(trees_and_unicyclic(), st.sampled_from((DynkinType, KodairaType)),
       st.integers(0, 11))
def test_root_subsets_grow_trees_from_their_parents(config, family, cap):
    assert_root_subsets_match(config, family, (cap,))


def artin_by_first_row(config, nbrs, per_component):
    """Artin's iteration as a loop over the rows: each step bumps the
    first component, in the order of nbrs, that pairs positively with Z.
    The vector it stops at in config order, or None when it needs more
    than per_component steps per component."""
    z = dict.fromkeys(nbrs, 1)
    rows = [(j, config.inter[j], near) for j, near in nbrs.items()]
    for _ in range(per_component * len(z) + 1):
        for j, row, near in rows:
            if sum(z[i] * row[i] for i in near) > 2 * z[j]:
                z[j] += 1
                break
        else:
            return tuple(z.get(i, 0) for i in range(config.size()))
    return None


def assert_artin_matches(config, supports):
    """_artin against the row loop on each support, at the step bound in
    force and at bounds of 0, 1 and 2 steps per component, where ADE and
    affine sets run past it."""
    for bound in (rootfibers.ARTIN_STEPS_PER_COMPONENT, 0, 1, 2):
        with patch.object(rootfibers, "ARTIN_STEPS_PER_COMPONENT", bound):
            for support in supports:
                nbrs = _nbrs(config, support)
                got = _artin(config, nbrs)
                want = artin_by_first_row(config, nbrs, bound)
                assert (None if got is None else got.vec) == want, (
                    support, bound)


@settings(max_examples=150, deadline=None)
@given(annotated_configs(), st.data())
def test_artin_matches_the_row_loop(config, data):
    support = data.draw(st.sets(st.integers(0, config.size() - 1))
                        if config.size() else st.just(set()))
    assert_artin_matches(config, [sorted(support), range(config.size())])


@pytest.mark.parametrize("config", [
    *(load_surface(name).config for name in SURFACES),
    *(fiber_graph(kind) for kind in FIBER_KINDS),
], ids=[*SURFACES, *(str(kind) for kind in FIBER_KINDS)])
def test_artin_matches_the_row_loop_on_surfaces_and_fibers(config):
    assert_artin_matches(config, connected_subsets(config))


def cycle_table(config):
    """(cycle, pairing vector) of every ADE set, in root_subsets order."""
    return [(cycle, pairings(cycle.vec, config))
            for _, _, cycle in root_subsets(config, DynkinType)]


def assert_cycle_search_matches(config, table, t):
    want = next((cycle for cycle, pv in table if pv == t), None)
    assert cycle_with_pairings(config, t) == want


@settings(max_examples=150, deadline=None)
@given(annotated_configs(), st.data())
def test_cycle_with_pairings_matches_the_subset_search(config, data):
    n = config.size()
    table = cycle_table(config)
    for cycle, pv in table:
        assert cycle_with_pairings(config, pv) == cycle
    base = data.draw(st.sampled_from(table))[1] if table else (0,) * n
    bumps = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assert_cycle_search_matches(config, table, tuple(
        x + d * m for x, d, m in zip(base, bumps, mask)))


@pytest.mark.parametrize("name", SURFACES)
def test_cycle_with_pairings_on_catalog_cycles(name):
    config = load_surface(name).config
    table = cycle_table(config)
    for cycle, t in table:
        assert cycle_with_pairings(config, t) == cycle
        for i in range(config.size()):
            assert_cycle_search_matches(
                config, table, t[:i] + (t[i] - 1,) + t[i + 1:])
