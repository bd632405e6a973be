import hashlib
import os
import re
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enriques import polymodels
from enriques.polymodels import (
    FIELD_BITS,
    MAX_EXPONENT,
    DegreeError,
    ExponentError,
    MultiPoly,
    NotDivisible,
    ParseError,
    castelnuovo_transform,
    double_plane_octic,
    enriques_sextic,
    generic_form,
    parse_poly,
    x,
)


def from_names(terms):
    """The polynomial whose terms map sorted name tuples, each name
    repeated by its exponent, to integers; the inverse of named()."""
    out = {}
    for names, c in terms.items():
        mono = 0
        for v in set(names):
            e = names.count(v)
            if e > MAX_EXPONENT:
                raise ExponentError(f"exponent exceeds {MAX_EXPONENT}")
            mono += e << FIELD_BITS * polymodels._index(v)
        out[mono] = out.get(mono, 0) + c
    return MultiPoly(out)


def named(p):
    """The terms of p keyed by sorted tuples of variable names, each name
    repeated by its exponent: x0^2*q01 is ("q01", "x0", "x0")."""
    field = (1 << FIELD_BITS) - 1
    return {tuple(sorted(v for i, v in enumerate(polymodels._NAMES)
                         for _ in range(m >> FIELD_BITS * i & field))): c
            for m, c in p.terms.items()}


def test_parse_expansion():
    assert str(parse_poly("(x0 + x1)^2")) == "x0^2 + 2*x0*x1 + x1^2"
    assert str(parse_poly("x0 - x0")) == "0"
    assert str(parse_poly("3*x2^2 - x1*x3")) == "-x1*x3 + 3*x2^2"
    # products with a factor that is a sum, on either side of a single term
    assert str(parse_poly("(x0+1)*x1")) == "x0*x1 + x1"
    assert str(parse_poly("2*(x0+x1)")) == "2*x0 + 2*x1"
    assert str(parse_poly("(x0+x1)*(x0-x1)")) == "x0^2 - x1^2"
    assert str(parse_poly("x0*(x1+x2)*x3")) == "x0*x1*x3 + x0*x2*x3"


# parse_poly's message for each kind of bad input
PARSE_ERRORS = [
    ("x4", "bad character 'x'"),
    ("x0\u00b2", "bad character '\u00b2'"),
    ("\u0663", "bad character '\u0663'"),
    ("(x0", "unexpected None, wanted )"),
    ("x0)", "trailing input at ')'"),
    ("x0 x1", "trailing input at 'x1'"),
    ("x0 007", "trailing input at 7"),
    ("x0 ^ x1", "unexpected ('var', 'x1'), wanted int"),
    ("2 ** 3", "unexpected token '*'"),
    ("", "unexpected end of expression"),
    ("x0 +", "unexpected end of expression"),
    ("1" * 101, "literal exceeds 100 digits"),
    ("(" * 51 + "x0" + ")" * 51, "parentheses nested deeper than 50"),
    ("x0^3*x1^3*x2^3", "degree 9 exceeds 8"),
    ("x0*x1*x2*x3*x0*x1*x2*x3*x0", "degree 9 exceeds 8"),
    ("(x0^4 + 1)*x0^5", "degree 9 exceeds 8"),
    ("x0^8*(x0+x1)", "degree 9 exceeds 8"),
    ("(x0+x1)*x0^8", "degree 9 exceeds 8"),
    ("10^60", "exponent 60 exceeds 8"),
    ("1" * 60 + "*" + "1" * 60 + "*x0^9", "coefficient exceeds 100 digits"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_poly(text)
    assert str(info.value) == message


def test_a_chain_of_powers_is_rejected():
    for text in ("2^3^2", "x0^1^2", "x0^2^5", "(x1 + x0^2^3)", "x0^2^3^4"):
        with pytest.raises(ParseError,
                           match="^a chain of powers needs parentheses$"):
            parse_poly(text)
    assert parse_poly("(x0^2)^3") == x(0) ** 6
    assert parse_poly("(2^3)^2") == 64


def test_parse_errors():
    for bad in ("x4", "x0 +", "(x1", "x0 ^ x1", "2 ** 3"):
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_arithmetic_identities():
    a, b = x(0), x(1)
    assert (a + b) * (a - b) == a ** 2 - b ** 2
    assert (a + b) ** 3 == a ** 3 + 3 * a ** 2 * b + 3 * a * b ** 2 + b ** 3
    assert a - a == MultiPoly()
    assert a + b != a - b
    assert a ** 2 != 2 * a
    assert MultiPoly.constant(3) == 3 and a != 3


def test_power_matches_repeated_multiplication():
    p = x(0) - 2 * x(1) + 3
    want = MultiPoly.constant(1)
    for n in range(9):
        assert p ** n == want
        want = want * p


@pytest.mark.parametrize("n, products", [(1, 0), (2, 1), (3, 2), (8, 3)])
def test_power_squares_no_further_than_the_top_bit(monkeypatch, n, products):
    p = x(0) + x(1)
    want = p ** n
    mul = MultiPoly.__mul__
    calls = []

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    assert p ** n == want
    assert len(calls) == products


def test_comparison_with_a_non_polynomial_is_false():
    a = x(0)
    assert (a == None) is False  # noqa: E711
    assert (a == "x0") is False
    assert a != None  # noqa: E711
    assert a != "x0"


def test_geometric_degree_ignores_symbolic_coefficients():
    q = generic_form(2, "q")
    assert q.degree() == 2
    assert q.is_homogeneous(2)
    assert {len(m) for m in named(q)} == {3}


def test_sextic_shape():
    sextic = enriques_sextic(0)
    assert len(sextic.terms) == 4
    sextic = enriques_sextic(generic_form(2, "q"))
    assert len(sextic.terms) == 14
    assert sextic.is_homogeneous(6)


def test_sextic_rejects_non_quadric():
    with pytest.raises(DegreeError):
        enriques_sextic(x(0) ** 3)


def test_sextic_symmetric_in_x2_x3():
    q = parse_poly("x2^2 + x3^2 + x0*x1")
    swap = {"x2": x(3), "x3": x(2)}
    sextic = enriques_sextic(q)
    assert sextic.substitute(swap) == sextic


def test_castelnuovo_trivial_quadric():
    quintic, certificate = castelnuovo_transform(0)
    assert certificate
    assert str(quintic) == (
        "x0^3*x1^2 + x0*x1^2*x2^2 + x0*x1^2*x3^2 + x0*x2^2*x3^2"
    )


def test_castelnuovo_generic_quadric():
    quintic, certificate = castelnuovo_transform(generic_form(2, "q"))
    assert certificate
    assert quintic.is_homogeneous(5)


def test_castelnuovo_concrete_quadric():
    quintic, certificate = castelnuovo_transform(parse_poly("x0*x1 + 2*x2^2"))
    assert certificate
    assert quintic.is_homogeneous(5)


def test_importing_the_cli_builds_no_sextic_parts():
    code = ("import enriques.cli, enriques.polymodels as p; "
            "print(p._sextic_parts.cache_info().currsize)")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_cached_sextic_parts_survive_the_transform():
    before = [str(part) for part in polymodels._sextic_parts()]
    quintics = [castelnuovo_transform(parse_poly(q))
                for q in ("x0^2 - 3*x1*x2 + 2*x3^2",
                          "5*x0*x3 - x1^2 + x2*x3")]
    assert [str(part) for part in polymodels._sextic_parts()] == before
    assert [(str(q), ok) for q, ok in quintics] == [
        ("x0^3*x1^2 - 3*x0^2*x1^2*x2 + 2*x0^2*x1*x3^2 + x0*x1^2*x2^2"
         " + x0*x1^2*x3^2 + x0*x2^2*x3^2 + x1*x2^2*x3^2", True),
        ("x0^3*x1^2 - x0^2*x1^3 + x0^2*x1*x2*x3 + x0*x1^2*x2^2"
         " + x0*x1^2*x3^2 + 5*x0*x1*x2*x3^2 + x0*x2^2*x3^2", True),
    ]


def test_octic_trivial_branch_data():
    octic, certificate = double_plane_octic(0, 0, generic_form(2, "q", nvars=3))
    assert certificate
    assert octic == (x(0) * x(1) * generic_form(2, "q", nvars=3) ** 2
                     * x(0) * x(1))


def test_octic_generic_branch_data():
    c1 = generic_form(3, "a", nvars=3)
    c2 = generic_form(3, "b", nvars=3)
    qpp = generic_form(2, "c", nvars=3)
    octic, certificate = double_plane_octic(c1, c2, qpp)
    assert certificate
    assert octic.is_homogeneous(8)


def test_octic_concrete_values():
    c1 = parse_poly("x0^3")
    c2 = parse_poly("x1^3")
    qpp = parse_poly("x0*x2")
    octic, certificate = double_plane_octic(c1, c2, qpp)
    assert certificate
    assert octic == x(0) * x(1) * (
        x(0) * x(1) * qpp ** 2 - 4 * c1 * c2
    )


def test_octic_rejects_x3_in_inputs():
    with pytest.raises(DegreeError):
        double_plane_octic(x(3) ** 3, 0, 0)
    with pytest.raises(DegreeError):
        double_plane_octic(0, 0, x(0) * x(3))


def test_octic_rejects_wrong_degrees():
    with pytest.raises(DegreeError):
        double_plane_octic(x(0) ** 2, 0, 0)


def test_string_output_is_deterministic():
    p = parse_poly("x1*x0 + x2^2 - 5")
    assert str(p) == str(parse_poly("x2^2 + x0*x1 - 5"))


def test_monomials_are_sorted_names_repeated_by_exponent():
    want = {("q01", "x0", "x0", "x3"): 3, ("q01", "x1"): -1}
    p = parse_poly("3*x0^2*x3 - x1") * MultiPoly.variable("q01")
    assert named(p) == want
    assert from_names(want) == p
    assert named(from_names(want)) == want
    assert named(x(2) ** 3) == {("x2", "x2", "x2"): 1}
    assert from_names({("x2",) * 3: 1}) == x(2) ** 3
    assert named(MultiPoly.constant(0)) == {}
    assert named(MultiPoly.constant(5)) == {(): 5}


def test_exponents_reach_the_field_bound():
    top = x(0) ** MAX_EXPONENT
    assert named(top) == {("x0",) * MAX_EXPONENT: 1}
    assert top.degree() == MAX_EXPONENT
    assert (top * x(1)).divide_by_monomial(top) == x(1)
    assert str(top * x(1)) == f"x0^{MAX_EXPONENT}*x1"


def test_an_exponent_past_the_bound_never_carries():
    top = x(0) ** MAX_EXPONENT
    with pytest.raises(ExponentError):
        top * x(0)
    with pytest.raises(ExponentError):
        x(0) ** (MAX_EXPONENT + 1)
    with pytest.raises(ExponentError):
        (top + x(1)) * (x(0) + 1)
    with pytest.raises(ExponentError):
        (top * x(1)).substitute({"x1": x(0)})
    with pytest.raises(ExponentError):
        (top * x(1)).substitute({"x1": 2 * x(0) + 1})
    with pytest.raises(ExponentError):
        from_names({("x0",) * (MAX_EXPONENT + 1): 1})


def test_substituting_a_power_never_carries():
    # 3 * 21846 does not fit a field: a packed multiply would turn
    # x1^65538 into x1^2*x2 with the guard bit clear
    assert (3 * 21846) << 16 == (2 << 16) + (1 << 32)
    with pytest.raises(ExponentError):
        (x(0) ** 21846).substitute({"x0": x(1) ** 3})
    with pytest.raises(ExponentError):
        (x(0) ** MAX_EXPONENT).substitute({"x0": x(1) ** 3})
    assert (x(0) ** 10922).substitute({"x0": x(1) ** 3}) == x(1) ** 32766


def test_a_name_registered_late_works_like_any_other():
    p = parse_poly("x0^2*x3 - 2*x1") + 1
    name = f"late{len(polymodels._NAMES)}"  # a name no polynomial has used
    z = MultiPoly.variable(name)
    zp = z * p
    assert zp == p * z
    assert named(zp) == {(name, "x0", "x0", "x3"): 1, (name, "x1"): -2,
                          (name,): 1}
    assert str(zp) == f"x0^2*x3*{name} - 2*x1*{name} + {name}"
    assert zp.divide_by_monomial(z) == p
    assert zp.degree() == 3 and (z ** 5).degree() == 0
    assert zp.substitute({name: 3}) == 3 * p
    with pytest.raises(NotDivisible):
        p.divide_by_monomial(z)
    with pytest.raises(ExponentError):
        z ** MAX_EXPONENT * zp


# the printed generic certificates, as the CLI and the benchmark's
# spot-check read them; these pin the grlex order of the terms and the
# order of the symbols inside each term
GENERIC_QUINTIC = (
    "x0^2*x1^3*q11 + x0^2*x1^2*x2*q12 + x0^2*x1^2*x3*q13"
    " + x0^2*x1*x2^2*q22 + x0^2*x1*x2*x3*q23 + x0^2*x1*x3^2*q33"
    " + x0*x1^2*x2*x3*q01 + x0*x1*x2^2*x3*q02 + x0*x1*x2*x3^2*q03"
    " + x1*x2^2*x3^2*q00 + x0^3*x1^2 + x0*x1^2*x2^2 + x0*x1^2*x3^2"
    " + x0*x2^2*x3^2"
)
GENERIC_OCTIC_SHA256 = (
    "4873c36506484051e0434fdb1ca3fcfe301c965cb4f0c2f561c5239202110b10"
)


def generic_octic():
    return double_plane_octic(generic_form(3, "a", nvars=3),
                              generic_form(3, "b", nvars=3),
                              generic_form(2, "c", nvars=3))[0]


def test_generic_certificates_print_as_recorded():
    quintic, _ = castelnuovo_transform(generic_form(2, "q"))
    assert str(quintic) == GENERIC_QUINTIC
    text = str(generic_octic())
    assert hashlib.sha256(text.encode()).hexdigest() == GENERIC_OCTIC_SHA256


NAMES = ("x0", "x1", "x2", "x3", "q0", "a12")
GEOMETRIC = NAMES[:4]


def monomials(names=NAMES, max_len=4):
    return st.lists(st.sampled_from(names), max_size=max_len).map(
        lambda vs: tuple(sorted(vs)))


def polys(names=NAMES, max_len=4):
    return st.dictionaries(monomials(names, max_len), st.integers(-20, 20),
                           max_size=6).map(from_names)


points = st.fixed_dictionaries(
    {name: st.integers(-9, 9) for name in NAMES})


def value(p, env):
    """p at env, by plain int arithmetic on its terms."""
    return sum(c * prod(env[v] for v in m) for m, c in named(p).items())


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), st.integers(0, 3), points)
def test_ring_operations_agree_with_evaluation(p, q, n, env):
    a, b = value(p, env), value(q, env)
    assert value(p + q, env) == a + b
    assert value(p - q, env) == a - b
    assert value(p * q, env) == a * b
    assert value(-p, env) == -a
    assert value(p ** n, env) == a ** n
    assert value(3 * p - 2, env) == 3 * a - 2
    assert (p * q == q * p) and (p - p == 0)


@settings(max_examples=100, deadline=None)
@given(polys(), st.dictionaries(st.sampled_from(NAMES),
                                polys(max_len=2) | st.integers(-5, 5),
                                max_size=3), points)
def test_substitute_agrees_with_evaluation(p, mapping, env):
    inner = dict(env)
    inner.update({v: r if isinstance(r, int) else value(r, env)
                  for v, r in mapping.items()})
    assert value(p.substitute(mapping), env) == value(p, inner)


def single_terms():
    """One term: a coefficient in -5..5 other than 0, times each name to
    a power up to 3."""
    return st.builds(
        lambda exps, c: from_names(
            {tuple(sorted(v for v, e in exps.items() for _ in range(e))): c}),
        st.dictionaries(st.sampled_from(NAMES), st.integers(0, 3)),
        st.integers(-5, 5).filter(bool))


@settings(max_examples=150, deadline=None)
@given(polys(), st.dictionaries(st.sampled_from(NAMES), single_terms()))
def test_single_term_substitution_agrees_with_term_products(p, mapping):
    # each term c * prod(v^e) becomes c * prod(mapping[v] ** e)
    want = MultiPoly()
    for names, c in named(p).items():
        term = MultiPoly.constant(c)
        for v in set(names):
            value = mapping.get(v, MultiPoly.variable(v))
            e = names.count(v)
            power = MultiPoly.constant(1)
            for _ in range(e):
                power = power * value
            assert value ** e == power
            term = term * power
        want = want + term
    assert p.substitute(mapping) == want


@settings(max_examples=100, deadline=None)
@given(polys(GEOMETRIC, max_len=4))
def test_printed_text_parses_back(p):
    assert parse_poly(str(p)) == p


@settings(max_examples=100, deadline=None)
@given(polys(), monomials(max_len=3), st.sampled_from((-3, -1, 1, 2)))
def test_divide_by_monomial_undoes_multiplication(p, mono, c):
    m = from_names({mono: c})
    assert (p * m).divide_by_monomial(m) == p
    if mono:
        with pytest.raises(NotDivisible):
            (p * m + 1).divide_by_monomial(m)


def test_divide_by_monomial_rejects_non_monomials():
    with pytest.raises(ValueError):
        x(0).divide_by_monomial(x(0) + 1)
    with pytest.raises(NotDivisible):
        (3 * x(0)).divide_by_monomial(2 * x(0))


def to_sympy(sp, p):
    return sp.Add(*(c * sp.Mul(*map(sp.Symbol, m))
                    for m, c in named(p).items()))


def test_generic_certificates_against_sympy():
    sp = pytest.importorskip("sympy")
    x0, x1, x2, x3 = sp.symbols("x0:4")
    q = generic_form(2, "q")
    Q = to_sympy(sp, q)
    sextic = (x0**2 * x1**2 * x2**2 + x0**2 * x1**2 * x3**2
              + x0**2 * x2**2 * x3**2 + x1**2 * x2**2 * x3**2
              + x0 * x1 * x2 * x3 * Q)
    assert sp.expand(to_sympy(sp, enriques_sextic(q)) - sextic) == 0
    cremona = {x0: x2 * x3, x1: x0 * x1, x2: x0 * x2, x3: x0 * x3}
    pulled = sp.expand(sextic.subs(cremona, simultaneous=True))
    quintic, _ = castelnuovo_transform(q)
    assert sp.expand(
        to_sympy(sp, quintic) * x0**3 * x2**2 * x3**2 - pulled) == 0

    c1, c2, qpp = (generic_form(3, "a", nvars=3),
                   generic_form(3, "b", nvars=3),
                   generic_form(2, "c", nvars=3))
    C1, C2, Qpp = (to_sympy(sp, f) for f in (c1, c2, qpp))
    a, b, c = sp.Poly(x3**2 * C1 + x0 * x1 * x3 * Qpp + x0 * x1 * C2,
                      x3).all_coeffs()
    disc = sp.expand(b**2 - 4 * a * c)
    assert sp.expand(to_sympy(sp, generic_octic()) - disc) == 0


WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1))
                     if c.isspace())
# texts are lists of tokens: any tokens of this alphabet, or the tokens
# of an expression built from factors, mostly valid
TOKENS = ["x0", "x1", "x2", "x3", "+", "-", "*", "^", "(", ")", "0", "1",
          "2", "3", "9", "10", "07", "123456789012"]
FACTORS = (st.sampled_from(["x0", "x1", "x2", "x3"])
           | st.integers(0, 10 ** 12).map(str)).map(lambda t: [t])


def _parenthesised(tokens):
    return ["("] + tokens + [")"]


def _powered(tokens, n):
    return _parenthesised(tokens) + ["^", str(n)]


EXPRESSIONS = st.recursive(FACTORS, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from("+-*"), inner).map(
        lambda t: t[0] + [t[1]] + t[2]),
    st.tuples(st.sampled_from("+-"), inner).map(lambda t: [t[0]] + t[1]),
    inner.map(_parenthesised),
    st.tuples(inner, st.integers(0, 9)).map(lambda t: _powered(*t)),
), max_leaves=10)


@st.composite
def parse_texts(draw):
    """Tokens from a grammar, or any tokens at all, with runs of any
    whitespace between them."""
    tokens = draw(EXPRESSIONS | st.lists(st.sampled_from(TOKENS),
                                         max_size=12))
    gaps = draw(st.lists(st.text(WHITESPACE, max_size=2),
                         min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return "".join(g + t for g, t in zip(gaps, tokens + [""]))


@settings(max_examples=300, deadline=None)
@given(parse_texts())
def test_parse_agrees_with_sympy(text):
    sp = pytest.importorskip("sympy")
    try:
        p = parse_poly(text)
    except ParseError:
        return
    # Python's grammar takes neither leading zeros nor every whitespace
    # character; a chain of powers never parses, so none reaches sympy
    plain = re.sub(r"[0-9]+", lambda m: str(int(m.group())),
                   " ".join(text.split()))
    want = sp.expand(sp.sympify(plain.replace("^", "**")))
    assert sp.expand(to_sympy(sp, p) - want) == 0
