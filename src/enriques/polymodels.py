"""Exact sparse multivariate polynomials over the integers.

The point of this module is to certify, by full symbolic expansion, the
identities relating the sextic, quintic and octic models: the Cremona
substitution turns the sextic into x0^3*x2^2*x3^2 times a quintic of a
known shape, and the discriminant of the double-plane quintic factors
as stated.  Generic coefficients are handled by enlarging the variable
set with degree-zero symbols.

A polynomial is one dict from monomials to nonzero integers.  A monomial
is one int of packed exponents: the exponent of variable i sits in bits
16*i to 16*i+15, so x0^2*x3 is 2 + (1 << 48) and the constant monomial
is 0.  x0..x3 are variables 0..3; any other name takes the next index
the first time it is used, from one name table for the whole process.
So a product monomial is the sum of its factors, two polynomials in
different variables need no common variable list, and two polynomials
are equal exactly when their dicts are.  The top bit of each field is a
guard bit: a product with an exponent above MAX_EXPONENT raises
ExponentError instead of carrying into the next variable's field.
"""

import re
from functools import lru_cache
from itertools import combinations_with_replacement

FIELD_BITS = 16
_FIELD = (1 << FIELD_BITS) - 1
MAX_EXPONENT = _FIELD >> 1
_X3 = 3 * FIELD_BITS  # the shift of x3's field

# the variable table, append-only: index -> name, name -> index, and the
# guard bits of every field in use
_NAMES = []
_INDEX = {}
_guard = 0


class NotDivisible(ArithmeticError):
    pass


class DegreeError(ValueError):
    pass


class ExponentError(OverflowError):
    pass


def _index(name):
    """The index of a variable, the next free one on first use."""
    global _guard
    i = _INDEX.get(name)
    if i is None:
        i = _INDEX[name] = len(_NAMES)
        _NAMES.append(name)
        _guard |= 1 << (FIELD_BITS * i + FIELD_BITS - 1)
    return i


for _name in ("x0", "x1", "x2", "x3"):
    _index(_name)


def _geometric_degree(mono):
    return ((mono & _FIELD) + (mono >> FIELD_BITS & _FIELD)
            + (mono >> 2 * FIELD_BITS & _FIELD) + (mono >> _X3 & _FIELD))


def _degree(terms):
    return max(map(_geometric_degree, terms), default=-1)


class MultiPoly:
    """Immutable polynomial with integer coefficients.

    ``terms`` maps packed monomials with no exponent above MAX_EXPONENT
    (see the module docstring) to nonzero integers; the constructor drops
    zero coefficients and expects its keys in that form.  Variables
    outside x0..x3 count as degree 0 in the geometric grading.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = dict(terms) if terms else {}
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @staticmethod
    def constant(c):
        return MultiPoly({0: c})

    @staticmethod
    def variable(name):
        return MultiPoly({1 << FIELD_BITS * _index(name): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in _coerce(other).terms.items():
            out[m] = out.get(m, 0) + c
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        return MultiPoly(_product(self.terms, _coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        """A single term scales its exponents; any other polynomial is
        squared and multiplied from the low bit, with no squaring past the
        top bit: p ** 2**k makes exactly k products."""
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return MultiPoly.constant(1)
        if len(self.terms) == 1:
            return MultiPoly(_power(self.terms, n))
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, (MultiPoly, int)):
            return NotImplemented
        return self.terms == _coerce(other).terms

    def degree(self):
        """Largest geometric term degree (only x0..x3 count); -1 for 0."""
        return _degree(self.terms)

    def is_homogeneous(self, degree):
        return all(_geometric_degree(m) == degree for m in self.terms)

    def substitute(self, mapping):
        """Replace variables by polynomials or ints, all at once; unnamed
        variables persist.  While a term meets only single-term powers,
        its image is one (monomial, coefficient) pair."""
        # (shift of the variable, its value's terms, its powers so far)
        subs = [(FIELD_BITS * _INDEX[v], _coerce(p).terms, {})
                for v, p in mapping.items() if v in _INDEX]
        keep = ~sum(_FIELD << shift for shift, _, _ in subs)
        out = {}
        for mono, c in self.terms.items():
            m = mono & keep
            term = None  # the image as a term dict, once it needs one
            for shift, terms, powers in subs:
                e = mono >> shift & _FIELD
                if not e:
                    continue
                power = powers.get(e)
                if power is None:
                    power = powers[e] = _power(terms, e)
                if term is not None:
                    term = _product(term, power)
                elif len(power) == 1:
                    (pm, pc), = power.items()
                    m += pm  # both fields at most MAX_EXPONENT: no carry
                    c *= pc
                    if m & _guard:
                        raise ExponentError(
                            f"exponent exceeds {MAX_EXPONENT}")
                else:
                    term = _product({m: c}, power)
            if term is None:
                out[m] = out.get(m, 0) + c
            else:
                for m, c in term.items():
                    out[m] = out.get(m, 0) + c
        return MultiPoly(out)

    def divide_by_monomial(self, mono):
        """Exact quotient by a single-term polynomial."""
        mono = _coerce(mono)
        if len(mono.terms) != 1:
            raise ValueError("divisor is not a monomial")
        (dmono, dcoef), = mono.terms.items()
        out = {}
        for m, c in self.terms.items():
            # a field of m below dmono's borrows, which sets its guard bit
            if (m - dmono) & _guard:
                raise NotDivisible("monomial does not divide a term")
            q, r = divmod(c, dcoef)
            if r:
                raise NotDivisible("coefficient not divisible")
            out[m - dmono] = q
        return MultiPoly(out)

    def __str__(self):
        if not self.terms:
            return "0"
        # graded lex order, largest first: total degree over every name,
        # then the dense exponents with x0..x3 leading, then the other
        # names in string order
        used = 0
        for m in self.terms:
            used |= m
        order = sorted((i for i in range(len(_NAMES))
                        if used >> FIELD_BITS * i & _FIELD),
                       key=lambda i: (i > 3, _NAMES[i]))
        fields = [(FIELD_BITS * i, _NAMES[i]) for i in order]
        rows = []
        for m, c in self.terms.items():
            exps = [m >> s & _FIELD for s, _ in fields]
            rows.append((sum(exps), exps, c))
        rows.sort(reverse=True)  # no two rows share their exponents
        chunks = []
        for _, exps, c in rows:
            body = "*".join([v if e == 1 else f"{v}^{e}"
                             for (_, v), e in zip(fields, exps) if e])
            if not body:
                body = str(abs(c))
            elif abs(c) != 1:
                body = f"{abs(c)}*{body}"
            chunks.append(f" - {body}" if c < 0 else f" + {body}")
        head = chunks[0]
        chunks[0] = f"-{head[3:]}" if head[1] == "-" else head[3:]
        return "".join(chunks)

    __repr__ = __str__


def _product(terms1, terms2):
    """The term dict of the product of two term dicts; zero sums are kept.

    Raises ExponentError when an exponent exceeds MAX_EXPONENT: with every
    input field at most MAX_EXPONENT, a sum reaches at most the guard bit
    and never carries into the next field.
    """
    if len(terms1) == 1:
        terms1, terms2 = terms2, terms1
    if len(terms2) == 1:
        # a single term shifts every monomial, in the same order
        (m2, c2), = terms2.items()
        out = {m1 + m2: c1 * c2 for m1, c1 in terms1.items()}
    else:
        out = {}
        get = out.get
        for m1, c1 in terms1.items():
            for m2, c2 in terms2.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
    if any(map(_guard.__and__, out)):
        raise ExponentError(f"exponent exceeds {MAX_EXPONENT}")
    return out


def _power(terms, n):
    """The term dict of the n-th power of a term dict, n >= 1.

    A single term scales its monomial, n*mono.  Each field is checked
    before that packed multiply: n times a field above MAX_EXPONENT would
    carry into the next field with its guard bit clear.
    """
    if len(terms) != 1:
        return (MultiPoly(terms) ** n).terms
    (mono, c), = terms.items()
    rest = mono
    while rest:
        if (rest & _FIELD) * n > MAX_EXPONENT:
            raise ExponentError(f"exponent exceeds {MAX_EXPONENT}")
        rest >>= FIELD_BITS
    return {n * mono: c ** n}


def _coerce(x):
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, int):
        return MultiPoly.constant(x)
    raise TypeError(f"cannot treat {type(x)!r} as a polynomial")


def x(i):
    return MultiPoly.variable(f"x{i}")


def generic_form(degree, prefix, nvars=4):
    """Homogeneous form of given degree in x0..x{nvars-1} with symbolic
    coefficients."""
    total = MultiPoly()
    for combo in combinations_with_replacement(range(nvars), degree):
        name = prefix + "".join(str(i) for i in combo)
        mono = MultiPoly.variable(name)
        for i in combo:
            mono = mono * x(i)
        total = total + mono
    return total


@lru_cache(maxsize=None)
def _sextic_parts():
    """The parts of the sextic and of its Cremona image that do not depend
    on Q, built on first use: the four double planes, x0*x1*x2*x3, the
    Cremona substitution, x0^3*x2^2*x3^2 and the quintic's fixed part
    x0*(x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2 + x0^2*x1^2).  Callers must not
    mutate the substitution dict."""
    x0, x1, x2, x3 = (x(i) for i in range(4))
    planes = (
        x0 ** 2 * x1 ** 2 * x2 ** 2
        + x0 ** 2 * x1 ** 2 * x3 ** 2
        + x0 ** 2 * x2 ** 2 * x3 ** 2
        + x1 ** 2 * x2 ** 2 * x3 ** 2
    )
    cremona = {"x0": x2 * x3, "x1": x0 * x1, "x2": x0 * x2, "x3": x0 * x3}
    factor = x0 ** 3 * x2 ** 2 * x3 ** 2
    fixed = x0 * (
        x1 ** 2 * x2 ** 2 + x1 ** 2 * x3 ** 2 + x2 ** 2 * x3 ** 2
        + x0 ** 2 * x1 ** 2
    )
    return planes, x0 * x1 * x2 * x3, cremona, factor, fixed


def enriques_sextic(Q):
    """The degree-6 form with the four double planes and a quadric term."""
    Q = _coerce(Q)
    if not Q.is_homogeneous(2):
        raise DegreeError("Q must be a quadric")
    planes, x0123, _, _, _ = _sextic_parts()
    return planes + x0123 * Q


def castelnuovo_transform(Q):
    """Quintic model of the sextic under the standard Cremona map.

    Returns (quintic, certificate): the substituted sextic divided by
    x0^3*x2^2*x3^2, and whether it matches the predicted shape
    x0*(x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2 + x0^2*x1^2) + x1*Q' with
    Q' = Q(x2*x3, x0*x1, x0*x2, x0*x3).
    """
    sextic = enriques_sextic(Q)  # raises DegreeError unless Q is a quadric
    _, _, cremona, factor, fixed = _sextic_parts()
    quintic = sextic.substitute(cremona).divide_by_monomial(factor)
    expected = fixed + x(1) * _coerce(Q).substitute(cremona)
    return quintic, quintic == expected


def double_plane_octic(C1, C2, Qpp):
    """Discriminant of x3^2*C1 + x0*x1*x3*Q'' + x0*x1*C2 in x3.

    Returns (octic, certificate) where the certificate records the
    factorization octic == x0*x1*(x0*x1*Q''^2 - 4*C1*C2).  The inputs
    may not involve x3, so that the quintic really is a quadratic in
    x3 with the displayed coefficients.
    """
    C1, C2, Qpp = _coerce(C1), _coerce(C2), _coerce(Qpp)
    for poly, deg, label in ((C1, 3, "C1"), (C2, 3, "C2"), (Qpp, 2, "Q''")):
        if not poly.is_homogeneous(deg):
            raise DegreeError(f"{label} must be homogeneous of degree {deg}")
        if any(m >> _X3 & _FIELD for m in poly.terms):
            raise DegreeError(f"{label} must not involve x3")
    x0, x1, x3 = x(0), x(1), x(3)
    quintic = x3 ** 2 * C1 + x0 * x1 * x3 * Qpp + x0 * x1 * C2
    a, b, c = _quadratic_coefficients(quintic)
    octic = b * b - 4 * a * c
    certificate = octic == x0 * x1 * (x0 * x1 * Qpp ** 2 - 4 * C1 * C2)
    return octic, certificate


def _quadratic_coefficients(poly):
    """Coefficients of x3^2, x3, 1 for a polynomial quadratic in x3."""
    buckets = ({}, {}, {})
    for m, c in poly.terms.items():
        e = m >> _X3 & _FIELD
        if e > 2:
            raise DegreeError("degree in x3 exceeds 2")
        buckets[e][m - (e << _X3)] = c
    return tuple(MultiPoly(b) for b in reversed(buckets))


class ParseError(ValueError):
    pass


# the octic is the highest-degree form any certificate takes as input
MAX_PARSE_DEGREE = 8
# bound on the decimal digits of a literal or of a parsed coefficient
MAX_PARSE_DIGITS = 100
# bound on nested parentheses, far inside the interpreter's recursion limit
MAX_PARSE_NESTING = 50


# a token: an int literal, a variable, an operator, or a bad character;
# \S matches exactly the characters that str.isspace rejects, so the
# whitespace between tokens is skipped
_TOKEN = re.compile(r"[0-9]+|x[0-3]|[-+*^()]|\S")
# the kind of each token other than an int literal or a bad character
_KINDS = {"x0": "var", "x1": "var", "x2": "var", "x3": "var",
          **{op: op for op in "+-*^()"}}
_COEFFICIENT_BOUND = 10 ** MAX_PARSE_DIGITS


def _check_parse_degree(degree):
    if degree > MAX_PARSE_DEGREE:
        raise ParseError(f"degree {degree} exceeds {MAX_PARSE_DEGREE}")


def _check_parse_coefficient(c):
    if abs(c) >= _COEFFICIENT_BOUND:
        raise ParseError(f"coefficient exceeds {MAX_PARSE_DIGITS} digits")


def _parsed_terms(terms):
    """terms without its zero coefficients, unless one is too long."""
    for c in terms.values():
        _check_parse_coefficient(c)
    return {m: c for m, c in terms.items() if c}


def parse_poly(text):
    """Tiny expression grammar: +, -, *, ^, parentheses, ints, x0..x3.

    No power or product whose degree would exceed MAX_PARSE_DEGREE is
    expanded, and no exponent may exceed it either; a literal, or a
    coefficient of a power or product, above MAX_PARSE_DIGITS digits is
    rejected as well, and so are parentheses nested more than
    MAX_PARSE_NESTING deep.  Such input raises ParseError, and so does a
    chain of powers a^b^c, which must be parenthesised.
    """
    kinds, values = _tokenize(text)
    pos = 0

    def expect(kind):
        nonlocal pos
        if kinds[pos] != kind:
            token = kinds[pos] and (kinds[pos], values[pos])
            raise ParseError(f"unexpected {token!r}, wanted {kind}")
        pos += 1
        return values[pos - 1]

    def atom():
        nonlocal pos
        kind = kinds[pos]
        if kind is None:
            raise ParseError("unexpected end of expression")
        value = values[pos]
        if kind not in ("int", "var", "("):
            raise ParseError(f"unexpected token {value!r}")
        pos += 1
        if kind == "int":
            return {0: value} if value else {}
        if kind == "var":
            return {1 << FIELD_BITS * _INDEX[value]: 1}
        inner = expr()
        expect(")")
        return inner

    def power():
        nonlocal pos
        base = atom()
        if kinds[pos] == "^":
            pos += 1
            exp = expect("int")
            _check_parse_degree(max(_degree(base), 0) * exp)
            if exp > MAX_PARSE_DEGREE:
                raise ParseError(
                    f"exponent {exp} exceeds {MAX_PARSE_DEGREE}")
            base = _parsed_terms((MultiPoly(base) ** exp).terms)
            if kinds[pos] == "^":
                # a^b^c groups one way in some conventions and the other
                # way in others, so it must be written with parentheses
                raise ParseError("a chain of powers needs parentheses")
        return base

    def product():
        nonlocal pos
        value = power()
        if len(value) == 1:
            # a run of single nonzero terms folds into one term, with the
            # checks a product of term dicts would make at each factor
            (mono, coef), = value.items()
            degree = _geometric_degree(mono)
            while kinds[pos] == "*":
                pos += 1
                rhs = power()
                if len(rhs) != 1:
                    _check_parse_degree(degree + _degree(rhs))
                    value = _parsed_terms(_product({mono: coef}, rhs))
                    break
                (m, c), = rhs.items()
                degree += _geometric_degree(m)
                _check_parse_degree(degree)
                mono += m
                coef *= c
                _check_parse_coefficient(coef)
            else:
                return {mono: coef}
        while kinds[pos] == "*":
            pos += 1
            rhs = power()
            _check_parse_degree(_degree(value) + _degree(rhs))
            value = _parsed_terms(_product(value, rhs))
        return value

    def expr():
        nonlocal pos
        sign = -1 if kinds[pos] == "-" else 1
        if kinds[pos] in ("+", "-"):
            pos += 1
        value = {}
        while True:
            for m, c in product().items():
                value[m] = value.get(m, 0) + sign * c
            if kinds[pos] not in ("+", "-"):
                return {m: c for m, c in value.items() if c}
            sign = -1 if kinds[pos] == "-" else 1
            pos += 1

    result = expr()
    if kinds[pos] is not None:
        raise ParseError(f"trailing input at {values[pos]!r}")
    return MultiPoly(result)


def _tokenize(text):
    """The kinds and values of the tokens of text, each list closed by
    None: ("int", its value), ("var", its name), or an operator as both."""
    kinds = []
    values = []
    depth = 0
    for token in _TOKEN.findall(text):
        kind = _KINDS.get(token)
        if kind is None:
            if not "0" <= token[0] <= "9":
                raise ParseError(f"bad character {token!r}")
            if len(token) > MAX_PARSE_DIGITS:
                raise ParseError(
                    f"literal exceeds {MAX_PARSE_DIGITS} digits")
            kinds.append("int")
            values.append(int(token))
            continue
        if kind in "()":
            depth += 1 if kind == "(" else -1
            if depth > MAX_PARSE_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_PARSE_NESTING}")
        kinds.append(kind)
        values.append(token)
    kinds.append(None)
    values.append(None)
    return kinds, values
