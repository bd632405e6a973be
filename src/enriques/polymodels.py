"""Exact sparse multivariate polynomials over the integers.

The point of this module is to certify, by full symbolic expansion, the
identities relating the sextic, quintic and octic models: the Cremona
substitution turns the sextic into x0^3*x2^2*x3^2 times a quintic of a
known shape, and the discriminant of the double-plane quintic factors
as stated.  Generic coefficients are handled by enlarging the variable
set with degree-zero symbols.
"""

GEOMETRIC_VARS = ("x0", "x1", "x2", "x3")


class NotDivisible(ArithmeticError):
    pass


class DegreeError(ValueError):
    pass


def _var_key(name):
    return (name not in GEOMETRIC_VARS, name)


class MultiPoly:
    """Immutable polynomial with integer coefficients.

    Terms map exponent tuples (aligned with self.vars) to nonzero
    integers.  Variables outside x0..x3 count as degree 0 in the
    geometric grading.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        object.__setattr__(self, "vars", tuple(vars))
        clean = {}
        for exps, c in (terms or {}).items():
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if c:
                clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @staticmethod
    def constant(c):
        if c == 0:
            return MultiPoly()
        return MultiPoly((), {(): c})

    @staticmethod
    def variable(name):
        return MultiPoly((name,), {(1,): 1})

    @staticmethod
    def from_map(mapping):
        """Build from {name: exponent} maps: {"x0": 2, "x1": 1} -> x0^2*x1."""
        vars = tuple(sorted(mapping, key=_var_key))
        exps = tuple(mapping[v] for v in vars)
        return MultiPoly(vars, {exps: 1})

    def is_zero(self):
        return not self.terms

    def _aligned(self, other):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        vars = tuple(sorted(set(self.vars) | set(other.vars), key=_var_key))

        def remap(poly):
            idx = [vars.index(v) for v in poly.vars]
            out = {}
            for exps, c in poly.terms.items():
                new = [0] * len(vars)
                for k, e in zip(idx, exps):
                    new[k] = e
                key = tuple(new)
                out[key] = out.get(key, 0) + c
            return out

        return vars, remap(self), remap(other)

    def __add__(self, other):
        other = _coerce(other)
        vars, a, b = self._aligned(other)
        out = dict(a)
        for exps, c in b.items():
            out[exps] = out.get(exps, 0) + c
        return MultiPoly(vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        vars, a, b = self._aligned(other)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(vars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            other = _coerce(other)
        return (self - other).is_zero()

    def __hash__(self):
        vars, terms = self._pruned()
        return hash((vars, tuple(sorted(terms.items()))))

    def _pruned(self):
        """Variable tuple and terms with unused variables dropped."""
        used = [
            i for i in range(len(self.vars))
            if any(e[i] for e in self.terms)
        ]
        vars = tuple(self.vars[i] for i in used)
        terms = {
            tuple(e[i] for i in used): c for e, c in self.terms.items()
        }
        return vars, terms

    def degree(self, geometric=True):
        """Largest term degree; only x0..x3 count when geometric."""
        if not self.terms:
            return -1
        degs = []
        for exps in self.terms:
            if geometric:
                degs.append(sum(
                    e for v, e in zip(self.vars, exps)
                    if v in GEOMETRIC_VARS
                ))
            else:
                degs.append(sum(exps))
        return max(degs)

    def is_homogeneous(self, degree, geometric=True):
        for exps in self.terms:
            if geometric:
                d = sum(e for v, e in zip(self.vars, exps)
                        if v in GEOMETRIC_VARS)
            else:
                d = sum(exps)
            if d != degree:
                return False
        return True

    def substitute(self, mapping):
        """Replace variables by polynomials; unnamed variables persist."""
        result = MultiPoly()
        cache = {}
        for exps, c in self.terms.items():
            term = MultiPoly.constant(c)
            for v, e in zip(self.vars, exps):
                if e == 0:
                    continue
                if (v, e) not in cache:
                    base = mapping.get(v)
                    if base is None:
                        base = MultiPoly.variable(v)
                    cache[(v, e)] = base ** e
                term = term * cache[(v, e)]
            result = result + term
        return result

    def divide_by_monomial(self, mono):
        """Exact quotient by a single-term polynomial."""
        mono = _coerce(mono)
        if len(mono.terms) != 1:
            raise ValueError("divisor is not a monomial")
        vars, a, b = self._aligned(mono)
        (dexps, dcoef), = b.items()
        out = {}
        for exps, c in a.items():
            if any(e < d for e, d in zip(exps, dexps)):
                raise NotDivisible("monomial does not divide a term")
            q, r = divmod(c, dcoef)
            if r:
                raise NotDivisible("coefficient not divisible")
            out[tuple(e - d for e, d in zip(exps, dexps))] = q
        return MultiPoly(vars, out)

    def exact_divide(self, divisor):
        """Quotient q with self == q * divisor, or NotDivisible."""
        divisor = _coerce(divisor)
        if divisor.is_zero():
            raise NotDivisible("division by zero")
        if len(divisor.terms) == 1:
            return self.divide_by_monomial(divisor)
        vars, a, b = self._aligned(divisor)
        rem = MultiPoly(vars, a)
        div = MultiPoly(vars, b)
        lead_exps = max(div.terms, key=_grlex_key)
        lead_coef = div.terms[lead_exps]
        lead = MultiPoly(vars, {lead_exps: lead_coef})
        quot = MultiPoly(vars, {})
        while not rem.is_zero():
            rexps = max(rem.terms, key=_grlex_key)
            rcoef = rem.terms[rexps]
            if any(e < d for e, d in zip(rexps, lead_exps)):
                raise NotDivisible("leading term not divisible")
            q, r = divmod(rcoef, lead_coef)
            if r:
                raise NotDivisible("coefficient not divisible")
            step = MultiPoly(
                vars,
                {tuple(e - d for e, d in zip(rexps, lead_exps)): q},
            )
            quot = quot + step
            rem = rem - step * div
        if not (quot * divisor == self):
            raise NotDivisible("residual after division")
        return quot

    def sorted_terms(self):
        """(exponents, coefficient) pairs in graded lexicographic order."""
        return [
            (exps, self.terms[exps])
            for exps in sorted(self.terms, key=_grlex_key, reverse=True)
        ]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            body = "*".join(factors)
            if not body:
                chunk = str(abs(c))
            elif abs(c) == 1:
                chunk = body
            else:
                chunk = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, chunk))
        first_sign, first = parts[0]
        text = (first if first_sign == "+" else f"-{first}")
        for sign, chunk in parts[1:]:
            text += f" {sign} {chunk}"
        return text

    __repr__ = __str__


def _grlex_key(exps):
    return (sum(exps), exps)


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
    from itertools import combinations_with_replacement

    total = MultiPoly()
    for combo in combinations_with_replacement(range(nvars), degree):
        name = prefix + "".join(str(i) for i in combo)
        mono = MultiPoly.variable(name)
        for i in combo:
            mono = mono * x(i)
        total = total + mono
    return total


def enriques_sextic(Q):
    """The degree-6 form with the four double planes and a quadric term."""
    Q = _coerce(Q)
    if not Q.is_zero() and not Q.is_homogeneous(2):
        raise DegreeError("Q must be a quadric")
    x0, x1, x2, x3 = (x(i) for i in range(4))
    base = (
        x0 ** 2 * x1 ** 2 * x2 ** 2
        + x0 ** 2 * x1 ** 2 * x3 ** 2
        + x0 ** 2 * x2 ** 2 * x3 ** 2
        + x1 ** 2 * x2 ** 2 * x3 ** 2
    )
    return base + x0 * x1 * x2 * x3 * Q


CREMONA = None


def _cremona_map():
    global CREMONA
    if CREMONA is None:
        x0, x1, x2, x3 = (x(i) for i in range(4))
        CREMONA = {"x0": x2 * x3, "x1": x0 * x1, "x2": x0 * x2,
                   "x3": x0 * x3}
    return CREMONA


def castelnuovo_transform(Q):
    """Quintic model of the sextic under the standard Cremona map.

    Returns (quintic, certificate): the substituted sextic divided by
    x0^3*x2^2*x3^2, and whether it matches the predicted shape
    x0*(x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2 + x0^2*x1^2) + x1*Q' with
    Q' = Q(x2*x3, x0*x1, x0*x2, x0*x3).
    """
    Q = _coerce(Q)
    if not Q.is_zero() and not Q.is_homogeneous(2):
        raise DegreeError("Q must be a quadric")
    cremona = _cremona_map()
    transformed = enriques_sextic(Q).substitute(cremona)
    factor = MultiPoly.from_map({"x0": 3, "x2": 2, "x3": 2})
    quintic = transformed.divide_by_monomial(factor)
    x0, x1, x2, x3 = (x(i) for i in range(4))
    q_prime = Q.substitute(cremona)
    expected = x0 * (
        x1 ** 2 * x2 ** 2 + x1 ** 2 * x3 ** 2 + x2 ** 2 * x3 ** 2
        + x0 ** 2 * x1 ** 2
    ) + x1 * q_prime
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
        if not poly.is_zero() and not poly.is_homogeneous(deg):
            raise DegreeError(f"{label} must be homogeneous of degree {deg}")
        if any(
            e for exps in poly.terms
            for v, e in zip(poly.vars, exps) if v == "x3"
        ):
            raise DegreeError(f"{label} must not involve x3")
    x0, x1, x3 = x(0), x(1), x(3)
    quintic = x3 ** 2 * C1 + x0 * x1 * x3 * Qpp + x0 * x1 * C2
    a, b, c = _quadratic_coefficients(quintic)
    octic = b * b - 4 * a * c
    certificate = octic == x0 * x1 * (x0 * x1 * Qpp ** 2 - 4 * C1 * C2)
    return octic, certificate


def _quadratic_coefficients(poly):
    """Coefficients of x3^2, x3, 1 for a polynomial quadratic in x3."""
    if "x3" not in poly.vars:
        return MultiPoly(), MultiPoly(), poly
    k = poly.vars.index("x3")
    buckets = {0: {}, 1: {}, 2: {}}
    for exps, c in poly.terms.items():
        e = exps[k]
        if e > 2:
            raise DegreeError("degree in x3 exceeds 2")
        reduced = tuple(
            0 if i == k else v for i, v in enumerate(exps)
        )
        buckets[e][reduced] = buckets[e].get(reduced, 0) + c
    return (
        MultiPoly(poly.vars, buckets[2]),
        MultiPoly(poly.vars, buckets[1]),
        MultiPoly(poly.vars, buckets[0]),
    )


class ParseError(ValueError):
    pass


# the octic is the highest-degree form any certificate takes as input
MAX_PARSE_DEGREE = 8


def _check_parse_degree(degree):
    if degree > MAX_PARSE_DEGREE:
        raise ParseError(f"degree {degree} exceeds {MAX_PARSE_DEGREE}")


def parse_poly(text):
    """Tiny expression grammar: +, -, *, ^, parentheses, ints, x0..x3.

    No power or product whose degree would exceed MAX_PARSE_DEGREE is
    expanded; such input raises ParseError.
    """
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def eat(kind=None):
        tok = peek()
        if tok is None or (kind is not None and tok[0] != kind):
            raise ParseError(f"unexpected {tok!r}, wanted {kind}")
        pos[0] += 1
        return tok

    def atom():
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        if tok[0] == "int":
            eat()
            return MultiPoly.constant(tok[1])
        if tok[0] == "var":
            eat()
            return MultiPoly.variable(tok[1])
        if tok[0] == "(":
            eat()
            inner = expr()
            eat(")")
            return inner
        raise ParseError(f"unexpected token {tok[1]!r}")

    def power():
        base = atom()
        while peek() and peek()[0] == "^":
            eat()
            exp = eat("int")[1]
            _check_parse_degree(max(base.degree(), 0) * exp)
            base = base ** exp
        return base

    def product():
        value = power()
        while peek() and peek()[0] == "*":
            eat()
            rhs = power()
            _check_parse_degree(value.degree() + rhs.degree())
            value = value * rhs
        return value

    def expr():
        tok = peek()
        negate = False
        if tok and tok[0] in ("+", "-"):
            eat()
            negate = tok[0] == "-"
        value = product()
        if negate:
            value = -value
        while peek() and peek()[0] in ("+", "-"):
            op = eat()[0]
            rhs = product()
            value = value + (-rhs if op == "-" else rhs)
        return value

    result = expr()
    if peek() is not None:
        raise ParseError(f"trailing input at {peek()[1]!r}")
    return result


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch == "x" and i + 1 < len(text) and text[i + 1] in "0123":
            tokens.append(("var", text[i:i + 2]))
            i += 2
        elif ch in "+-*^()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ParseError(f"bad character {ch!r}")
    return tokens
