"""Independent spot-check of a sample of polynomial certificates.

The sample holds printed polynomials: the inputs, and the outputs the
program computed from them.  Each check evaluates both sides of the
certificate's identity at random integer points with plain ``int``
arithmetic on the printed text.  It shares no code with
``enriques.polymodels``; it runs in ``run.py``'s process, outside the
timed region and outside the measured process.
"""

import ast
import random


def evaluate(text, env):
    """Value of a printed polynomial (+ - * ^, ints, names) at ``env``."""
    return _eval(ast.parse(text.replace("^", "**"), mode="eval").body, env)


def _eval(node, env):
    if isinstance(node, ast.BinOp):
        a, b = _eval(node.left, env), _eval(node.right, env)
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        if isinstance(node.op, ast.Pow) and 0 <= b <= 64:
            return a ** b
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval(node.operand, env)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    elif isinstance(node, ast.Name):
        return env[node.id]
    raise ValueError(f"not a polynomial: {ast.dump(node)}")


class _Point(dict):
    """Values of x0..x3, and of every other name a random integer drawn
    on first use, or taken from ``base`` when one is given."""

    def __init__(self, xs, rng, base=None):
        super().__init__(x0=xs[0], x1=xs[1], x2=xs[2], x3=xs[3])
        self.rng = rng
        self.base = base

    def __missing__(self, name):
        value = (self.base[name] if self.base is not None
                 else self.rng.randint(-30, 30))
        self[name] = value
        return value


def _points(rng, count=3):
    return [_Point([rng.choice((-1, 1)) * rng.randint(1, 30)
                    for _ in range(4)], rng) for _ in range(count)]


def sextic_ok(q_text, quintic_text, rng):
    """The Cremona pull-back of the sextic, divided by x0^3*x2^2*x3^2, is
    the quintic x0*(x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2 + x0^2*x1^2) + x1*Q'
    with Q' = Q(x2*x3, x0*x1, x0*x2, x0*x3)."""
    for p in _points(rng):
        x0, x1, x2, x3 = p["x0"], p["x1"], p["x2"], p["x3"]
        y = _Point([x2 * x3, x0 * x1, x0 * x2, x0 * x3], rng, base=p)
        y0, y1, y2, y3 = y["x0"], y["x1"], y["x2"], y["x3"]
        q_y = evaluate(q_text, y)
        sextic_y = (y0**2 * y1**2 * y2**2 + y0**2 * y1**2 * y3**2
                    + y0**2 * y2**2 * y3**2 + y1**2 * y2**2 * y3**2
                    + y0 * y1 * y2 * y3 * q_y)
        quintic = evaluate(quintic_text, p)
        shape = (x0 * (x1**2 * x2**2 + x1**2 * x3**2 + x2**2 * x3**2
                       + x0**2 * x1**2) + x1 * q_y)
        if quintic != shape or sextic_y != x0**3 * x2**2 * x3**2 * quintic:
            return False
    return True


def octic_ok(c1_text, c2_text, qpp_text, octic_text, rng):
    """The octic is the discriminant in x3 of
    x3^2*C1 + x0*x1*x3*Q'' + x0*x1*C2."""
    for p in _points(rng):
        c1, c2, qpp = (evaluate(t, p) for t in (c1_text, c2_text, qpp_text))
        x0x1 = p["x0"] * p["x1"]
        if evaluate(octic_text, p) != (x0x1 * qpp) ** 2 - 4 * c1 * x0x1 * c2:
            return False
    return True


def check(samples, seed):
    """(attempted, failed, errors) over every sampled certificate."""
    rng = random.Random(seed)
    cases = [("sextic", sextic_ok, args)
             for args in samples.get("sextic", [])]
    cases += [("octic", octic_ok, args) for args in samples.get("octic", [])]
    for q, quintic, a, b, c, octic in samples.get("generic", []):
        cases += [("generic sextic", sextic_ok, (q, quintic)),
                  ("generic octic", octic_ok, (a, b, c, octic))]
    failed, errors = 0, []
    for kind, fn, args in cases:
        try:
            ok = None not in args and fn(*args, rng)
        except (ValueError, SyntaxError, KeyError, RecursionError) as exc:
            ok = False
            kind = f"{kind}: {type(exc).__name__}: {exc}"
        if not ok:
            failed += 1
            errors.append(f"spot-check {kind} {args[0]!r}")
    return len(cases), failed, errors
