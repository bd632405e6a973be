"""Exact linear algebra over the integers.

All matrices are plain lists of lists of Python ints, so every result is
exact at arbitrary precision.  The one workhorse is Smith normal form
with transformation matrices: rank, discriminant, index, span membership
and integral solving all read it.
"""


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def smith_normal_form(m):
    """Return (d, u, v) with u*m*v = d diagonal, u and v unimodular.

    The diagonal entries of d are nonnegative and each divides the next.
    Each round pivots on a nonzero entry of least absolute value in the
    block still to be reduced, so every remainder left in the pivot row or
    column is smaller than the pivot and the entries stay small.
    """
    if not m:
        return [], [], []
    rows = len(m)
    cols = len(m[0])
    a = [list(row) for row in m]
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row i += q * row j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = None  # (|entry|, row, col), the first least in row order
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        swap_rows(t, pi)
        swap_cols(t, pj)
        p = a[t][t]
        for i in range(t + 1, rows):
            if a[i][t]:
                add_row(i, t, -(a[i][t] // p))
        for j in range(t + 1, cols):
            if a[t][j]:
                add_col(j, t, -(a[t][j] // p))
        # a unit pivot leaves no remainder and divides every entry
        if p not in (1, -1):
            if any(a[i][t] for i in range(t + 1, rows)) or any(
                    a[t][j] for j in range(t + 1, cols)):
                continue  # a smaller remainder is the next pivot
            # enforce divisibility a[t][t] | a[i][j]: a row holding an
            # entry the pivot does not divide is added to row t, and
            # reduced again
            bad = next((i for i in range(t + 1, rows)
                        for j in range(t + 1, cols) if a[i][j] % p), None)
            if bad is not None:
                add_row(t, bad, 1)
                continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    d = [[a[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    return d, u, v

