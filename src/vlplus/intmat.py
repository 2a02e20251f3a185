"""Exact linear algebra over the integers, for small dense matrices.

Everything returns Python ints, never floats: eliminations are fraction-free
(Bareiss).  Only rational_inverse, an oracle for tests, works over Fractions.
"""

from __future__ import annotations

from fractions import Fraction

IntMatrix = list[list[int]]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def det_int(m: list[list[int]]) -> int:
    """Determinant of an integer matrix, fraction-free Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
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


def leading_minors(m: list[list[int]]) -> list[int]:
    """Leading principal minors of a symmetric matrix, up to the first that is not positive."""
    return ldl(m)[0]


def rational_inverse(m: list[list[int]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular integer matrix, Gauss-Jordan over Fractions."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def snf(m: list[list[int]]) -> tuple[list[int], IntMatrix, IntMatrix]:
    """Smith normal form with transforms, in one pass.

    Returns (d, u, v) with u*m*v = diag(d), u and v unimodular, d positive
    and d[i] | d[i+1]; raises ZeroDivisionError on a singular input.  Step
    t moves the least nonzero entry of the trailing block to (t, t) and
    clears row and column t by floor division, starting over while a
    remainder is left.  With both clear, a block entry that the pivot does
    not divide has its row added to row t, and the step starts over; so
    d[t] divides the whole remaining block when the step ends.
    """
    n = len(m)
    a = [row[:] for row in m]
    u, v = identity(n), identity(n)

    def add_row(i: int, j: int, q: int) -> None:  # row i += q * row j, in a and u
        for w in (a, u):
            w[i] = [x + q * y for x, y in zip(w[i], w[j])]

    def add_col(i: int, j: int, q: int) -> None:  # col i += q * col j, in a and v
        for row in a + v:
            row[i] += q * row[j]

    for t in range(n):
        while True:
            block = [(abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, n) if a[i][j]]
            if not block:
                raise ZeroDivisionError("matrix is singular")
            _, i, j = min(block)
            a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
            if j != t:
                for row in a + v:
                    row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for k in range(t + 1, n):
                if a[k][t]:
                    add_row(k, t, -(a[k][t] // p))
                if a[t][k]:
                    add_col(k, t, -(a[t][k] // p))
            if any(a[k][t] or a[t][k] for k in range(t + 1, n)):
                continue
            bad = [k for k in range(t + 1, n) for x in a[k] if x % p]
            if not bad:
                break
            add_row(t, bad[0], 1)
        if a[t][t] < 0:
            a[t], u[t] = [-x for x in a[t]], [-x for x in u[t]]
    return [a[i][i] for i in range(n)], u, v


def ldl(gram) -> tuple[list[int], list[list[int]]]:
    """Fraction-free LDL^T elimination of a symmetric integer matrix, without pivoting.

    (minors, rows): minors[k] is the leading principal minor of size k + 1 and
    rows[k] the pivot row of step k from column k on, each entry a determinant
    (Sylvester), so step k divides exactly by minors[k-1].  The pass ends at the
    first minor that is not positive; for positive definite input
    q(x) = sum_k (rows[k] . x[k:])^2 / (minors[k-1] minors[k])."""
    a, n = [list(r) for r in gram], len(gram)
    minors, rows, prev = [], [], 1
    for k in range(n):
        p = a[k][k]
        minors.append(p)
        rows.append(a[k][k:])
        if p <= 0:
            break
        # the trailing block stays symmetric: update its upper triangle only
        for i in range(k + 1, n):
            for j in range(i, n):
                a[i][j] = (a[i][j] * p - a[k][i] * a[k][j]) // prev
        prev = p
    return minors, rows


def gf2_nullspace(b: list[list[int]]) -> list[tuple[int, ...]]:
    """Deterministic basis of the null space of a symmetric matrix over GF(2).

    Row-reduces a copy of b and completes the free columns to unit-style
    basis vectors; for b = 0 this yields the standard basis.
    """
    n = len(b)
    a = [[x & 1 for x in row] for row in b]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(n):
            if i != r and a[i][col]:
                a[i] = [(x + y) & 1 for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for row_idx, p in enumerate(pivots):
            vec[p] = a[row_idx][f]
        basis.append(tuple(vec))
    return basis
