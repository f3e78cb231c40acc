"""Checks on program outputs that do not go through the program's own code.

Integer Bareiss determinants, term-by-term evaluation, the deleted Macaulay
matrix built from its definition, and a canonical digest of a polynomial.
"""

from __future__ import annotations

import hashlib
from itertools import combinations, combinations_with_replacement


def monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        exp = [0] * n
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return out


def coefficient_name(i: int, alpha) -> str:
    """Name the generic system gives the coefficient of x^alpha in P_{i+1}."""
    return f"c{i + 1}_" + "".join(str(e) for e in alpha)


def deleted_matrix_at(degrees, nu: int, S, point: dict[str, int]) -> list[list[int]]:
    """Multiplication map in degree nu with the rows of S removed, with every
    coefficient variable replaced by its value in ``point``."""
    n = len(degrees)
    drop = set(S)
    rows = [m for m in monomials(n, nu) if m not in drop]
    cols = [(i, mp) for i, d in enumerate(degrees) if nu >= d for mp in monomials(n, nu - d)]
    mat = []
    for m in rows:
        row = []
        for i, mp in cols:
            alpha = tuple(a - b for a, b in zip(m, mp))
            row.append(point[coefficient_name(i, alpha)] if min(alpha) >= 0 else 0)
        mat.append(row)
    return mat


def det(rows: list[list[int]]) -> int:
    """Integer determinant by fraction-free Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def maximal_minors(mat: list[list[int]]) -> list[int]:
    r = len(mat)
    c = len(mat[0]) if r else 0
    return [det([[row[j] for j in cols] for row in mat]) for cols in combinations(range(c), r)]


def evaluate(terms, values) -> int:
    """Value of {exponent tuple: coefficient} at the point ``values``."""
    total = 0
    for exp, c in terms.items():
        v = c
        for x, e in zip(values, exp):
            if e:
                v *= x ** e
        total += v
    return total


def digest(terms, names) -> str:
    """sha256 of the sorted (exponent, coefficient) list and the variable names."""
    h = hashlib.sha256(repr(tuple(names)).encode())
    for exp in sorted(terms):
        h.update(repr((exp, str(terms[exp]))).encode())
    return h.hexdigest()
