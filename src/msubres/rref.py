"""Gauss-Jordan elimination over QQ, shared by linalg and polyring.

Kept free of package imports so the polynomial layer can use it without an
import cycle through linalg.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a rational matrix and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def kernel(rows: Sequence[Sequence], ncols: int) -> list[list[Fraction]]:
    """Right-kernel basis: one vector per free column, 1 in that column."""
    red, pivots = rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -red[ri][fc]
        basis.append(vec)
    return basis
