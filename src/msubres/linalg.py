"""Exact dense linear algebra over ZZ[vars] and QQ.

Provides rank and kernel over QQ (one fraction-free Gauss-Jordan elimination
over ZZ) and the gcd of maximal minors that realizes subresultants.
That gcd is the determinant of a complex that is exact at a known point,
taken as one Cayley ratio: square blocks picked by elimination at the point,
each determinant from one packed-exponent sweep over a matrix whose entries
are all 0 or +-one variable, which every Koszul matrix is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .polyring import (
    Polynomial,
    VarUniverse,
    exact_divide,
    pack_exponents,
    packed_width,
    unpack_exponents,
)


class SymbolicEntryError(TypeError):
    """An entry is of a kind the operation does not take."""


class ExactMatrix:
    """Rectangular matrix with exact scalar or polynomial entries."""

    __slots__ = ("entries", "universe")

    def __init__(
        self,
        entries: Sequence[Sequence[int | Fraction | Polynomial]],
        universe: Optional[VarUniverse] = None,
    ):
        self.entries = [list(row) for row in entries]
        ncols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != ncols:
                raise ValueError("ragged matrix")
        if universe is None:
            for row in self.entries:
                for e in row:
                    if isinstance(e, Polynomial):
                        universe = e.universe
                        break
                if universe is not None:
                    break
        self.universe = universe
        if universe is not None:
            for row in self.entries:
                for e in row:
                    if isinstance(e, Polynomial) and e.universe != universe:
                        raise ValueError("matrix entries live in different universes")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def is_scalar(self) -> bool:
        return all(
            not isinstance(e, Polynomial) for row in self.entries for e in row
        )

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix(
            [[self.entries[i][j] for j in cols] for i in rows], universe=self.universe
        )


# -- packed single-variable sweep -------------------------------------------


def _single_var_codes(m: ExactMatrix) -> list[list]:
    """Per-entry (var_index, sign), or None for a zero entry.

    Raises SymbolicEntryError unless every entry is 0 or +-one variable.
    """
    out = []
    for row in m.entries:
        orow = []
        for e in row:
            if not isinstance(e, Polynomial):
                if e == 0:
                    orow.append(None)
                    continue
                raise SymbolicEntryError(f"entry {e!r} is not 0 or +-one variable")
            if e.is_zero():
                orow.append(None)
                continue
            exp, c = next(iter(e.terms.items()))
            if len(e.terms) != 1 or sum(exp) != 1 or c not in (1, -1):
                raise SymbolicEntryError(f"entry {e} is not 0 or +-one variable")
            orow.append((exp.index(1), c))
        out.append(orow)
    return out


def _packed_minors(m: ExactMatrix) -> dict[tuple[int, ...], Polynomial]:
    """All maximal minors of an r x c matrix with 0/+-variable entries.

    One sweep over the rows expands every minor at once: the state after k
    rows maps each set of k used columns to the signed sum of products over
    the ways of placing the first k rows in them.  Returns
    {sorted column tuple: minor}, leaving out the minors that vanish.
    Raises SymbolicEntryError when some entry is not 0 or +-variable.
    """
    codes = _single_var_codes(m)
    r, c = m.nrows, m.ncols
    universe = m.universe
    nvars = universe.n
    # a minor has total degree at most r, so no exponent exceeds r
    width = packed_width(r)
    unit = [pack_exponents((0,) * v + (1,), width) for v in range(nvars)]

    # states: dict columns-used-bitmask -> dict packed-monomial -> int coeff
    states: dict[int, dict[int, int]] = {0: {0: 1}}
    for k in range(r):
        row = codes[k]
        nz = [(j, row[j]) for j in range(c) if row[j] is not None]
        new: dict[int, dict[int, int]] = {}
        for mask, poly in states.items():
            for j, (var, sgn) in nz:
                bit = 1 << j
                if mask & bit:
                    continue
                # placing row k in column j adds one inversion per used
                # column to its right
                s = -sgn if (mask >> (j + 1)).bit_count() % 2 else sgn
                shift = unit[var]
                key = mask | bit
                acc = new.get(key)
                if acc is None:
                    acc = {}
                    new[key] = acc
                if s == 1:
                    for mono, cf in poly.items():
                        mk = mono + shift
                        v = acc.get(mk, 0) + cf
                        if v:
                            acc[mk] = v
                        else:
                            del acc[mk]
                else:
                    for mono, cf in poly.items():
                        mk = mono + shift
                        v = acc.get(mk, 0) - cf
                        if v:
                            acc[mk] = v
                        else:
                            del acc[mk]
        states = {mask: poly for mask, poly in new.items() if poly}
        if not states:
            break

    return {
        tuple(j for j in range(c) if mask >> j & 1): Polynomial(
            universe, {unpack_exponents(mono, width, nvars): cf for mono, cf in poly.items()}
        )
        for mask, poly in states.items()
    }


# -- rank and kernel over Q, by integer elimination ------------------------


def _integer_rref(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of a rational matrix.

    Rows are scaled to integers once, at entry.  A pivot p replaces every
    other row by (p * row - f * pivot row) // d, d the previous pivot; each
    division is exact, as every entry is a minor of the input (Bareiss).
    Returns the rows, the pivot columns and d: every pivot ends equal to d,
    so rows / d is the reduced row echelon form.
    """
    m = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    d = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        for i in range(nrows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // d for x, y in zip(m[i], m[r])]
        pivots.append(c)
        d = p
        r += 1
    return m, pivots, d


def _require_scalar(m: ExactMatrix):
    if not m.is_scalar():
        raise SymbolicEntryError("operation requires constant rational entries")


def rank_over_Q(m: ExactMatrix) -> int:
    _require_scalar(m)
    _, pivots, _ = _integer_rref(m.entries)
    return len(pivots)


def kernel_basis_over_Q(m: ExactMatrix) -> list[list[int]]:
    """Right-kernel basis, each vector scaled to integers with content 1.

    Vectors are ordered by their free-column pivot structure, which makes
    the result deterministic.
    """
    _require_scalar(m)
    red, pivots, d = _integer_rref(m.entries)
    basis = []
    for fc in range(m.ncols):
        if fc in pivots:
            continue
        # one vector per free column: d times the vector with 1 there
        vec = [0] * m.ncols
        vec[fc] = d
        for ri, pc in enumerate(pivots):
            vec[pc] = -red[ri][fc]
        g = math.gcd(*vec)
        if next(x for x in vec if x) < 0:
            g = -g
        basis.append([x // g for x in vec])
    return basis


# -- gcd of maximal minors --------------------------------------------------


def _det(m: ExactMatrix) -> Polynomial:
    """Determinant of a square 0/+-variable matrix, from the packed sweep."""
    return _packed_minors(m).get(tuple(range(m.ncols)), Polynomial.zero(m.universe))


def gcd_of_maximal_minors(
    m: ExactMatrix,
    tails: Sequence[ExactMatrix] = (),
    point: Optional[Sequence[int]] = None,
) -> Polynomial:
    """Sign-normalized gcd of all (nrows x nrows) minors, content retained.

    m and tails = (d_2, d_3, ...) must form a complex, m d_2 = d_2 d_3 = 0,
    that is exact at ``point`` (one value per variable), with every entry 0
    or +-one variable.  The gcd is then the complex's determinant, one
    Cayley ratio: from the top map down, the pivot rows of each block at the
    point give an invertible square block, and the rows left over are the
    next map's columns, down to a square m_J.  The result is det m_J times
    the d_3, d_5, ... block determinants over the d_2, d_4, ... ones.  A
    zero det m_J is returned as the zero polynomial: m_J spans the columns
    of m, so every maximal minor vanishes.  A broken complex (a block
    singular at the point, a non-square m_J, an inexact division) raises
    ArithmeticError.
    """
    if m.universe is None:
        raise SymbolicEntryError("gcd of minors is a polynomial operation")
    cols = range((tails[-1] if tails else m).ncols)
    odd, even = [], []  # block determinants of d_3, d_5, ... and d_2, d_4, ...
    for k in reversed(range(len(tails))):  # tails[k] is d_{k+2}
        t = tails[k]
        codes = _single_var_codes(t)
        at_point = [[0 if e is None else e[1] * point[e[0]] for e in row] for row in codes]
        _, rows, _ = _integer_rref([[at_point[i][j] for i in range(t.nrows)] for j in cols])
        if len(rows) != len(cols):
            raise ArithmeticError(f"d_{k + 2} block is singular at the point")
        (odd if k % 2 else even).append(_det(t.submatrix(rows, cols)))
        cols = sorted(set(range(t.nrows)).difference(rows))
    if len(cols) != m.nrows:
        raise ArithmeticError(f"final block is {m.nrows} x {len(cols)}, not square")
    delta = _det(m.submatrix(range(m.nrows), cols))
    if delta.is_zero():
        return delta
    for f in odd:
        delta = delta * f
    for f in even:
        delta = exact_divide(delta, f)
    return delta.sign_normalized()
