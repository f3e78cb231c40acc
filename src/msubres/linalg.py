"""Exact dense linear algebra over ZZ[vars] and QQ.

Provides fraction-free Bareiss determinants, rational rank/kernel
computations (through the shared elimination in ``rref``), and the gcd of
maximal minors that realizes subresultants.  Matrices whose entries are all
0 or +-one variable (every deleted Macaulay matrix) go through a
packed-exponent sweep that yields all maximal minors at once, whatever the
shape; every other matrix goes through Bareiss.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence, Union

from .polyring import (
    Polynomial,
    VarUniverse,
    divide_qq,
    exact_divide,
    gcd_multivariate,
)
from .rref import kernel, rref

Entry = Union[int, Fraction, Polynomial]


class NonSquareError(ValueError):
    pass


class SymbolicEntryError(TypeError):
    pass


class GenericRankError(ArithmeticError):
    """The matrix is rank deficient even for random specializations."""


_PRECHECK_SEED = 0xBA2E155


class ExactMatrix:
    """Rectangular matrix with exact scalar or polynomial entries."""

    __slots__ = ("entries", "universe")

    def __init__(
        self,
        entries: Sequence[Sequence[Entry]],
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


def _to_poly(e: Entry, universe: VarUniverse) -> Polynomial:
    if isinstance(e, Polynomial):
        return e
    return Polynomial.constant(universe, e)


# -- determinants -----------------------------------------------------------


def _det_scalar_bareiss(rows: list[list]) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(e) for e in row] for row in rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def bareiss_determinant(m: ExactMatrix) -> Entry:
    """Exact determinant by two-step fraction-free elimination."""
    if m.nrows != m.ncols:
        raise NonSquareError(f"matrix is {m.nrows}x{m.ncols}")
    n = m.nrows
    if m.is_scalar():
        d = _det_scalar_bareiss(m.entries)
        return int(d) if d.denominator == 1 else d
    universe = m.universe
    if n == 0:
        return 1
    rows = [[_to_poly(e, universe) for e in row] for row in m.entries]
    sign = 1
    prev = Polynomial.constant(universe, 1)
    for k in range(n - 1):
        if rows[k][k].is_zero():
            pivot_row = None
            best = None
            for i in range(k + 1, n):
                if not rows[i][k].is_zero():
                    size = len(rows[i][k])
                    if best is None or size < best:
                        best = size
                        pivot_row = i
            if pivot_row is None:
                return Polynomial.zero(universe)
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        piv = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * piv - rows[i][k] * rows[k][j]
                rows[i][j] = exact_divide(num, prev) if not prev.is_constant() or prev.constant_value() != 1 else num
            rows[i][k] = Polynomial.zero(universe)
        prev = piv
    det = rows[n - 1][n - 1]
    return det if sign == 1 else -det


# -- packed single-variable sweep -------------------------------------------


def _single_var_codes(m: ExactMatrix) -> Optional[list[list]]:
    """Per-entry (var_index, sign) when every entry is 0 or +-variable.

    None otherwise, and also when no entry is a variable, so that scalar
    matrices keep their scalar determinant.
    """
    out = []
    seen_var = False
    for row in m.entries:
        orow = []
        for e in row:
            if not isinstance(e, Polynomial):
                if e == 0:
                    orow.append(None)
                    continue
                return None
            if e.is_zero():
                orow.append(None)
                continue
            if len(e.terms) != 1:
                return None
            exp, c = next(iter(e.terms.items()))
            if sum(exp) != 1 or c not in (1, -1):
                return None
            orow.append((exp.index(1), c))
            seen_var = True
        out.append(orow)
    return out if seen_var else None


def _packed_minors(m: ExactMatrix) -> Optional[dict[tuple[int, ...], Polynomial]]:
    """All maximal minors of an r x c matrix with 0/+-variable entries.

    One sweep over the rows expands every minor at once: the state after k
    rows maps each set of k used columns to the signed sum of products over
    the ways of placing the first k rows in them.  Returns
    {sorted column tuple: minor}, leaving out the minors that vanish, or
    None when some entry is not 0 or +-variable.
    """
    codes = _single_var_codes(m)
    if codes is None:
        return None
    r, c = m.nrows, m.ncols
    universe = m.universe
    nvars = universe.n
    bits = max(1, r.bit_length() + 1)

    def pack(var: int) -> int:
        return 1 << (bits * var)

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
                shift = pack(var)
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

    fieldmask = (1 << bits) - 1

    def unpack(mono: int) -> tuple[int, ...]:
        exp = [0] * nvars
        i = 0
        while mono:
            exp[i] = mono & fieldmask
            mono >>= bits
            i += 1
        return tuple(exp)

    return {
        tuple(j for j in range(c) if mask >> j & 1): Polynomial(
            universe, {unpack(mono): cf for mono, cf in poly.items()}
        )
        for mask, poly in states.items()
    }


def determinant(m: ExactMatrix) -> Entry:
    """Packed sweep for 0/+-variable entries, Bareiss otherwise."""
    if m.nrows != m.ncols:
        raise NonSquareError(f"matrix is {m.nrows}x{m.ncols}")
    packed = _packed_minors(m)
    if packed is None:
        return bareiss_determinant(m)
    # the sweep leaves out vanishing minors
    return packed.get(tuple(range(m.ncols)), Polynomial.zero(m.universe))


# -- rational rank and kernel ----------------------------------------------


def _require_scalar(m: ExactMatrix):
    if not m.is_scalar():
        raise SymbolicEntryError("operation requires constant rational entries")


def rank_over_Q(m: ExactMatrix) -> int:
    _require_scalar(m)
    _, pivots = rref(m.entries)
    return len(pivots)


def kernel_basis_over_Q(m: ExactMatrix) -> list[list[int]]:
    """Right-kernel basis, each vector scaled to integers with content 1.

    Vectors are ordered by their free-column pivot structure, which makes
    the result deterministic.
    """
    _require_scalar(m)
    basis = []
    for vec in kernel(m.entries, m.ncols):
        den = 1
        for v in vec:
            den = den * v.denominator // math.gcd(den, v.denominator)
        ints = [int(v * den) for v in vec]
        g = math.gcd(*(abs(x) for x in ints))
        lead = next(x for x in ints if x)
        sgn = 1 if lead > 0 else -1
        basis.append([sgn * x // g for x in ints])
    return basis


# -- gcd of maximal minors --------------------------------------------------


def _generic_rank_precheck(m: ExactMatrix, rng: random.Random) -> bool:
    """Rational rank at one random integer specialization of all variables."""
    if m.is_scalar():
        return rank_over_Q(m) == m.nrows
    universe = m.universe
    point = {name: rng.randint(-10**6, 10**6) for name in universe.names}
    rows = [
        [e.evaluate(point) if isinstance(e, Polynomial) else e for e in row]
        for row in m.entries
    ]
    _, pivots = rref(rows)
    return len(pivots) == m.nrows


def _is_unit(p: Polynomial) -> bool:
    return p.is_constant() and abs(p.constant_value()) == 1


def gcd_of_maximal_minors(m: ExactMatrix) -> Polynomial:
    """Sign-normalized gcd of all (nrows x nrows) minors, content retained.

    A matrix with 0/+-variable entries (every deleted Macaulay matrix) gets
    all its minors from one packed sweep; any other matrix gets one
    Bareiss determinant per column subset.
    """
    r, c = m.nrows, m.ncols
    if r > c:
        raise ValueError("need rows <= columns")
    universe = m.universe
    if universe is None:
        raise SymbolicEntryError("gcd of minors is a polynomial operation")
    one = Polynomial.constant(universe, 1)
    if r == 0:
        return one
    if not _generic_rank_precheck(m, random.Random(_PRECHECK_SEED)):
        raise GenericRankError("matrix is rank deficient at a random specialization")

    packed = _packed_minors(m)
    if packed is not None:
        minors = [packed[cols] for cols in sorted(packed)]
    else:
        minors = [
            _to_poly(bareiss_determinant(m.submatrix(range(r), cols)), universe)
            for cols in combinations(range(c), r)
        ]

    g = Polynomial.zero(universe)
    for minor in minors:
        if minor.is_zero():
            continue
        if not g.is_zero():
            # the running gcd already divides this minor with an integer
            # quotient: the minor cannot refine it
            quo = divide_qq(minor, g)
            if quo is not None and all(cf.denominator == 1 for cf in quo.terms.values()):
                continue
        g = gcd_multivariate(g, minor)
        if _is_unit(g):
            break
    if g.is_zero():
        raise GenericRankError("all maximal minors vanish identically")
    return g.sign_normalized()
