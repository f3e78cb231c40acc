"""Generic systems, Koszul and multiplication matrices, and subresultants.

The generic system has P_i = sum over |alpha| = d_i of c_{i,alpha} x^alpha
with one fresh coefficient variable per (i, alpha).  The subresultant for a
monomial set S in degree nu is realized as the sign-normalized gcd of the
maximal minors of the degree-nu multiplication-map matrix with the rows
indexed by S deleted.  S indexes DELETED rows: its span complements the
degree-nu part of the ideal inside the full degree-nu space.  That gcd is the
determinant of the deleted Koszul complex (Chardin): one Cayley ratio.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .hilbert import DegreeVector, expected_multidegree, hilbert_value, thresholds
from .linalg import ExactMatrix, gcd_of_maximal_minors, rank_over_Q
from .polyring import Polynomial, VarUniverse, grevlex_key, monomials_of_degree


class InvalidMonomialSetError(ValueError):
    pass


class NuOutOfRangeError(ValueError):
    pass


class MultidegreeMismatchError(AssertionError):
    """Computed subresultant degrees disagree with the degree formula."""


@dataclass(frozen=True)
class GenericSystem:
    dv: DegreeVector
    universe: VarUniverse
    polys: tuple[Polynomial, ...]

    @property
    def n(self) -> int:
        return self.dv.n

    def coefficient_group(self, i: int) -> str:
        return f"c{i + 1}"

    def coefficient_name(self, i: int, alpha: Sequence[int]) -> str:
        return f"c{i + 1}_" + "".join(str(e) for e in alpha)


@dataclass(frozen=True)
class MonomialSet:
    """Validated choice of H(nu) monomials of degree nu in the x variables."""

    nu: int
    monomials: tuple[tuple[int, ...], ...]  # x-exponent tuples, grevlex desc


@dataclass(frozen=True)
class SubresultantResult:
    delta: Polynomial
    multidegrees: dict[str, int]
    content: int
    sign: int
    nu: int
    monomial_set: MonomialSet
    dv: DegreeVector
    in_range: bool
    is_zero: bool = False
    primitive: Optional[Polynomial] = None  # of delta; None when delta is zero


def build_generic_system(n: int, degrees: Sequence[int]) -> GenericSystem:
    dv = DegreeVector(n, degrees)
    if dv.s != n:
        raise ValueError("need exactly n degrees")
    x_names = [f"x{i + 1}" for i in range(n)]
    names = list(x_names)
    groups: dict[str, list[str]] = {"x": list(x_names)}
    coeff_names: list[list[str]] = []
    for i, d in enumerate(dv.degrees):
        gnames = []
        for alpha in monomials_of_degree(n, d):
            nm = f"c{i + 1}_" + "".join(str(e) for e in alpha)
            gnames.append(nm)
            names.append(nm)
        groups[f"c{i + 1}"] = gnames
        coeff_names.append(gnames)
    universe = VarUniverse(names, groups)
    polys = []
    for i, d in enumerate(dv.degrees):
        terms = {}
        for alpha, nm in zip(monomials_of_degree(n, d), coeff_names[i]):
            exp = [0] * universe.n
            for j, e in enumerate(alpha):
                exp[j] = e
            exp[universe.index(nm)] = 1
            terms[tuple(exp)] = 1
        polys.append(Polynomial(universe, terms))
    return GenericSystem(dv=dv, universe=universe, polys=tuple(polys))


def x_monomials(sys: GenericSystem, degree: int) -> list[tuple[int, ...]]:
    """Degree-d monomials in the x variables, grevlex descending."""
    return monomials_of_degree(sys.n, degree)


def koszul_matrices(
    sys: GenericSystem, nu: int, deleted: Iterable[tuple[int, ...]] = ()
) -> list[ExactMatrix]:
    """Degree-nu Koszul differentials d_1, d_2, ... of the generic system.

    K_k has basis pairs (I, m): I a k-subset of the inputs, in lex order,
    and m an x-monomial of degree nu - sum(d_i for i in I), grevlex
    descending; K_0 is the degree-nu monomials.  Column (I, m) of d_k holds
    sum_t (-1)^t m * P_{I_t} in block I without I_t, so every entry is 0 or
    +-one coefficient variable and d_1 is the multiplication map.  d_1 comes
    without the rows of ``deleted``; the list ends before the first K_k = 0.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    n, degrees, universe = sys.n, sys.dv.degrees, sys.universe
    monos = x_monomials(sys, nu)
    drop = set(deleted)
    if not drop <= set(monos):
        raise InvalidMonomialSetError("S contains monomials outside degree nu")
    # the terms of every P_i: (alpha, coefficient variable)
    terms = [
        [(alpha, Polynomial.variable(universe, sys.coefficient_name(i, alpha)))
         for alpha in monomials_of_degree(n, d)]
        for i, d in enumerate(degrees)
    ]
    rows = [((), m) for m in monos if m not in drop]
    mats = []
    for k in range(1, n + 1):
        cols = [(I, m) for I in combinations(range(n), k)
                for m in x_monomials(sys, nu - sum(degrees[i] for i in I))]
        if k > 1 and not cols:
            break
        row_pos = {b: r for r, b in enumerate(rows)}
        entries = [[0] * len(cols) for _ in rows]
        for c, (I, m) in enumerate(cols):
            for t, i in enumerate(I):
                rest = I[:t] + I[t + 1 :]
                for alpha, v in terms[i]:
                    r = row_pos.get((rest, tuple(a + e for a, e in zip(alpha, m))))
                    if r is not None:  # None only for the deleted rows of d_1
                        entries[r][c] = -v if t % 2 else v
        mats.append(ExactMatrix(entries, universe=universe))
        rows = cols
    return mats


def regular_point(sys: GenericSystem) -> list[int]:
    """Value of every universe variable at P_i = x_i^{d_i}: a regular
    sequence, so the Koszul complex is exact there."""
    ones = {sys.coefficient_name(i, [d * (j == i) for j in range(sys.n)])
            for i, d in enumerate(sys.dv.degrees)}
    return [int(name in ones) for name in sys.universe.names]


def multiplication_matrix(
    n: int, forms: Iterable[tuple[Polynomial, int]], t: int
) -> list[list[int | Fraction]]:
    """Concrete degree-t multiplication matrix of forms (q, d) in x1..xn.

    Rows are the degree-t monomials, grevlex descending; each form q of
    degree d contributes one column per degree-(t - d) multiplier m', in
    the same order as the columns of d_1 in ``koszul_matrices``, holding the
    coefficients of m' * q.  Only the first n exponents of q are read.
    """
    rows = monomials_of_degree(n, t)
    row_pos = {m: i for i, m in enumerate(rows)}
    cols = [(q, mprime) for q, d in forms for mprime in monomials_of_degree(n, t - d)]
    mat = [[0] * len(cols) for _ in rows]
    for j, (q, mprime) in enumerate(cols):
        for exp, c in q.terms.items():
            mat[row_pos[tuple(e + m for e, m in zip(exp, mprime))]][j] += c
    return mat


def validate_S(
    sys: GenericSystem, nu: int, S: Iterable[tuple[int, ...]]
) -> MonomialSet:
    monos = list(S)
    if len(set(monos)) != len(monos):
        raise InvalidMonomialSetError("duplicate monomials in S")
    for m in monos:
        if len(m) != sys.n:
            raise InvalidMonomialSetError(f"monomial {m} has wrong arity")
        if any(e < 0 for e in m):
            raise InvalidMonomialSetError(f"negative exponent in {m}")
        if sum(m) != nu:
            raise InvalidMonomialSetError(
                f"monomial {m} has degree {sum(m)}, expected {nu}"
            )
    required = hilbert_value(sys.dv, nu)
    if len(monos) != required:
        raise InvalidMonomialSetError(
            f"S has {len(monos)} monomials, required cardinality is {required}"
        )
    monos.sort(key=grevlex_key, reverse=True)
    return MonomialSet(nu=nu, monomials=tuple(monos))


_MONO_RE = re.compile(r"^([a-zA-Z]\w*)(?:\^(\d+))?$")


def parse_monomial_set(text: str, sys: GenericSystem, nu: int) -> MonomialSet:
    """Parse comma-separated monomials like ``x1^2*x2, x2^3``."""
    monos = []
    for pos, chunk in enumerate(text.split(","), start=1):
        chunk = chunk.strip()
        if not chunk:
            raise InvalidMonomialSetError(f"monomial #{pos}: empty entry")
        exp = [0] * sys.n
        for factor in chunk.split("*"):
            factor = factor.strip()
            m = _MONO_RE.match(factor)
            if not m:
                raise InvalidMonomialSetError(
                    f"monomial #{pos}: cannot parse factor {factor!r}"
                )
            name, power = m.group(1), int(m.group(2) or 1)
            try:
                idx = [f"x{i + 1}" for i in range(sys.n)].index(name)
            except ValueError:
                raise InvalidMonomialSetError(
                    f"monomial #{pos}: unknown variable {name!r}"
                ) from None
            exp[idx] += power
        if sum(exp) != nu:
            raise InvalidMonomialSetError(
                f"monomial #{pos} ({chunk!r}) has degree {sum(exp)}, expected {nu}"
            )
        monos.append(tuple(exp))
    return validate_S(sys, nu, monos)


def subresultant(sys: GenericSystem, nu: int, S: MonomialSet) -> SubresultantResult:
    dv = sys.dv
    if not dv.is_sorted_descending:
        raise ValueError("degrees must be sorted descending")
    th = thresholds(dv)
    if nu > th.rho:
        raise NuOutOfRangeError(
            f"nu={nu} exceeds rho={th.rho}: this is the resultant case, "
            "which is out of scope"
        )
    in_range = th.nu_min <= nu <= th.nu_max
    if S.nu != nu:
        raise InvalidMonomialSetError("monomial set was validated for a different nu")
    mat, *tails = koszul_matrices(sys, nu, S.monomials)
    delta = gcd_of_maximal_minors(mat, tails, regular_point(sys))
    if delta.is_zero():
        return _zero_result(sys, nu, S, in_range)
    degrees, homogeneous = delta.multidegree_by_group()
    degrees = {g: d for g, d in degrees.items() if g != "x"}
    if not all(homogeneous.values()):
        raise MultidegreeMismatchError("subresultant is not group-homogeneous")
    if in_range:
        for i in range(sys.n):
            expect = expected_multidegree(dv, nu, i)
            got = degrees[sys.coefficient_group(i)]
            if got != expect:
                raise MultidegreeMismatchError(
                    f"degree in group {sys.coefficient_group(i)} is {got}, "
                    f"formula gives {expect}"
                )
    cont, prim, sign = delta.content_and_primitive()
    return SubresultantResult(
        delta=delta,
        multidegrees=degrees,
        content=int(cont),
        sign=sign,
        nu=nu,
        monomial_set=S,
        dv=dv,
        in_range=in_range,
        primitive=prim,
    )


def _zero_result(sys, nu, S, in_range) -> SubresultantResult:
    return SubresultantResult(
        delta=Polynomial.zero(sys.universe),
        multidegrees={sys.coefficient_group(i): 0 for i in range(sys.n)},
        content=0,
        sign=0,
        nu=nu,
        monomial_set=S,
        dv=sys.dv,
        in_range=in_range,
        is_zero=True,
    )


def specialize_delta(
    sys: GenericSystem, delta: Polynomial, specialization: Sequence[Polynomial]
):
    """Evaluate a subresultant at concrete polynomials Q_1..Q_n.

    Each Q_i must be homogeneous of degree d_i in an x-only universe; the
    coefficient variables of the generic system are replaced by the matching
    coefficients of Q_i.
    """
    if len(specialization) != sys.n:
        raise ValueError("need one polynomial per input slot")
    assignment: dict[str, Fraction] = {}
    for i, (q, d) in enumerate(zip(specialization, sys.dv.degrees)):
        _check_homogeneous(q, d)
        for alpha in monomials_of_degree(sys.n, d):
            c = q.terms.get(tuple(alpha), 0)
            assignment[sys.coefficient_name(i, alpha)] = c
    value = delta.specialize(assignment, target=delta.universe)
    return value.constant_value()


def _check_homogeneous(q: Polynomial, d: int):
    if q.is_zero():
        return
    if any(sum(e) != d for e in q.terms):
        raise ValueError(f"specialization polynomial is not homogeneous of degree {d}")


def universal_property_check(
    sys: GenericSystem,
    specialization: Sequence[Polynomial],
    nu: int,
    S: MonomialSet,
) -> bool:
    """True iff span{m' * Q_i} + span(S) is the whole degree-nu space."""
    if len(specialization) != sys.n:
        raise ValueError("need one polynomial per input slot")
    forms = list(zip(specialization, sys.dv.degrees))
    for q, d in forms:
        _check_homogeneous(q, d)
    mat = multiplication_matrix(sys.n, forms, nu)
    for row, m in zip(mat, x_monomials(sys, nu)):
        row.extend(int(m == s) for s in S.monomials)
    return rank_over_Q(ExactMatrix(mat)) == len(mat)


def enumerate_S(
    sys: GenericSystem, nu: int, limit: int, seed: Optional[int] = None
) -> list[MonomialSet]:
    """All valid S when few enough, else a seeded sample without replacement."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    monos = x_monomials(sys, nu)
    h = hilbert_value(sys.dv, nu)
    if h > len(monos):
        return []
    total = math.comb(len(monos), h)
    if total <= limit:
        return [
            MonomialSet(nu=nu, monomials=tuple(sorted(c, key=grevlex_key, reverse=True)))
            for c in combinations(monos, h)
        ]
    if seed is None:
        raise ValueError("a seed is required when sampling")
    rng = random.Random(seed)
    seen: set[frozenset] = set()
    out = []
    while len(out) < limit:
        pick = frozenset(rng.sample(monos, h))
        if pick in seen:
            continue
        seen.add(pick)
        out.append(
            MonomialSet(nu=nu, monomials=tuple(sorted(pick, key=grevlex_key, reverse=True)))
        )
    return out
