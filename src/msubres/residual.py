"""Ideals of points in generic position and residual resultants.

A points ideal is generated by the degree-(rho - nu + 1) forms vanishing on
a seeded random point set; generic position is certified operationally by
checking that every degree-t evaluation matrix has the maximal possible
rank.  Specializing each input polynomial into the ideal and evaluating the
subresultant there yields the residual resultant of the points, up to a
rational constant that is reported rather than normalized away.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .hilbert import DegreeVector, a_value, thresholds
from .linalg import ExactMatrix, kernel_basis_over_Q, rank_over_Q
from .polyring import Polynomial, VarUniverse, monomials_of_degree, poly_to_doc
from .subres import (
    GenericSystem,
    MonomialSet,
    multiplication_matrix,
    specialize_delta,
    subresultant,
)


class PointGenerationError(RuntimeError):
    pass


class GenericPositionError(RuntimeError):
    """The Hilbert-function certificate failed; re-seed and retry."""


@dataclass(frozen=True)
class PointSet:
    n: int
    points: tuple[tuple[int, ...], ...]
    seed: int

    @property
    def count(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PointsIdeal:
    points: PointSet
    degree: int  # generation degree, rho - nu + 1
    generators: tuple[Polynomial, ...]
    certificate: dict[int, tuple[int, int]]  # t -> (rank, expected)

    @property
    def universe(self) -> VarUniverse:
        return self.generators[0].universe


@dataclass(frozen=True)
class ResidualSystem:
    dv: DegreeVector
    nu: int
    ideal: PointsIdeal
    universe: VarUniverse            # x variables plus residual coefficient groups
    coeff_universe: VarUniverse      # residual coefficient groups only
    polys: tuple[Polynomial, ...]    # the specialized inputs, in `universe`
    multipliers: tuple[tuple[Polynomial, ...], ...]  # p_ij, in `universe`
    mode: str                        # "symbolic" | "seeded-rational"
    seed: Optional[int] = None


def _normalize_point(coords: Sequence[int]) -> Optional[tuple[int, ...]]:
    if all(c == 0 for c in coords):
        return None
    g = math.gcd(*(abs(c) for c in coords))
    coords = [c // g for c in coords]
    lead = next(c for c in coords if c)
    if lead < 0:
        coords = [-c for c in coords]
    return tuple(coords)


def random_points(n: int, a: int, seed: int) -> PointSet:
    """a distinct seeded points in projective (n-1)-space."""
    if a < 1:
        raise ValueError("need at least one point")
    if n < 2:
        raise ValueError("need projective dimension at least 1")
    rng = random.Random(seed)
    points: list[tuple[int, ...]] = []
    seen = set()
    budget = 200 * a
    while len(points) < a and budget > 0:
        budget -= 1
        cand = _normalize_point([rng.randint(-20, 20) for _ in range(n)])
        if cand is None or cand in seen:
            continue
        seen.add(cand)
        points.append(cand)
    if len(points) < a:
        raise PointGenerationError("could not generate enough distinct points")
    return PointSet(n=n, points=tuple(points), seed=seed)


def x_universe(n: int) -> VarUniverse:
    names = [f"x{i + 1}" for i in range(n)]
    return VarUniverse(names, {"x": names})


def _evaluation_matrix(ps: PointSet, t: int) -> ExactMatrix:
    monos = monomials_of_degree(ps.n, t)
    rows = []
    for pt in ps.points:
        row = []
        for m in monos:
            v = 1
            for c, e in zip(pt, m):
                if e:
                    v *= c**e
            row.append(v)
        rows.append(row)
    return ExactMatrix(rows)


def generic_position_certificate(
    ps: PointSet, t_max: int
) -> dict[int, tuple[int, int]]:
    """Rank of every degree-t evaluation matrix against min(dim R_t, a)."""
    cert = {}
    for t in range(0, t_max + 1):
        expected = min(math.comb(t + ps.n - 1, ps.n - 1), ps.count)
        cert[t] = (rank_over_Q(_evaluation_matrix(ps, t)), expected)
    return cert


def points_ideal(ps: PointSet, degree: int) -> PointsIdeal:
    dim = math.comb(degree + ps.n - 1, ps.n - 1)
    if dim <= ps.count:
        raise ValueError(
            f"degree-{degree} part has dimension {dim} <= {ps.count} points; "
            "no generators there"
        )
    cert = generic_position_certificate(ps, 2 * degree + 2)
    for t, (rank, expected) in cert.items():
        if rank != expected:
            raise GenericPositionError(
                f"degree-{t} evaluation rank {rank} != {expected}; "
                "points not in generic position, retry with another seed"
            )
    universe = x_universe(ps.n)
    monos = monomials_of_degree(ps.n, degree)
    kernel = kernel_basis_over_Q(_evaluation_matrix(ps, degree))
    # kernel vectors are primitive and their first entry, the leading term, is positive
    gens = tuple(
        Polynomial(universe, {tuple(m): c for m, c in zip(monos, vec) if c})
        for vec in kernel
    )
    return PointsIdeal(points=ps, degree=degree, generators=gens, certificate=cert)


def points_ideal_with_retries(n: int, a: int, degree: int, seed: int) -> PointsIdeal:
    last: Optional[Exception] = None
    for k in range(5):
        ps = random_points(n, a, seed + k)
        try:
            return points_ideal(ps, degree)
        except GenericPositionError as exc:
            last = exc
    raise GenericPositionError(f"no generic point set after 5 attempts: {last}")


def residual_specialize(
    dv: DegreeVector,
    nu: int,
    ideal: PointsIdeal,
    mode: str = "symbolic",
    seed: Optional[int] = None,
) -> ResidualSystem:
    """Replace each input with sum_j p_ij * g_j, p_ij generic of small degree."""
    if not dv.is_sorted_descending:
        raise ValueError("degrees must be sorted descending")
    th = thresholds(dv)
    if not th.nu_min <= nu <= th.nu_max:
        raise ValueError(f"nu={nu} outside admissible range [{th.nu_min}, {th.nu_max}]")
    if mode not in ("symbolic", "seeded-rational"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "seeded-rational" and seed is None:
        raise ValueError("seeded-rational mode requires a seed")
    n = dv.n
    rho = dv.rho
    mult_degrees = [d - rho + nu - 1 for d in dv.degrees]
    if any(d < 0 for d in mult_degrees):
        raise ValueError("multiplier degree would be negative")
    m = len(ideal.generators)

    x_names = [f"x{i + 1}" for i in range(n)]
    names = list(x_names)
    groups: dict[str, list[str]] = {"x": list(x_names)}
    coeff_names: dict[tuple[int, int, tuple[int, ...]], str] = {}
    for i, d in enumerate(mult_degrees):
        gnames = []
        for j in range(m):
            for alpha in monomials_of_degree(n, d):
                nm = f"c{i + 1}_{j + 1}_" + "".join(str(e) for e in alpha)
                coeff_names[(i, j, alpha)] = nm
                gnames.append(nm)
                names.append(nm)
        groups[f"c{i + 1}"] = gnames
    universe = VarUniverse(names, groups)
    coeff_only = [nm for nm in names if nm not in x_names]
    coeff_universe = VarUniverse(
        coeff_only, {g: v for g, v in groups.items() if g != "x"}
    )

    rng = random.Random(seed) if mode == "seeded-rational" else None
    gens_lifted = [
        Polynomial(universe, {
            tuple(list(exp) + [0] * (universe.n - n)): c for exp, c in g.terms.items()
        })
        for g in ideal.generators
    ]
    polys = []
    multipliers = []
    for i, d in enumerate(mult_degrees):
        pi = Polynomial.zero(universe)
        row = []
        for j in range(m):
            terms = {}
            for alpha in monomials_of_degree(n, d):
                exp = [0] * universe.n
                for t, e in enumerate(alpha):
                    exp[t] = e
                if mode == "symbolic":
                    exp[universe.index(coeff_names[(i, j, alpha)])] = 1
                    terms[tuple(exp)] = 1
                else:
                    terms[tuple(exp)] = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            p_ij = Polynomial(universe, terms)
            row.append(p_ij)
            pi = pi + p_ij * gens_lifted[j]
        multipliers.append(tuple(row))
        polys.append(pi)
    return ResidualSystem(
        dv=dv,
        nu=nu,
        ideal=ideal,
        universe=universe,
        coeff_universe=coeff_universe,
        polys=tuple(polys),
        multipliers=tuple(multipliers),
        mode=mode,
        seed=seed,
    )


@dataclass(frozen=True)
class ResidualResultantResult:
    primitive: Polynomial        # primitive part of the specialized subresultant
    constant: Fraction           # extracted rational constant (signed content)
    multidegrees: dict[str, int]
    nu: int
    monomial_set: MonomialSet


class ZeroResidualError(ArithmeticError):
    """The specialized subresultant vanished; broken ideal or bad nu."""


def _coefficient_extract(rs: ResidualSystem, poly: Polynomial, alpha: tuple[int, ...]) -> Polynomial:
    """Coefficient of x^alpha in a polynomial of the combined universe."""
    n = rs.dv.n
    terms = {}
    for exp, c in poly.terms.items():
        if tuple(exp[:n]) != alpha:
            continue
        rest = exp[n:]
        terms[tuple(rest)] = terms.get(tuple(rest), 0) + c
    return Polynomial(rs.coeff_universe, terms)


def residual_resultant(
    rs: ResidualSystem, sys: GenericSystem, S: MonomialSet
) -> ResidualResultantResult:
    """Specialized subresultant split into primitive part and constant.

    The generic system must match the residual system's degree vector; the
    subresultant for (nu, S) is evaluated at the specialized inputs.
    """
    if rs.mode != "symbolic":
        raise ValueError("residual resultant requires the symbolic specialization")
    if sys.dv != rs.dv:
        raise ValueError("degree vectors of the two systems disagree")
    delta = subresultant(sys, rs.nu, S).delta
    n = rs.dv.n
    assignment: dict[str, Polynomial] = {}
    for i, d in enumerate(rs.dv.degrees):
        for alpha in monomials_of_degree(n, d):
            assignment[sys.coefficient_name(i, alpha)] = _coefficient_extract(
                rs, rs.polys[i], alpha
            )
    value = delta.specialize(assignment, target=rs.coeff_universe)
    if value.is_zero():
        raise ZeroResidualError("subresultant vanished under the residual specialization")
    cont, prim, sign = value.content_and_primitive()
    degrees, homogeneous = prim.multidegree_by_group()
    a = a_value(rs.dv, rs.nu)
    prod = 1
    for d in rs.dv.degrees:
        prod *= d
    for i in range(n):
        expect = prod // rs.dv.degrees[i] - a
        got = degrees[f"c{i + 1}"]
        if got != expect or not homogeneous[f"c{i + 1}"]:
            raise AssertionError(
                f"residual degree in group c{i + 1} is {got}, expected {expect}"
            )
    return ResidualResultantResult(
        primitive=prim,
        constant=Fraction(cont) * sign,
        multidegrees=degrees,
        nu=rs.nu,
        monomial_set=S,
    )


# -- the implication chain --------------------------------------------------


def ideal_hilbert_value(dv: DegreeVector, qs: Sequence[Polynomial], t: int) -> int:
    """Hilbert function of the quotient by (q_1..q_n) at degree t."""
    dim = math.comb(t + dv.n - 1, dv.n - 1) if t >= 0 else 0
    mult = multiplication_matrix(dv.n, zip(qs, dv.degrees), t)
    return dim - rank_over_Q(ExactMatrix(mult))


def _in_ideal_span(ideal: PointsIdeal, q: Polynomial, d: int) -> bool:
    """Is q inside the degree-d part of the ideal generated by the g_j?"""
    if d < ideal.degree:
        return q.is_zero()
    forms = [(g, ideal.degree) for g in ideal.generators]
    ext = multiplication_matrix(ideal.points.n, forms + [(q, d)], d)
    base = [row[:-1] for row in ext]
    return rank_over_Q(ExactMatrix(base)) == rank_over_Q(ExactMatrix(ext))


@dataclass(frozen=True)
class ChainRecord:
    delta_nonzero: bool
    hilbert_at_nu: bool
    hilbert_window: bool


def implication_chain_check(
    sys: GenericSystem,
    delta: Polynomial,
    qs: Sequence[Polynomial],
    nu: int,
    ideal: PointsIdeal,
) -> ChainRecord:
    """Evaluate the three chained predicates and assert each implication.

    Predicates: the specialized subresultant is nonzero; the quotient by the
    specialized ideal has Hilbert value a at nu; the same holds on the
    window [nu, nu+2] standing in for all t >= nu.
    """
    dv = sys.dv
    if all(q.is_zero() for q in qs):
        raise ValueError("all-zero specialization is not a valid input")
    for q, d in zip(qs, dv.degrees):
        if not q.is_zero() and any(sum(e) != d for e in q.terms):
            raise ValueError("specialization polynomial has the wrong degree")
        if not _in_ideal_span(ideal, q, d):
            raise ValueError("specialization does not lie in the points ideal")
    a = a_value(dv, nu)
    p1 = specialize_delta(sys, delta, qs) != 0
    p2 = ideal_hilbert_value(dv, qs, nu) == a
    p3 = p2 and all(ideal_hilbert_value(dv, qs, t) == a for t in (nu + 1, nu + 2))
    if p1 and not p2:
        raise AssertionError("first implication violated")
    if p2 and not p3:
        raise AssertionError("second implication violated")
    return ChainRecord(delta_nonzero=p1, hilbert_at_nu=p2, hilbert_window=p3)


# -- serialization ----------------------------------------------------------


def points_to_doc(ps: PointSet) -> dict:
    return {"n": ps.n, "seed": ps.seed, "points": [list(p) for p in ps.points]}


def ideal_to_doc(ideal: PointsIdeal) -> dict:
    return {
        "points": points_to_doc(ideal.points),
        "degree": ideal.degree,
        "generators": [poly_to_doc(g) for g in ideal.generators],
        "certificate": {
            str(t): {"rank": r, "expected": e} for t, (r, e) in sorted(ideal.certificate.items())
        },
    }
