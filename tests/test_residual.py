import random

import pytest

from msubres.hilbert import DegreeVector, a_value
from msubres.polyring import Polynomial, poly_from_doc
from msubres.residual import (
    GenericPositionError,
    PointSet,
    ideal_to_doc,
    ideal_hilbert_value,
    implication_chain_check,
    points_ideal,
    points_ideal_with_retries,
    points_to_doc,
    random_points,
    residual_resultant,
    residual_specialize,
    x_universe,
)
from msubres.subres import build_generic_system, enumerate_S, subresultant
from oracles import sylvester_resultant


def test_random_points_deterministic_and_distinct():
    a = random_points(3, 5, seed=4)
    b = random_points(3, 5, seed=4)
    assert a.points == b.points
    assert len(set(a.points)) == 5
    for p in a.points:
        # primitive with positive leading coordinate
        from math import gcd
        g = 0
        for c in p:
            g = gcd(g, abs(c))
        assert g == 1
        assert next(c for c in p if c) > 0


def test_points_ideal_generators_vanish_on_points():
    ps = random_points(2, 1, seed=11)
    ideal = points_ideal(ps, 1)
    assert len(ideal.generators) == 1
    for g in ideal.generators:
        for pt in ps.points:
            val = g.specialize({f"x{i + 1}": c for i, c in enumerate(pt)}).constant_value()
            assert val == 0


def test_points_ideal_certificate():
    ps = random_points(3, 3, seed=2)
    ideal = points_ideal(ps, 2)
    for t, (rank, expected) in ideal.certificate.items():
        assert rank == expected
    # kernel vectors have content 1 and a positive first entry, in grevlex
    # descending order: each generator is its own primitive part
    assert len(ideal.generators) == 3
    for g in ideal.generators:
        assert g == g.content_and_primitive().primitive


def test_points_ideal_rejects_too_low_degree():
    ps = random_points(2, 3, seed=2)
    with pytest.raises(ValueError):
        points_ideal(ps, 1)  # dim R_1 = 2 <= 3 points


def test_points_ideal_detects_non_generic():
    # three collinear points in P^2 are not in generic position in degree 1
    ps = PointSet(n=3, points=((1, 0, 0), (0, 1, 0), (1, 1, 0)), seed=0)
    with pytest.raises(GenericPositionError):
        points_ideal(ps, 2)


def test_residual_specialize_validation():
    dv = DegreeVector(2, (3, 2))
    ideal = points_ideal_with_retries(2, 1, 1, seed=11)
    with pytest.raises(ValueError):
        residual_specialize(dv, 1, ideal)  # nu out of range
    with pytest.raises(ValueError):
        residual_specialize(dv, 3, ideal, mode="seeded-rational")  # no seed
    rs = residual_specialize(dv, 3, ideal, mode="symbolic")
    for i, p in enumerate(rs.polys):
        degs, homog = p.multidegree_by_group()
        assert degs["x"] == dv.degrees[i] and homog["x"]
        assert homog[f"c{i + 1}"] and degs[f"c{i + 1}"] == 1


def test_residual_resultant_matches_sylvester_oracle():
    dv = DegreeVector(2, (3, 2))
    nu = 3
    ideal = points_ideal_with_retries(2, a_value(dv, nu), 1, seed=11)
    rs = residual_specialize(dv, nu, ideal, mode="symbolic")
    sys_ = build_generic_system(2, (3, 2))
    sets = enumerate_S(sys_, nu, limit=10)
    results = [residual_resultant(rs, sys_, S) for S in sets]
    base = results[0].primitive
    for r in results[1:]:
        assert r.primitive == base or r.primitive == -base
        assert r.multidegrees == {"c1": 1, "c2": 2}
    # oracle: resultant of the two multiplier forms p_1 (deg 2), p_2 (deg 1)
    p1 = rs.multipliers[0][0]
    p2 = rs.multipliers[1][0]

    def coeffs(p, d):
        out = []
        for k in range(d + 1):
            alpha = (d - k, k)
            for e, c in p.terms.items():
                if tuple(e[:2]) == alpha:
                    rest = e[2:]
                    out.append(
                        Polynomial(rs.coeff_universe, {tuple(rest): c})
                    )
                    break
            else:
                out.append(Polynomial.zero(rs.coeff_universe))
        return out

    oracle = sylvester_resultant(coeffs(p1, 2), coeffs(p2, 1))
    prim = oracle.content_and_primitive().primitive
    assert base == prim or base == -prim


def test_forced_extra_common_zero_vanishes():
    from msubres.subres import specialize_delta

    dv = DegreeVector(2, (3, 2))
    nu = 3
    ideal = points_ideal_with_retries(2, 1, 1, seed=11)
    xu = x_universe(2)
    g = Polynomial(xu, dict(ideal.generators[0].terms))
    x1 = Polynomial.variable(xu, "x1")
    x2 = Polynomial.variable(xu, "x2")
    h = x1 - x2
    sys_ = build_generic_system(2, (3, 2))
    S = enumerate_S(sys_, nu, limit=10)[0]
    delta = subresultant(sys_, nu, S).delta
    assert specialize_delta(sys_, delta, [g * h * (x1 + x2 * 2), g * h]) == 0


def test_implication_chain_on_seeded_specializations():
    dv = DegreeVector(2, (3, 2))
    nu = 3
    ideal = points_ideal_with_retries(2, 1, 1, seed=11)
    sys_ = build_generic_system(2, (3, 2))
    S = enumerate_S(sys_, nu, limit=10)[0]
    delta = subresultant(sys_, nu, S).delta
    xu = x_universe(2)
    for seed in range(8):
        rs = residual_specialize(dv, nu, ideal, mode="seeded-rational", seed=seed)
        qs = [
            Polynomial(xu, {tuple(e[:2]): c for e, c in p.terms.items()})
            for p in rs.polys
        ]
        rec = implication_chain_check(sys_, delta, qs, nu, ideal)
        assert rec.delta_nonzero and rec.hilbert_at_nu and rec.hilbert_window


def test_implication_chain_rejects_foreign_specialization():
    dv = DegreeVector(2, (3, 2))
    ideal = points_ideal_with_retries(2, 1, 1, seed=11)
    sys_ = build_generic_system(2, (3, 2))
    S = enumerate_S(sys_, 3, limit=10)[0]
    delta = subresultant(sys_, 3, S).delta
    xu = x_universe(2)
    x1 = Polynomial.variable(xu, "x1")
    x2 = Polynomial.variable(xu, "x2")
    qs = [x1**3, x2**2]  # not inside the points ideal
    with pytest.raises(ValueError):
        implication_chain_check(sys_, delta, qs, 3, ideal)


def test_ideal_hilbert_value():
    xu = x_universe(2)
    x1 = Polynomial.variable(xu, "x1")
    x2 = Polynomial.variable(xu, "x2")
    dv = DegreeVector(2, (2, 2))
    # complete intersection of two generic conics: H = 1, 2, 1, 0
    qs = [x1 * x1 + x2 * x2, x1 * x2 + x2 * x2 * 3]
    assert [ideal_hilbert_value(dv, qs, t) for t in range(4)] == [1, 2, 1, 0]


def test_serialization():
    ps = random_points(2, 2, seed=5)
    doc = points_to_doc(ps)
    assert doc["points"] == [list(p) for p in ps.points]
    ideal = points_ideal(ps, 2)
    idoc = ideal_to_doc(ideal)
    back = [poly_from_doc(d) for d in idoc["generators"]]
    assert tuple(back) == ideal.generators
