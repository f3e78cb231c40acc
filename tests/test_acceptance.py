"""Acceptance gate: nine criteria, one printed pass/fail line each.

The heavyweight sweep (n <= 3, d_i <= 4, every admissible nu, sampled S)
is computed once per session and shared by the criteria that read it.
"""

import math
import random
import time
from itertools import combinations_with_replacement

import pytest

import conftest
from msubres.cli import SweepConfig, report_body, run_sweep
from msubres.hilbert import (
    DegreeVector,
    a_value,
    expected_multidegree,
    hilbert_value,
    ses_identity_check,
)
from msubres.irred import irreducibility_verdict
from msubres.polyring import Polynomial, divides, monomials_of_degree
from msubres.residual import (
    implication_chain_check,
    points_ideal_with_retries,
    residual_resultant,
    residual_specialize,
    x_universe,
)
from msubres.subres import (
    build_generic_system,
    enumerate_S,
    parse_monomial_set,
    specialize_delta,
    subresultant,
    universal_property_check,
)
from oracles import hilbert_inclusion_exclusion, sylvester_resultant


def announce(num, desc, ok):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    print(line, flush=True)
    conftest.record_criterion(line)
    assert ok, line


@pytest.fixture(scope="session")
def sweep_report():
    cfg = SweepConfig(
        n_values=(2, 3),
        d_max=4,
        degree_vectors=(),
        nu_mode="all-in-range",
        s_mode="sample",
        s_limit=5,
        seed=42,
        jobs=1,
        max_rows=14,
    )
    return run_sweep(cfg)


def _entries(report, position=None):
    for case in report["cases"]:
        if case["skipped"]:
            continue
        if position and case["position"] != position:
            continue
        for entry in case["records"]:
            yield case, entry


def test_criterion_1_hilbert_suite():
    start = time.perf_counter()
    ok = True
    for n in range(1, 5):
        for degs in combinations_with_replacement(range(4, 0, -1), n):
            dv = DegreeVector(n, degs)
            rho = dv.rho
            for t in range(-2, rho + 3):
                if hilbert_value(dv, t) != hilbert_value(dv, rho - t):
                    ok = False
                if n >= 2 and any(
                    not ses_identity_check(dv, i, t) for i in range(n)
                ):
                    ok = False
            for t in range(0, min(degs)):
                if hilbert_value(dv, t) != math.comb(t + n - 1, n - 1):
                    ok = False
    elapsed = time.perf_counter() - start
    announce(
        1,
        f"Hilbert symmetry, binomial regime, SES identity (n<=4, d<=4) in {elapsed:.2f}s",
        ok and elapsed < 1.0,
    )


def test_criterion_2_multidegree_formula(sweep_report):
    checked = 0
    ok = True
    for case, entry in _entries(sweep_report):
        if entry["zero"]:
            continue
        dv = DegreeVector(case["n"], tuple(case["degrees"]))
        nu = case["nu"]
        for i in range(dv.n):
            got = entry["multidegrees"][f"c{i + 1}"]
            formula = expected_multidegree(dv, nu, i)  # checks both forms
            sub = tuple(d for j, d in enumerate(dv.degrees) if j != i)
            oracle = hilbert_inclusion_exclusion(dv.n, sub, nu - dv.degrees[i])
            if got != formula or got != oracle:
                ok = False
        checked += 1
    announce(
        2,
        f"per-group degrees match the product and Hilbert forms "
        f"({checked} (dv,nu,S) cases)",
        ok and checked >= 30,
    )


def test_criterion_3_universal_property():
    rng = random.Random(2024)
    ok = True
    zero_seen = 0
    for n, degs, nu in ((2, (2, 2), 2), (2, (3, 2), 3), (3, (2, 2, 2), 2)):
        sys_ = build_generic_system(n, degs)
        S = enumerate_S(sys_, nu, limit=1, seed=5)[0]
        delta = subresultant(sys_, nu, S).delta
        xu = x_universe(n)
        for _ in range(100):
            qs = []
            for d in degs:
                terms = {}
                for alpha in monomials_of_degree(n, d):
                    c = rng.randint(-2, 2)
                    if c:
                        terms[alpha] = c
                qs.append(Polynomial(xu, terms))
            nz = specialize_delta(sys_, delta, qs) != 0
            if not nz:
                zero_seen += 1
            if nz != universal_property_check(sys_, qs, nu, S):
                ok = False
    announce(
        3,
        f"Delta(Q) != 0 iff rank condition, 300 specializations "
        f"({zero_seen} vanishing)",
        ok and zero_seen > 0,
    )


def test_criterion_4_theorem_verification(sweep_report):
    ok = True
    counts = {"irreducible": 0, "inconclusive": 0, "other": 0}
    for case, entry in _entries(sweep_report, position="above-bound"):
        if entry["content"] != 1 or entry["zero"]:
            ok = False
        v = entry["verdict"]
        counts[v if v in counts else "other"] = counts.get(
            v if v in counts else "other", 0
        ) + 1
    total = counts["irreducible"] + counts["inconclusive"] + counts["other"]
    if counts["other"] or total == 0:
        ok = False
    if counts["inconclusive"] > 0.10 * total:
        ok = False

    # golden value: n=2, d=(2,2), nu=2, S={x1*x2}
    sys2 = build_generic_system(2, (2, 2))
    S = parse_monomial_set("x1*x2", sys2, 2)
    res = subresultant(sys2, 2, S)
    a0b2 = Polynomial.variable(sys2.universe, "c1_20") * Polynomial.variable(
        sys2.universe, "c2_02"
    )
    a2b0 = Polynomial.variable(sys2.universe, "c1_02") * Polynomial.variable(
        sys2.universe, "c2_20"
    )
    golden = a0b2 - a2b0
    if not (res.delta == golden or res.delta == -golden):
        ok = False

    # golden value: n=3, d=(2,2,2), nu=3, all 10 singleton S
    sys3 = build_generic_system(3, (2, 2, 2))
    for S3 in enumerate_S(sys3, 3, limit=100):
        r3 = subresultant(sys3, 3, S3)
        if r3.is_zero or r3.multidegrees != {"c1": 3, "c2": 3, "c3": 3}:
            ok = False
    announce(
        4,
        f"above-bound sweep all content 1, verdicts "
        f"{counts['irreducible']} irreducible / {counts['inconclusive']} "
        f"inconclusive / {counts['other']} other; golden values hold",
        ok,
    )


def test_criterion_5_boundary_sharpness():
    ok = True
    # n=2, d=(4,2), nu=3: Delta = c0^k with the oracle-frozen k = 2
    sys_ = build_generic_system(2, (4, 2))
    S = parse_monomial_set("x1*x2^2, x2^3", sys_, 3)
    res = subresultant(sys_, 3, S)
    c0 = Polynomial.variable(sys_.universe, "c2_20")
    if res.delta != c0**2:
        ok = False
    v = irreducibility_verdict(res.delta, seed=3)
    if not (v.is_reducible and v.witness is not None and divides(v.witness, res.delta)):
        ok = False

    # n=3, d=(3,1,1), nu=2: Delta = delta^2, delta the 2x2 determinant
    sys3 = build_generic_system(3, (3, 1, 1))
    S3 = parse_monomial_set("x1^2", sys3, 2)
    res3 = subresultant(sys3, 2, S3)

    def cv(nm):
        return Polynomial.variable(sys3.universe, nm)

    det = cv("c2_010") * cv("c3_001") - cv("c2_001") * cv("c3_010")
    if not (res3.delta == det**2 or res3.delta == -(det**2)):
        ok = False
    v3 = irreducibility_verdict(res3.delta.content_and_primitive().primitive, seed=3)
    if not v3.is_reducible:
        ok = False
    announce(5, "boundary cases give c0^2 and delta^2, both detected Reducible", ok)


def test_criterion_6_nonvanishing_threshold(sweep_report):
    ok = True
    checked = 0
    for case, entry in _entries(sweep_report):
        dv = DegreeVector(case["n"], tuple(case["degrees"]))
        if case["nu"] > sum(dv.degrees) - dv.n - min(dv.degrees):
            checked += 1
            if entry["zero"]:
                ok = False
    announce(
        6,
        f"no vanishing subresultant above the nonvanishing bound "
        f"({checked} records)",
        ok and checked >= 30,
    )


def test_criterion_7_residual_resultant():
    start = time.perf_counter()
    ok = True
    dv = DegreeVector(2, (3, 2))
    nu = 3
    ideal = points_ideal_with_retries(2, a_value(dv, nu), 1, seed=11)
    rs = residual_specialize(dv, nu, ideal, mode="symbolic")
    sys_ = build_generic_system(2, (3, 2))
    sets = enumerate_S(sys_, nu, limit=10)
    results = [residual_resultant(rs, sys_, S) for S in sets[:2]]
    base = results[0].primitive
    if not all(
        r.primitive == base or r.primitive == -base for r in results
    ):
        ok = False
    if not all(r.multidegrees == {"c1": 1, "c2": 2} for r in results):
        ok = False

    # independent Sylvester oracle on the two multiplier forms
    def coeffs(p, d):
        out = []
        for k in range(d + 1):
            alpha = (d - k, k)
            pick = Polynomial.zero(rs.coeff_universe)
            for e, c in p.terms.items():
                if tuple(e[:2]) == alpha:
                    pick = Polynomial(rs.coeff_universe, {tuple(e[2:]): c})
                    break
            out.append(pick)
        return out

    oracle = sylvester_resultant(coeffs(rs.multipliers[0][0], 2), coeffs(rs.multipliers[1][0], 1))
    prim = oracle.content_and_primitive().primitive
    if not (base == prim or base == -prim):
        ok = False

    # a forced extra common zero kills the specialization
    xu = x_universe(2)
    g = Polynomial(xu, dict(ideal.generators[0].terms))
    x1 = Polynomial.variable(xu, "x1")
    x2 = Polynomial.variable(xu, "x2")
    delta = subresultant(sys_, nu, sets[0]).delta
    if specialize_delta(sys_, delta, [g * (x1 - x2) * (x1 + x2), g * (x1 - x2)]) != 0:
        ok = False
    elapsed = time.perf_counter() - start
    announce(
        7,
        f"residual primitive part matches the Sylvester oracle, degrees (1,2), "
        f"S-independent, forced zero vanishes ({elapsed:.1f}s)",
        ok and elapsed < 10.0,
    )


def test_criterion_8_implication_chain():
    dv = DegreeVector(2, (3, 2))
    nu = 3
    ideal = points_ideal_with_retries(2, 1, 1, seed=11)
    sys_ = build_generic_system(2, (3, 2))
    S = enumerate_S(sys_, nu, limit=10)[0]
    delta = subresultant(sys_, nu, S).delta
    xu = x_universe(2)
    ok = True
    for seed in range(50):
        rs = residual_specialize(dv, nu, ideal, mode="seeded-rational", seed=seed)
        qs = [
            Polynomial(xu, {tuple(e[:2]): c for e, c in p.terms.items()})
            for p in rs.polys
        ]
        try:
            implication_chain_check(sys_, delta, qs, nu, ideal)
        except AssertionError:
            ok = False
    announce(8, "50 seeded specializations pass the three-predicate chain", ok)


def test_criterion_9_determinism():
    def cfg(jobs):
        return SweepConfig(
            n_values=(2,),
            d_max=3,
            degree_vectors=((2, 2), (3, 2), (2, 2, 2)),
            nu_mode="all-in-range",
            s_mode="sample",
            s_limit=2,
            seed=7,
            jobs=jobs,
            max_rows=14,
        )

    b1 = report_body(run_sweep(cfg(1)))
    b2 = report_body(run_sweep(cfg(1)))
    b3 = report_body(run_sweep(cfg(4)))
    announce(9, "identical seed gives byte-identical bodies; parallel == serial",
             b1 == b2 == b3)
