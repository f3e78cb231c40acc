import random

import pytest

from msubres.hilbert import DegreeVector, expected_multidegree, thresholds
from msubres.polyring import Polynomial, VarUniverse
from msubres.subres import (
    InvalidMonomialSetError,
    MonomialSet,
    NuOutOfRangeError,
    build_generic_system,
    build_macaulay_map,
    deleted_matrix,
    enumerate_S,
    parse_monomial_set,
    specialize_delta,
    subresultant,
    universal_property_check,
)
from oracles import classical_subresultant_coeffs


def cvar(sys_, name):
    return Polynomial.variable(sys_.universe, name)


def x_only_universe(n):
    names = [f"x{i + 1}" for i in range(n)]
    return VarUniverse(names, {"x": names})


def rand_specialization(rng, n, degrees, bound=5):
    from msubres.polyring import monomials_of_degree

    xu = x_only_universe(n)
    out = []
    for d in degrees:
        terms = {}
        for alpha in monomials_of_degree(n, d):
            c = rng.randint(-bound, bound)
            if c:
                terms[alpha] = c
        out.append(Polynomial(xu, terms))
    return out


def test_generic_system_shape():
    sys_ = build_generic_system(2, (3, 2))
    assert sys_.dv.degrees == (3, 2)
    groups = sys_.universe.groups
    assert set(groups) == {"x", "c1", "c2"}
    assert len(groups["c1"]) == 4 and len(groups["c2"]) == 3
    for i, p in enumerate(sys_.polys):
        degs, homog = p.multidegree_by_group()
        assert degs["x"] == sys_.dv.degrees[i]
        assert homog["x"] and homog[f"c{i + 1}"]


def test_macaulay_map_shape():
    sys_ = build_generic_system(2, (2, 2))
    mm = build_macaulay_map(sys_, 2)
    assert mm.matrix.nrows == 3  # monomials of degree 2 in 2 vars
    assert mm.matrix.ncols == 2  # one constant multiplier per input
    # entry at (x1*x2 row, P1 column) is the x1*x2 coefficient variable
    assert mm.row_monomials == ((2, 0), (1, 1), (0, 2))


def test_unsorted_degrees_rejected():
    sys_ = build_generic_system(2, (2, 3))
    S = MonomialSet(nu=2, monomials=((1, 1),))
    with pytest.raises(ValueError):
        subresultant(sys_, 2, S)


def test_nu_above_rho_rejected():
    sys_ = build_generic_system(2, (2, 2))
    S = MonomialSet(nu=3, monomials=())
    with pytest.raises(NuOutOfRangeError):
        subresultant(sys_, 3, S)


def test_parse_monomial_set():
    sys_ = build_generic_system(2, (4, 2))
    S = parse_monomial_set("x1*x2^2, x2^3", sys_, 3)
    assert set(S.monomials) == {(1, 2), (0, 3)}
    with pytest.raises(InvalidMonomialSetError):
        parse_monomial_set("x1*x2", sys_, 3)  # wrong degree
    with pytest.raises(InvalidMonomialSetError):
        parse_monomial_set("x3^3, x2^3", sys_, 3)  # unknown variable
    with pytest.raises(InvalidMonomialSetError):
        parse_monomial_set("x2^3", sys_, 3)  # wrong cardinality
    with pytest.raises(InvalidMonomialSetError):
        parse_monomial_set("x2^3, x2^3", sys_, 3)  # duplicates


def test_golden_2_2():
    sys_ = build_generic_system(2, (2, 2))
    S = parse_monomial_set("x1*x2", sys_, 2)
    res = subresultant(sys_, 2, S)
    expect = cvar(sys_, "c1_02") * cvar(sys_, "c2_20") - cvar(sys_, "c1_20") * cvar(
        sys_, "c2_02"
    )
    assert res.delta == expect or res.delta == -expect
    assert res.multidegrees == {"c1": 1, "c2": 1}
    assert res.content == 1 and not res.is_zero and res.in_range


def test_golden_4_2_boundary():
    sys_ = build_generic_system(2, (4, 2))
    S = parse_monomial_set("x1*x2^2, x2^3", sys_, 3)
    res = subresultant(sys_, 3, S)
    c0 = cvar(sys_, "c2_20")
    assert res.delta == c0 * c0
    assert res.multidegrees == {"c1": 0, "c2": 2}


def test_golden_3_1_1_power():
    sys_ = build_generic_system(3, (3, 1, 1))
    S = parse_monomial_set("x1^2", sys_, 2)
    res = subresultant(sys_, 2, S)
    delta2 = cvar(sys_, "c2_010") * cvar(sys_, "c3_001") - cvar(sys_, "c2_001") * cvar(
        sys_, "c3_010"
    )
    expect = delta2 * delta2
    assert res.delta == expect or res.delta == -expect


def test_multidegree_enforced_in_range():
    sys_ = build_generic_system(3, (2, 2, 2))
    for S in enumerate_S(sys_, 2, limit=5, seed=1):
        res = subresultant(sys_, 2, S)
        assert res.multidegrees == {"c1": 1, "c2": 1, "c3": 1}
        degs, homog = res.delta.multidegree_by_group()
        assert all(homog[g] for g in ("c1", "c2", "c3"))
        assert degs.get("x", 0) == 0


def test_specialize_delta_matches_direct_substitution():
    rng = random.Random(31)
    sys_ = build_generic_system(2, (2, 2))
    S = parse_monomial_set("x1*x2", sys_, 2)
    res = subresultant(sys_, 2, S)
    for _ in range(20):
        qs = rand_specialization(rng, 2, (2, 2))
        val = specialize_delta(sys_, res.delta, qs)
        # delta = a02*b20 - a20*b02 up to sign
        a20 = qs[0].terms.get((2, 0), 0)
        a02 = qs[0].terms.get((0, 2), 0)
        b20 = qs[1].terms.get((2, 0), 0)
        b02 = qs[1].terms.get((0, 2), 0)
        direct = a02 * b20 - a20 * b02
        assert val == direct or val == -direct


def test_universal_property_random():
    rng = random.Random(37)
    sys_ = build_generic_system(2, (2, 2))
    S = parse_monomial_set("x1*x2", sys_, 2)
    res = subresultant(sys_, 2, S)
    for _ in range(60):
        qs = rand_specialization(rng, 2, (2, 2), bound=2)
        nz = specialize_delta(sys_, res.delta, qs) != 0
        assert nz == universal_property_check(sys_, qs, 2, S)


def test_classical_subresultant_cross_check():
    # nu = rho with n = 2: the subresultant specializes to a coefficient of
    # the classical degree-1 subresultant polynomial, up to a fixed sign
    rng = random.Random(41)
    sys_ = build_generic_system(2, (3, 2))
    rho = 3
    # deleting the x2^3 row picks out the leading coefficient of the
    # degree-1 classical subresultant; deleting x1*x2^2 picks the constant
    for mono_text, coeff_index in (("x2^3", 1), ("x1*x2^2", 0)):
        S = parse_monomial_set(mono_text, sys_, rho)
        res = subresultant(sys_, rho, S)
        fixed_sign = None
        checked = 0
        while checked < 10:
            qs = rand_specialization(rng, 2, (3, 2))
            val = specialize_delta(sys_, res.delta, qs)
            # dehomogenize at x2 = 1, lowest-degree coefficient first
            f = [qs[0].terms.get((k, 3 - k), 0) for k in range(4)]
            g = [qs[1].terms.get((k, 2 - k), 0) for k in range(3)]
            if f[-1] == 0 or g[-1] == 0:
                continue
            oracle = classical_subresultant_coeffs(f, g, 1)
            if oracle is None:
                continue
            want = oracle[coeff_index] if coeff_index < len(oracle) else 0
            if val == 0 and want == 0:
                checked += 1
                continue
            assert val == want or val == -want, (mono_text, val, want)
            sign = 1 if val == want else -1
            if fixed_sign is None:
                fixed_sign = sign
            assert sign == fixed_sign
            checked += 1


def test_enumerate_S_exhaustive_and_sampled():
    sys_ = build_generic_system(2, (2, 2))
    sets = enumerate_S(sys_, 2, limit=10)
    assert len(sets) == 3  # C(3,1)
    with pytest.raises(ValueError):
        enumerate_S(sys_, 2, limit=1)  # sampling without a seed
    s1 = enumerate_S(sys_, 2, limit=2, seed=9)
    s2 = enumerate_S(sys_, 2, limit=2, seed=9)
    assert s1 == s2 and len(s1) == 2


def test_deleted_matrix_rejects_foreign_monomials():
    sys_ = build_generic_system(2, (2, 2))
    S = MonomialSet(nu=2, monomials=((3, 0),))
    with pytest.raises(InvalidMonomialSetError):
        deleted_matrix(sys_, 2, S)


def test_at_bound_case_recorded_not_asserted():
    # at the bound the multidegree formula may fail; result is still returned
    sys_ = build_generic_system(2, (4, 2))
    th = thresholds(DegreeVector(2, (4, 2)))
    assert th.nu_min == 3
    S = parse_monomial_set("x1*x2^2, x2^3", sys_, 3)
    res = subresultant(sys_, 3, S)
    assert res.in_range and not res.is_zero


@pytest.mark.parametrize(
    "degrees,nu,monomials",
    [((3, 2, 1), 3, None), ((4, 1, 1), 3, None), ((3, 3, 1), 4, "x1^3*x3")],
)
def test_delta_needs_no_general_gcd(monkeypatch, degrees, nu, monomials):
    # visited sparsest first, the minors settle Delta by exact divisions alone
    import msubres.polyring as polyring

    def no_prs(p, q):
        raise AssertionError("general gcd reached on the Delta route")

    monkeypatch.setattr(polyring, "_prs_gcd", no_prs)
    sys_ = build_generic_system(3, degrees)
    if monomials is None:
        S = enumerate_S(sys_, nu, limit=1, seed=0)[0]
    else:
        S = parse_monomial_set(monomials, sys_, nu)
    res = subresultant(sys_, nu, S)
    assert not res.is_zero and res.content == 1
    assert res.multidegrees == {
        sys_.coefficient_group(i): expected_multidegree(sys_.dv, nu, i)
        for i in range(3)
    }
