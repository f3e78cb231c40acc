import math
import random
import sys
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from msubres.hilbert import DegreeVector, expected_multidegree, hilbert_value, thresholds
from msubres.linalg import _single_var_codes, gcd_of_maximal_minors
from msubres.polyring import Polynomial, VarUniverse, monomials_of_degree
from msubres.subres import (
    InvalidMonomialSetError,
    MonomialSet,
    NuOutOfRangeError,
    build_generic_system,
    enumerate_S,
    koszul_matrices,
    parse_monomial_set,
    regular_point,
    specialize_delta,
    subresultant,
    universal_property_check,
    validate_S,
)
from oracles import classical_subresultant_coeffs, gcd_of_minors_by_gcd, permutation_determinant


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
    (mm,) = koszul_matrices(sys_, 2)  # K_2 is zero in degree 2
    assert mm.nrows == 3  # monomials of degree 2 in 2 vars
    assert mm.ncols == 2  # one constant multiplier per input
    # rows x1^2, x1*x2, x2^2: entry (row, P_i column) is that coefficient of P_i
    for row, mono in zip(mm.entries, ("20", "11", "02")):
        assert row == [cvar(sys_, "c1_" + mono), cvar(sys_, "c2_" + mono)]


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
        koszul_matrices(sys_, 2, S.monomials)
    with pytest.raises(InvalidMonomialSetError):
        subresultant(sys_, 2, S)


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
    [
        ((3, 2, 1), 3, None),
        ((4, 1, 1), 3, None),
        ((3, 3, 1), 4, "x1^3*x3"),
        ((2, 2, 2), 3, None),  # square: Delta is one determinant
    ],
)
def test_delta_needs_no_general_gcd(monkeypatch, degrees, nu, monomials):
    # Delta is one determinant over one divisor: no gcd, no trial division
    def forbidden(*args):
        raise AssertionError("general gcd or trial division on the Delta route")

    for name, mod in list(sys.modules.items()):
        if name == "msubres" or name.startswith("msubres."):
            for attr in ("gcd_multivariate", "divide_qq", "_prs_gcd"):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, forbidden)
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


def _at_point(mat, point):
    """Integer matrix of a 0/+-variable matrix at a point."""
    return [[0 if e is None else e[1] * point[e[0]] for e in row] for row in _single_var_codes(mat)]


def test_koszul_matrices_compose_to_zero():
    # d_k d_{k+1} = 0, checked at a random point; the list stops before K_4 = 0
    sys_ = build_generic_system(3, (2, 1, 1))
    mats = koszul_matrices(sys_, 4)
    assert [(m.nrows, m.ncols) for m in mats] == [(15, 26), (26, 12), (12, 1)]
    rng = random.Random(5)
    point = [rng.randint(-9, 9) for _ in range(sys_.universe.n)]
    for a, b in zip(mats, mats[1:]):
        a, b = _at_point(a, point), _at_point(b, point)
        for row in a:
            assert all(sum(x * y[j] for x, y in zip(row, b)) == 0 for j in range(len(b[0])))


def _delta_at_resultant_degree(degrees, nu):
    # nu > rho, so subresultant() rejects it: the builder and the ratio directly
    sys_ = build_generic_system(3, degrees)
    m, *tails = koszul_matrices(sys_, nu)
    assert len(tails) == (2 if nu >= sum(degrees) else 1)
    return sys_, gcd_of_maximal_minors(m, tails, regular_point(sys_))


@pytest.mark.parametrize("nu", [2, 3, 4])
def test_cayley_ratio_three_linear_forms(nu):
    # the degree-nu Koszul complex of three linear forms has determinant
    # the 3 x 3 determinant of their coefficients, K_3 != 0 from nu = 3
    sys_, delta = _delta_at_resultant_degree((1, 1, 1), nu)
    names = ("100", "010", "001")
    det = permutation_determinant(
        [[cvar(sys_, f"c{i}_{a}") for a in names] for i in (1, 2, 3)]
    )
    assert delta == det or delta == -det
    assert delta.multidegree_by_group()[0] == {"x": 0, "c1": 1, "c2": 1, "c3": 1}


def test_cayley_ratio_quadric_and_two_lines():
    # Res(Q, l2, l3) = Q at the point l2 x l3 where both lines vanish
    sys_, delta = _delta_at_resultant_degree((2, 1, 1), 4)
    names = ("100", "010", "001")
    l2 = [cvar(sys_, "c2_" + a) for a in names]
    l3 = [cvar(sys_, "c3_" + a) for a in names]
    cross = [l2[(j + 1) % 3] * l3[(j + 2) % 3] - l2[(j + 2) % 3] * l3[(j + 1) % 3] for j in range(3)]
    q = Polynomial.zero(sys_.universe)
    for alpha in monomials_of_degree(3, 2):
        t = cvar(sys_, "c1_" + "".join(map(str, alpha)))
        for c, e in zip(cross, alpha):
            t = t * c**e
        q = q + t
    assert delta == q or delta == -q
    assert delta.multidegree_by_group()[0] == {"x": 0, "c1": 1, "c2": 2, "c3": 2}


def _small_cases():
    """(degrees, nu) with n in {2, 3}, d <= 4, nu <= rho, at most 9 rows and
    at most 60 maximal minors in the deleted multiplication matrix."""
    out = []
    for n in (2, 3):
        for degrees in combinations_with_replacement(range(4, 0, -1), n):
            dv = DegreeVector(n, degrees)
            for nu in range(thresholds(dv).rho + 1):
                rows = math.comb(nu + n - 1, n - 1) - hilbert_value(dv, nu)
                cols = sum(math.comb(nu - d + n - 1, n - 1) for d in degrees if nu >= d)
                if 0 < rows <= 9 and math.comb(cols, rows) <= 60:
                    out.append((degrees, nu))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=st.sampled_from(_small_cases()), data=st.data())
def test_delta_equals_gcd_of_all_minors(case, data):
    # the Cayley ratio equals the gcd of all maximal minors, sign and content
    degrees, nu = case
    sys_ = build_generic_system(len(degrees), degrees)
    monos = monomials_of_degree(sys_.n, nu)
    h = hilbert_value(sys_.dv, nu)
    S = validate_S(sys_, nu, data.draw(st.permutations(monos))[:h])
    res = subresultant(sys_, nu, S)
    oracle = gcd_of_minors_by_gcd(koszul_matrices(sys_, nu, S.monomials)[0])
    assert res.delta == oracle


@pytest.mark.parametrize("degrees,nu,dim_k2", [((4, 1, 1), 3, 3), ((3, 3, 1), 4, 2)])
def test_delta_equals_gcd_of_all_minors_with_tail(degrees, nu, dim_k2):
    # d_2 is injective here, so Delta is det m_J over a dim_k2 x dim_k2 block
    sys_ = build_generic_system(3, degrees)
    S = enumerate_S(sys_, nu, limit=1, seed=1)[0]
    m, *tails = koszul_matrices(sys_, nu, S.monomials)
    assert [t.ncols for t in tails] == [dim_k2]
    res = subresultant(sys_, nu, S)
    assert not res.is_zero
    assert res.delta == gcd_of_minors_by_gcd(m)
