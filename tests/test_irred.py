import random

import pytest

from msubres.irred import (
    _line_image,
    degree_pattern,
    irreducibility_verdict,
    power_form,
)
from msubres.polyring import Polynomial, VarUniverse, divides
from oracles import line_image_by_convolution, sympy_factor_degrees, sympy_is_irreducible

U = VarUniverse(["x", "y", "z"], {"g": ["x", "y", "z"]})
X = Polynomial.variable(U, "x")
Y = Polynomial.variable(U, "y")
Z = Polynomial.variable(U, "z")


def test_power_form_trivial():
    p = X * Y + Z * Z
    base, k = power_form(p)
    assert k == 1 and base == p


def test_power_form_squares_and_cubes():
    det = X * Y - Z * Z
    for k in (2, 3, 4):
        base, got = power_form(det**k)
        assert got == k
        assert base == det or base == -det


def test_power_form_negative_even_power():
    det = X * Y - Z * Z
    base, k = power_form(-(det**2))
    assert k == 2 and (base == det or base == -det)


def test_power_form_negative_odd_power():
    det = X * Y - Z * Z
    base, k = power_form(-(det**3))
    assert k == 3 and (base == det or base == -det)


def test_power_form_shared_leading_exponent_factor_is_not_a_power():
    # the leading exponents (2, 2, 0) admit k = 2, but no square root exists
    p = X * X * Y * Y + X * Y * Z * Z * 3 + Z**4
    base, k = power_form(p)
    assert k == 1 and base == p


def test_power_form_huge_coefficients():
    # integer roots only: 10^400 does not fit a float
    base, k = power_form((X * 10**200 + Y) ** 2)
    assert k == 2 and base in (X * 10**200 + Y, -(X * 10**200 + Y))


def test_verdict_square_with_coefficient_beyond_float_precision():
    a = 10**30 + 12345
    p = (X * a + Y) ** 2
    base, k = power_form(p)
    assert k == 2 and base in (X * a + Y, -(X * a + Y))
    v = irreducibility_verdict(p, seed=1)
    assert v.is_reducible and divides(v.witness, p)


def test_power_form_rejects_constant():
    with pytest.raises(ValueError):
        power_form(Polynomial.constant(U, 5))


def test_degree_pattern_against_sympy():
    import sympy

    t = sympy.Symbol("t")
    rng = random.Random(3)
    for p in (10007, 10039):
        for _ in range(8):
            coeffs = [rng.randint(-40, 40) for _ in range(rng.randint(3, 7))]
            if not coeffs[-1] % p:
                coeffs[-1] = 1
            ours = degree_pattern(coeffs, p)
            f = sympy.Poly(sum(c * t**i for i, c in enumerate(coeffs)), t, modulus=p)
            if f.degree() < 1:
                assert ours is None
                continue
            expect = []
            for fac, mult in f.factor_list()[1]:
                expect.extend([fac.degree()] * mult)
            assert ours == sorted(expect), (coeffs, p)
    # a leading coefficient that vanishes mod p degenerates f
    assert degree_pattern([1, 1, 10007], 10007) is None


def test_line_image_matches_convolution_oracle():
    cases = [
        # c * x^D on a = s, b = 0: the image coefficient meets the bound
        (X**5 * 7, [(3, 0), (0, 0), (0, 0)]),
        (X**3 * (10**30 + 1), [(0, 0), (0, 0), (-4, 0)]),
        (Y**6 * -9, [(0, 0), (2, 0), (0, 0)]),
        # every a_i = b_i = 0, with and without a constant term
        (X * Y + 5, [(0, 0)] * 3),
        (X * Y - Z, [(0, 0)] * 3),
        # an image that vanishes, and one whose top degree cancels
        (X - Y, [(2, 1), (2, 1), (5, 5)]),
        (X * X - Y * Y + Z, [(1, 0), (1, 2), (3, 1)]),
        # constants, zero included
        (Polynomial.constant(U, -(10**30)), [(1, 2)] * 3),
        (Polynomial.zero(U), [(1, 2)] * 3),
    ]
    rng = random.Random(29)
    for _ in range(600):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exp = tuple(rng.randint(0, 3) for _ in range(3))
            big = rng.random() < 0.3
            terms[exp] = rng.randint(-(10**30), 10**30) if big else rng.randint(-9, 9)
        lines = [
            tuple(0 if rng.random() < 0.25 else rng.randint(-20, 20) for _ in range(2))
            for _ in range(3)
        ]
        cases.append((Polynomial(U, terms), lines))
    for p, lines in cases:
        assert _line_image(p, lines) == line_image_by_convolution(p, lines), (str(p), lines)


def test_verdict_reducible_has_dividing_witness():
    det = X * Y - Z * Z
    v = irreducibility_verdict(det * det, seed=5)
    assert v.is_reducible
    assert v.witness is not None and divides(v.witness, det * det)


def test_verdict_irreducible_cases():
    for p in (X * Y - Z * Z, X + Y + Z, X * X * Y + Y * Y * Z + Z * Z * X):
        v = irreducibility_verdict(p, seed=1)
        assert v.is_irreducible, (str(p), v)
        assert sympy_is_irreducible(p)


def test_verdict_one_sided_on_product_of_distinct_factors():
    p = (X + Y) * (X + Y * 2)
    v = irreducibility_verdict(p, seed=1)
    # a product of distinct factors is never claimed Irreducible; Reducible
    # would need a witness the pipeline cannot produce here
    assert not v.is_irreducible
    if v.is_reducible:
        assert divides(v.witness, p)


def test_verdict_sum_of_two_squares():
    # irreducible over Q but splits mod p = 1 (mod 4); the pipeline may
    # prove irreducibility via a p = 3 (mod 4) prime or stay inconclusive,
    # but must never claim Reducible
    p = X * X + Y * Y
    v = irreducibility_verdict(p, seed=2)
    assert v.kind in ("irreducible", "inconclusive")
    assert sympy_is_irreducible(p)


def test_verdict_reads_the_leading_term_once(monkeypatch):
    calls = []
    leading_term = Polynomial.leading_term

    def counted(self):
        calls.append(self)
        return leading_term(self)

    monkeypatch.setattr(Polynomial, "leading_term", counted)
    v = irreducibility_verdict(X * Y - Z * Z, seed=1)
    assert v.is_irreducible
    assert len(calls) == 1


def test_verdict_content_precondition():
    with pytest.raises(ValueError):
        irreducibility_verdict((X + Y) * 2, seed=1)
    with pytest.raises(ValueError):
        irreducibility_verdict(Polynomial.zero(U), seed=1)


def test_verdict_deterministic_in_seed():
    p = X * X * Y + Y * Y * Z + Z * Z * X + X * Y * Z
    v1 = irreducibility_verdict(p, seed=123)
    v2 = irreducibility_verdict(p, seed=123)
    assert (v1.kind, v1.reason) == (v2.kind, v2.reason)


def test_verdict_agrees_with_sympy_on_random_samples():
    rng = random.Random(17)
    for _ in range(10):
        terms = {}
        for _ in range(4):
            exp = tuple(rng.randint(0, 2) for _ in range(3))
            c = rng.randint(-4, 4)
            if c:
                terms[exp] = terms.get(exp, 0) + c
        p = Polynomial(U, terms)
        if p.is_zero() or p.is_constant():
            continue
        p = p.content_and_primitive().primitive
        v = irreducibility_verdict(p, seed=7)
        if v.is_irreducible:
            assert sympy_is_irreducible(p), str(p)
        if v.is_reducible:
            assert len(sympy_factor_degrees(p)) > 1 or not sympy_is_irreducible(p)
