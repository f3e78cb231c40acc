import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from msubres.polyring import (
    ExactDivisionError,
    Polynomial,
    UniverseMismatchError,
    VarUniverse,
    divides,
    exact_divide,
    gcd_multivariate,
    grevlex_key,
    monomials_of_degree,
    poly_from_doc,
    poly_to_doc,
)
from oracles import specialize_by_terms, sympy_poly


U3 = VarUniverse(["x", "y", "z"], {"all": ["x", "y", "z"]})
UG = VarUniverse(["x1", "x2", "a", "b"], {"x": ["x1", "x2"], "c": ["a", "b"]})


def rand_poly(rng, universe, nterms=5, maxdeg=3, coeff=9):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, maxdeg) for _ in range(universe.n))
        c = rng.randint(-coeff, coeff)
        if c:
            terms[exp] = terms.get(exp, 0) + c
    return Polynomial(universe, terms)


def test_universe_rejects_bad_groups():
    with pytest.raises(ValueError):
        VarUniverse(["x", "y"], {"a": ["x"]})  # not covering
    with pytest.raises(ValueError):
        VarUniverse(["x", "y"], {"a": ["x", "y"], "b": ["y"]})  # overlap


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        p, q, r = (rand_poly(rng, U3) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert p + Polynomial.zero(U3) == p
        assert p * Polynomial.constant(U3, 1) == p
        assert (p - p).is_zero()


def test_mul_against_sympy():
    rng = random.Random(11)
    for _ in range(10):
        p, q = rand_poly(rng, U3), rand_poly(rng, U3)
        lhs = sympy_poly(p * q)
        rhs = sympy.expand(sympy_poly(p) * sympy_poly(q))
        assert sympy.simplify(lhs - rhs) == 0


def test_universe_mismatch():
    p = Polynomial.variable(U3, "x")
    q = Polynomial.variable(UG, "x1")
    with pytest.raises(UniverseMismatchError):
        _ = p + q


def test_grevlex_leading_term():
    # x^2*y beats x*z^2 in grevlex: same degree, reversed-exponent tiebreak
    p = Polynomial(U3, {(2, 1, 0): 1, (1, 0, 2): 1})
    assert p.leading_term()[0] == (2, 1, 0)
    # higher total degree always wins
    q = Polynomial(U3, {(0, 0, 3): 1, (1, 1, 0): 5})
    assert q.leading_term()[0] == (0, 0, 3)


def test_monomials_of_degree_order_and_count():
    monos = monomials_of_degree(3, 4)
    assert len(monos) == 15
    keys = [grevlex_key(m) for m in monos]
    assert keys == sorted(keys, reverse=True)
    assert all(sum(m) == 4 for m in monos)


def test_content_and_primitive_identity():
    rng = random.Random(13)
    for _ in range(30):
        p = rand_poly(rng, U3)
        if p.is_zero():
            continue
        split = p.content_and_primitive()
        scaled = split.primitive * (split.sign * split.content)
        assert scaled == p
        assert split.content > 0
        assert split.primitive.content_and_primitive().content == 1
        # primitive leading coefficient normalized positive
        assert split.primitive.leading_term()[1] > 0


def test_exact_division_roundtrip():
    rng = random.Random(17)
    done = 0
    while done < 25:
        p, q = rand_poly(rng, U3), rand_poly(rng, U3)
        if q.is_zero():
            continue
        assert exact_divide(p * q, q) == p
        done += 1


def test_exact_division_failure():
    x = Polynomial.variable(U3, "x")
    y = Polynomial.variable(U3, "y")
    with pytest.raises(ExactDivisionError):
        exact_divide(x * x + y, x)
    assert not divides(x, x * x + y)
    assert divides(x + y, (x + y) * (x - y))


def test_gcd_small_against_sympy():
    rng = random.Random(19)
    done = 0
    while done < 15:
        g = rand_poly(rng, U3, nterms=3, maxdeg=2, coeff=4)
        p = rand_poly(rng, U3, nterms=3, maxdeg=2, coeff=4)
        q = rand_poly(rng, U3, nterms=3, maxdeg=2, coeff=4)
        if g.is_zero() or p.is_zero() or q.is_zero():
            continue
        ours = gcd_multivariate(p * g, q * g)
        theirs = sympy.gcd(sympy_poly(p * g), sympy_poly(q * g))
        ratio = sympy.cancel(sympy_poly(ours) / theirs)
        assert ratio.is_number and ratio != 0
        done += 1


def test_gcd_divides_both():
    rng = random.Random(23)
    for _ in range(10):
        g = rand_poly(rng, U3, nterms=4, maxdeg=2)
        p = rand_poly(rng, U3, nterms=4, maxdeg=2)
        if g.is_zero() or p.is_zero():
            continue
        d = gcd_multivariate(p * g, p)
        assert divides(d, p * g) and divides(d, p)


def test_gcd_integer_content_convention():
    x = Polynomial.variable(U3, "x")
    y = Polynomial.variable(U3, "y")
    p = (x + y) * 2
    q = (x - y) * 2
    assert gcd_multivariate(p, q) == Polynomial.constant(U3, 2)


def test_specialize_scalar_and_polynomial():
    x1 = Polynomial.variable(UG, "x1")
    a = Polynomial.variable(UG, "a")
    p = x1 * x1 * a
    out = p.specialize({"x1": Fraction(3, 2)}, target=UG)
    assert out == a * Fraction(9, 4)
    # polynomial substitution into a smaller universe
    small = VarUniverse(["a", "b"], {"c": ["a", "b"]})
    b_s = Polynomial.variable(small, "b")
    out2 = p.specialize(
        {"x1": b_s, "x2": Polynomial.zero(small), "a": Polynomial.variable(small, "a")},
        target=small,
    )
    assert out2 == b_s * b_s * Polynomial.variable(small, "a")


SMALL = VarUniverse(["a", "b"], {"c": ["a", "b"]})


def _rand_image(rng, universe, kind):
    if kind == "int":
        return rng.randint(-5, 5)
    if kind == "fraction":
        return Fraction(rng.randint(-7, 7), rng.randint(1, 6))
    if kind == "zero":
        return 0
    p = rand_poly(rng, universe, nterms=3, maxdeg=2, coeff=5)
    if kind == "fraction-poly":
        p = p * Fraction(rng.randint(1, 5), rng.randint(2, 7)) + Fraction(1, rng.randint(2, 5))
    return p


def _agrees_with_oracle(p, assignment, target=None):
    got = p.specialize(assignment, target)
    want = specialize_by_terms(p, assignment, target)
    assert got == want and got.universe == want.universe
    # same coefficient values, and an int wherever the value is integral
    assert {e: str(c) for e, c in got.terms.items()} == {e: str(c) for e, c in want.terms.items()}
    return got


def test_specialize_matches_term_oracle():
    rng = random.Random(31)
    kinds = ("int", "fraction", "zero", "poly", "fraction-poly")
    for _ in range(60):
        p = rand_poly(rng, UG, nterms=6, maxdeg=3)
        if rng.random() < 0.3:
            p = p * Fraction(rng.randint(1, 4), rng.randint(2, 9))
        # scalars only, some variables unassigned and kept
        names = rng.sample(UG.names, rng.randint(0, UG.n))
        scalars = {nm: _rand_image(rng, UG, rng.choice(kinds[:3])) for nm in names}
        _agrees_with_oracle(p, scalars)
        # mixed scalar and polynomial images into a smaller universe
        mixed = {nm: _rand_image(rng, SMALL, rng.choice(kinds)) for nm in UG.names}
        _agrees_with_oracle(p, mixed, target=SMALL)
        if not any(isinstance(v, Polynomial) for v in mixed.values()):
            mixed["a"] = Polynomial.variable(SMALL, "a")
        _agrees_with_oracle(p, mixed)  # target taken from the images
        # polynomial images in the source universe, unassigned variables kept
        names = rng.sample(UG.names, rng.randint(1, UG.n))
        own = {nm: _rand_image(rng, UG, rng.choice(kinds[3:])) for nm in names}
        _agrees_with_oracle(p, own, target=UG)

    # a full scalar point (the former Polynomial.evaluate)
    x = Polynomial.variable(U3, "x")
    y = Polynomial.variable(U3, "y")
    q = x * x + y * 3 - 7
    point = {"x": 2, "y": 5, "z": 9}
    assert _agrees_with_oracle(q, point).constant_value() == 4 + 15 - 7
    # a sum that cancels to zero, and constant and zero sources
    assert _agrees_with_oracle(x * y - y * y, {"x": y}).is_zero()
    assert _agrees_with_oracle(x - y, {"x": Polynomial.variable(U3, "y")}).is_zero()
    const = Polynomial.constant(UG, Fraction(3, 4))
    assert _agrees_with_oracle(const, {}, target=SMALL) == Polynomial.constant(SMALL, Fraction(3, 4))
    assert _agrees_with_oracle(Polynomial.zero(UG), {"x1": 2}, target=SMALL).is_zero()
    assert _agrees_with_oracle(Polynomial.zero(UG), {"x1": 2}).universe == UG


def test_specialize_field_width_edge():
    # every exponent of the kernel's monomials is bounded by
    # B = max over terms of sum(e_i * deg(image_i)); fields are whole bytes
    # of at least B.bit_length() bits, so B = 2**k - 1 fills a field when k
    # is a multiple of 8 and B = 2**k needs one more byte
    t = VarUniverse(["t", "s"], {"g": ["t", "s"]})
    tv, sv = Polynomial.variable(t, "t"), Polynomial.variable(t, "s")
    a, b = Polynomial.variable(SMALL, "a"), Polynomial.variable(SMALL, "b")
    for k in (1, 2, 3, 8, 16):
        for B in (2**k - 1, 2**k):
            # a full field next to a nonzero one: a carry would show in b
            got = _agrees_with_oracle(tv**B * sv, {"t": a, "s": b})
            assert got.terms == {(B, 1): 1}
            if k == 16:
                continue
            got = _agrees_with_oracle(tv**B + sv, {"t": a + b, "s": b * 3})
            assert got == (a + b) ** B + b * 3
            if B % 2 == 0:
                # degree-2 image: B = 2 * (B / 2)
                got = _agrees_with_oracle(tv ** (B // 2) * 5, {"t": a * a - a * b, "s": 1})
                assert got == (a * a - a * b) ** (B // 2) * 5
            else:
                # mixed degrees: B = 2 * (B // 2) + 1
                got = _agrees_with_oracle(
                    tv ** (B // 2) * sv, {"t": a * b + Fraction(1, 2), "s": b - a}
                )
                assert got == (a * b + Fraction(1, 2)) ** (B // 2) * (b - a)


def test_specialize_errors():
    x1 = Polynomial.variable(UG, "x1")
    a = Polynomial.variable(UG, "a")
    p = x1 * x1 * a + 1
    small_a = Polynomial.variable(SMALL, "a")
    for spec in (specialize_by_terms, Polynomial.specialize):
        with pytest.raises(TypeError):
            spec(p, {"x1": 1.5})
        with pytest.raises(UniverseMismatchError):
            spec(p, {"nope": 1})
        with pytest.raises(UniverseMismatchError):
            spec(p, {"x1": small_a, "a": a})
        # x1 has no image in SMALL and occurs in p
        with pytest.raises(UniverseMismatchError):
            spec(p, {"a": small_a}, SMALL)
        # x2 has no image in SMALL but does not occur: no error
        assert spec(p, {"x1": 2, "a": small_a}, SMALL) == small_a * 4 + 1


def test_multidegree_by_group():
    x1 = Polynomial.variable(UG, "x1")
    x2 = Polynomial.variable(UG, "x2")
    a = Polynomial.variable(UG, "a")
    p = x1 * x1 * a + x1 * x2 * a
    degs, homog = p.multidegree_by_group()
    assert degs == {"x": 2, "c": 1}
    assert homog == {"x": True, "c": True}
    q = p + x1
    _, homog2 = q.multidegree_by_group()
    assert not homog2["c"]


def test_serialization_roundtrip():
    rng = random.Random(29)
    for _ in range(10):
        p = rand_poly(rng, UG)
        assert poly_from_doc(poly_to_doc(p)) == p
    frac = Polynomial(UG, {(1, 0, 0, 0): Fraction(2, 3)})
    assert poly_from_doc(poly_to_doc(frac)) == frac


def test_power_and_str():
    x = Polynomial.variable(U3, "x")
    y = Polynomial.variable(U3, "y")
    assert (x + y) ** 0 == Polynomial.constant(U3, 1)
    assert (x + y) ** 3 == (x + y) * (x + y) * (x + y)
    assert str(Polynomial.zero(U3)) == "0"


_REIMPORT = """
import gc, sys, weakref
import msubres.cli, msubres.polyring
ref = weakref.ref(msubres.polyring.Polynomial)
for name in [m for m in sys.modules if m == "msubres" or m.startswith("msubres.")]:
    del sys.modules[name]
import msubres.cli
gc.collect()
sys.exit(0 if ref() is None else 1)
"""


def test_reimport_frees_old_polynomial_class():
    # Nothing import-time (such as a typing alias naming Polynomial, which
    # typing caches) may keep an old msubres alive after a re-import.  Runs in
    # a subprocess: dropping sys.modules here would mix classes in later tests.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _REIMPORT], env=env, timeout=120)
    assert proc.returncode == 0, "the old Polynomial class outlived a re-import"
