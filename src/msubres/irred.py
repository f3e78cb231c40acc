"""Desk-scale irreducibility and power-shape testing over ZZ.

The verdict pipeline is one-sided by design: Irreducible is claimed only
when the factor-degree patterns of random line restrictions, factored
modulo several ~10^4 primes, exclude every nontrivial split; Reducible is
claimed only with a witness that divides exactly.  Everything else is
Inconclusive.  A line restriction is one exact integer evaluation
(Kronecker substitution), and the power test reads the leading term once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .polyring import Polynomial

PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079)
_MAX_LINES = 3


class VerdictPreconditionError(ValueError):
    """The verdict got a constant or non-primitive polynomial: a caller's fault."""


@dataclass(frozen=True)
class Verdict:
    kind: str  # "irreducible" | "reducible" | "inconclusive"
    witness: Optional[Polynomial] = None
    reason: str = ""

    @property
    def is_irreducible(self) -> bool:
        return self.kind == "irreducible"

    @property
    def is_reducible(self) -> bool:
        return self.kind == "reducible"


# -- power form -------------------------------------------------------------


def _iroot(c: int, k: int) -> Optional[int]:
    """Exact integer k-th root of c, or None; no floating point."""
    if c < 0:
        return None
    if k == 2:
        r = math.isqrt(c)
    elif c < 2:
        r = c
    else:
        # Newton from above: the iterates decrease to floor(c^(1/k))
        r = 1 << -(-c.bit_length() // k)
        while True:
            nxt = ((k - 1) * r + c // r ** (k - 1)) // k
            if nxt >= r:
                break
            r = nxt
    return r if r**k == c else None


def _kth_root(
    p: Polynomial, k: int, lt_exp: tuple[int, ...], lt_c: int
) -> Optional[Polynomial]:
    """b with b^k == p, or None; (lt_exp, lt_c) is p's leading term, k | lt_exp."""
    root_c = _iroot(int(lt_c), k)
    if root_c is None:
        return None
    base = Polynomial.monomial(p.universe, tuple(e // k for e in lt_exp), root_c)
    max_steps = 4 * len(p) + 10
    for _ in range(max_steps):
        r = p - base**k
        if r.is_zero():
            return base
        lead_exp, lead_c = r.leading_term()
        # next term t satisfies k * LT(base)^(k-1) * t = LT(r)
        denom = Polynomial.monomial(
            p.universe, tuple(e * (k - 1) // k for e in lt_exp), k * root_c ** (k - 1)
        )
        t_exp = tuple(a - b for a, b in zip(lead_exp, next(iter(denom.terms))))
        if any(e < 0 for e in t_exp):
            return None
        dc = denom.terms[next(iter(denom.terms))]
        if lead_c % dc:
            return None
        base = base + Polynomial.monomial(p.universe, t_exp, lead_c // dc)
    return None


def power_form(p: Polynomial) -> tuple[Polynomial, int]:
    """Maximal k >= 1 and base b with p = +-b^k; k = 1 means no proper power.

    Such a k divides every leading exponent, and +-p with lc > 0 is +-b^k.
    """
    if p.is_zero() or p.is_constant():
        raise ValueError("power_form requires a nonconstant polynomial")
    lt_exp, lt_c = p.leading_term()
    q = p if lt_c > 0 else -p
    bound = math.gcd(*lt_exp)
    for k in range(bound, 1, -1):
        if bound % k == 0:
            b = _kth_root(q, k, lt_exp, abs(lt_c))
            if b is not None:
                return b, k
    return p, 1


# -- univariate factorization patterns mod p --------------------------------


def _um_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _um_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        off = len(a) - len(b)
        if c:
            for i, bc in enumerate(b):
                a[off + i] = (a[off + i] - c * bc) % p
        a.pop()
        _um_trim(a)
        if not a:
            break
    return a


def _um_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _um_trim(a[:]), _um_trim(b[:])
    while b:
        a, b = b, _um_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _um_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _um_mod(_um_trim(out), f, p)


def _um_powmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _um_mod(_um_trim(base[:]), f, p)
    while e:
        if e & 1:
            result = _um_mulmod(result, base, f, p)
        e >>= 1
        if e:
            base = _um_mulmod(base, base, f, p)
    return result


def _um_derivative(f: list[int], p: int) -> list[int]:
    return _um_trim([(i * c) % p for i, c in enumerate(f)][1:])


def _um_divexact(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    out = [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        off = len(a) - len(b)
        out[off] = c
        for i, bc in enumerate(b):
            a[off + i] = (a[off + i] - c * bc) % p
        a.pop()
        _um_trim(a)
        if not a:
            break
    return _um_trim(out)


def _um_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _um_trim(out)


def _squarefree_parts(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Yun decomposition [(squarefree factor, multiplicity)]; needs p > deg f."""
    out = []
    fp = _um_derivative(f, p)
    a = _um_gcd(f, fp, p)
    b = _um_divexact(f, a, p)
    c = _um_divexact(fp, a, p)
    d = _um_sub(c, _um_derivative(b, p), p)
    i = 1
    while len(b) > 1:
        ai = _um_gcd(b, d, p)
        if len(ai) > 1:
            out.append((ai, i))
        b = _um_divexact(b, ai, p)
        c = _um_divexact(d, ai, p)
        d = _um_sub(c, _um_derivative(b, p), p)
        i += 1
    return out


def _distinct_degree_pattern(f: list[int], p: int) -> list[int]:
    """Multiset of irreducible factor degrees of squarefree monic f mod p."""
    pattern = []
    h = [0, 1]  # x
    d = 0
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            pattern.append(len(f) - 1)
            break
        h = _um_powmod(h, p, f, p)
        diff = h[:]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _um_gcd(f, _um_trim(diff), p)
        if len(g) > 1:
            count = (len(g) - 1) // d
            pattern.extend([d] * count)
            f = _um_divexact(f, g, p)
            h = _um_mod(h, f, p)
    return pattern


def degree_pattern(f: list[int], p: int) -> Optional[list[int]]:
    """Irreducible factor degrees (with multiplicity) of f mod p.

    None when f degenerates mod p (leading coefficient vanishes) or is
    constant.
    """
    if len(f) < 2 or f[-1] % p == 0:
        return None
    f = [c % p for c in f]
    monic = [c * pow(f[-1], -1, p) % p for c in f]
    pattern = []
    for sf, mult in _squarefree_parts(monic, p):
        sub = _distinct_degree_pattern(sf, p)
        pattern.extend(sub * mult)
    pattern.sort()
    return pattern


def _achievable_sums(pattern: list[int], total: int) -> frozenset[int]:
    sums = 1  # bitset
    for d in pattern:
        sums |= sums << d
    return frozenset(
        s for s in range(1, total) if (sums >> s) & 1
    )


# -- restriction ------------------------------------------------------------


def _line_image(p: Polynomial, lines: Sequence[tuple[int, int]]) -> list:
    """Restrict to x_i = a_i*t + b_i; dense coefficient list in t (ints).

    Kronecker substitution: with s = max(1, max_i |a_i| + |b_i|), each image
    coefficient is at most B = sum |c| * s^deg in absolute value, so p is
    evaluated once at x_i = a_i 2^w + b_i, w = bitlength(B) + 1, and the
    image read off as signed base-2^w digits.
    """
    deg = p.degree()
    if deg < 0:
        return []
    s = max([1] + [abs(a) + abs(b) for a, b in lines])
    w = (sum(abs(c) for c in p.terms.values()) * s**deg).bit_length() + 1
    points = [(a << w) + b for a, b in lines]
    powers: dict[tuple[int, int], int] = {}
    value = 0
    for exp, c in p.terms.items():
        for i, e in enumerate(exp):
            if e:
                pe = powers.get((i, e))
                if pe is None:
                    pe = powers[(i, e)] = points[i] ** e
                c *= pe
        value += c
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    out = []
    for _ in range(deg + 1):
        digit = value & mask
        if digit & half:
            digit -= 1 << w
        out.append(digit)
        value = (value - digit) >> w
    while out and out[-1] == 0:
        out.pop()
    return out


def _restrict_to_line(p: Polynomial, rng: random.Random) -> Optional[list[int]]:
    """Integer coefficient list of p along x_i = a_i t + b_i, or None on drop."""
    lines = [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(p.universe.n)]
    img = _line_image(p, lines)
    if len(img) - 1 != p.degree():
        return None
    return img


def irreducibility_verdict(p: Polynomial, seed: int) -> Verdict:
    if p.is_zero() or p.is_constant():
        raise VerdictPreconditionError("verdict requires a nonconstant polynomial")
    # the caller holds the content split: check it, do not redo it
    coeffs = p.terms.values()
    if not all(isinstance(c, int) for c in coeffs) or math.gcd(*coeffs) != 1:
        raise VerdictPreconditionError("caller must strip integer content first")

    base, k = power_form(p)
    if k >= 2:
        return Verdict(kind="reducible", witness=base, reason=f"proper {k}-th power")

    total = p.degree()
    if total == 1:
        return Verdict(kind="irreducible", reason="linear")

    rng = random.Random(seed)
    consistent: Optional[set[int]] = None
    lines_used = 0
    while lines_used < _MAX_LINES:
        img = None
        for _ in range(3):
            img = _restrict_to_line(p, rng)
            if img is not None:
                break
        if img is None:
            return Verdict(kind="inconclusive", reason="degree dropped on every restriction")
        lines_used += 1
        for q in PRIMES:
            pattern = degree_pattern(img, q)
            if pattern is None:
                continue
            sums = _achievable_sums(pattern, total)
            consistent = set(sums) if consistent is None else consistent & sums
            if not consistent:
                return Verdict(kind="irreducible", reason="no consistent factor-degree split")
        # another random line can only shrink the surviving splits
    if consistent is None:
        return Verdict(kind="inconclusive", reason="no usable prime reduction")
    return Verdict(
        kind="inconclusive",
        reason=f"splits {sorted(consistent)} consistent at all primes",
    )
