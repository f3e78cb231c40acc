"""Sparse exact multivariate polynomials over ZZ/QQ with grouped variables.

Polynomials are dictionaries mapping exponent tuples to nonzero integer (or
Fraction) coefficients.  Every polynomial carries a VarUniverse that fixes the
variable ordering and partitions the variables into named groups (the
geometric variables on one side, one coefficient group per input polynomial
on the other).  Terms are canonically ordered by graded reverse
lexicographic order with the first variable largest.

The multivariate gcd strips integer and monomial content, tries exact
division each way, and otherwise runs a primitive remainder sequence.
Substitution expands over packed monomials (one int per monomial), the
format that the all-minors sweep in linalg shares.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence, Union

Coeff = Union[int, Fraction]


class UniverseMismatchError(ValueError):
    pass


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class ZeroPolynomialError(ValueError):
    pass


def grevlex_key(exp: Sequence[int]):
    """Sort key such that max() picks the grevlex-leading monomial."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, grevlex-descending."""
    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    out.sort(key=grevlex_key, reverse=True)
    return out


# -- packed monomials -------------------------------------------------------
#
# A packed monomial is one int that holds exponent i in bits
# [i * width, (i + 1) * width).  Adding packed monomials multiplies the
# monomials as long as no field exceeds 2**width - 1, so callers take the
# width from a bound on every exponent they form (Monagan and Pearce,
# "Polynomial division using dynamic arrays, heaps, and packed exponent
# vectors", CASC 2007).  Fields are whole bytes, so that unpacking is one
# int.to_bytes call instead of a shift and mask per variable.


def packed_width(bound: int) -> int:
    """Field width in bits, a multiple of 8, that holds 0..bound."""
    return 8 * max(1, (bound.bit_length() + 7) // 8)


def pack_exponents(exp: Sequence[int], width: int) -> int:
    packed = 0
    for e in reversed(exp):
        packed = packed << width | e
    return packed


def unpack_exponents(packed: int, width: int, nvars: int) -> tuple[int, ...]:
    raw = packed.to_bytes(nvars * width // 8, "little")
    if width == 8:
        return tuple(raw)
    k = width // 8
    return tuple(int.from_bytes(raw[i : i + k], "little") for i in range(0, len(raw), k))


def _packed_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two {packed monomial: int} polynomials; may keep zeros."""
    if len(a) > len(b):
        a, b = b, a
    out: dict[int, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            out[m] = out.get(m, 0) + ca * cb
    return out


class VarUniverse:
    """Ordered variable names plus a disjoint partition into named groups."""

    __slots__ = ("names", "groups", "_index")

    def __init__(self, names: Sequence[str], groups: Mapping[str, Sequence[str]]):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self._index = {n: i for i, n in enumerate(self.names)}
        seen: set[str] = set()
        norm = {}
        for gname, members in groups.items():
            members = tuple(members)
            for m in members:
                if m not in self._index:
                    raise ValueError(f"group {gname!r} mentions unknown variable {m!r}")
                if m in seen:
                    raise ValueError(f"variable {m!r} assigned to two groups")
                seen.add(m)
            norm[gname] = members
        if seen != set(self.names):
            missing = sorted(set(self.names) - seen)
            raise ValueError(f"variables not covered by any group: {missing}")
        self.groups = norm

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self._index[name]

    def group_indices(self, gname: str) -> tuple[int, ...]:
        return tuple(self._index[m] for m in self.groups[gname])

    def __eq__(self, other):
        return (
            isinstance(other, VarUniverse)
            and self.names == other.names
            and self.groups == other.groups
        )

    def __hash__(self):
        return hash((self.names, tuple(sorted((g, m) for g, m in self.groups.items()))))

    def __repr__(self):
        return f"VarUniverse({list(self.names)!r})"


class ContentSplit(NamedTuple):
    content: Coeff
    primitive: "Polynomial"
    sign: int


def _as_coeff(c) -> Coeff:
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"unsupported coefficient type {type(c)!r}")


class Polynomial:
    __slots__ = ("universe", "terms")

    def __init__(self, universe: VarUniverse, terms: Mapping[tuple[int, ...], Coeff]):
        self.universe = universe
        clean = {}
        n = universe.n
        for exp, c in terms.items():
            if len(exp) != n:
                raise ValueError("exponent tuple length does not match universe")
            if c:
                clean[tuple(exp)] = _as_coeff(c)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, universe: VarUniverse) -> "Polynomial":
        return cls(universe, {})

    @classmethod
    def constant(cls, universe: VarUniverse, c: Coeff) -> "Polynomial":
        return cls(universe, {(0,) * universe.n: c})

    @classmethod
    def variable(cls, universe: VarUniverse, name: str) -> "Polynomial":
        exp = [0] * universe.n
        exp[universe.index(name)] = 1
        return cls(universe, {tuple(exp): 1})

    @classmethod
    def monomial(cls, universe: VarUniverse, exp: Sequence[int], c: Coeff = 1) -> "Polynomial":
        return cls(universe, {tuple(exp): c})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        zero = (0,) * self.universe.n
        return all(e == zero for e in self.terms)

    def constant_value(self) -> Coeff:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[(0,) * self.universe.n]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __len__(self):
        return len(self.terms)

    def leading_term(self) -> tuple[tuple[int, ...], Coeff]:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        exp = max(self.terms, key=grevlex_key)
        return exp, self.terms[exp]

    def variables(self) -> tuple[int, ...]:
        """Indices of variables that actually occur."""
        n = self.universe.n
        present = [False] * n
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    present[i] = True
        return tuple(i for i in range(n) if present[i])

    def degree_in(self, var_index: int) -> int:
        if not self.terms:
            return -1
        return max(e[var_index] for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.universe != other.universe:
            raise UniverseMismatchError("polynomials live in different universes")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.universe, other)
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, 0) + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return Polynomial(self.universe, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.universe, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.universe, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.universe)
            return Polynomial(self.universe, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        acc: dict[tuple[int, ...], Coeff] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                s = acc.get(exp, 0) + ca * cb
                if s:
                    acc[exp] = s
                else:
                    del acc[exp]
        return Polynomial(self.universe, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.universe, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.universe, other)
        return (
            isinstance(other, Polynomial)
            and self.universe == other.universe
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.universe, frozenset(self.terms.items())))

    # -- content / degrees -------------------------------------------------

    def content_and_primitive(self) -> ContentSplit:
        """Positive content, sign-normalized primitive part and the sign.

        The identity is  self == sign * content * primitive,  the primitive
        part has integer coefficients with positive grevlex-leading one.
        """
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no content")
        coeffs = list(self.terms.values())
        if all(isinstance(c, int) for c in coeffs):
            cont: Coeff = math.gcd(*(abs(c) for c in coeffs)) if coeffs else 1
        else:
            num = 0
            den = 1
            for c in coeffs:
                f = Fraction(c)
                num = math.gcd(num, abs(f.numerator))
                den = den * f.denominator // math.gcd(den, f.denominator)
            cont = Fraction(num, den)
        _, lc = self.leading_term()
        sign = 1 if lc > 0 else -1
        prim = Polynomial(
            self.universe, {e: c // cont * sign for e, c in self.terms.items()}
        )
        return ContentSplit(cont, prim, sign)

    def sign_normalized(self) -> "Polynomial":
        if self.is_zero():
            return self
        _, lc = self.leading_term()
        return self if lc > 0 else -self

    def multidegree_by_group(self) -> tuple[dict[str, int], dict[str, bool]]:
        """Per-group maximal total degree and per-group homogeneity flags."""
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no multidegree")
        degrees: dict[str, int] = {}
        homogeneous: dict[str, bool] = {}
        for gname in self.universe.groups:
            idx = self.universe.group_indices(gname)
            per_term = [sum(e[i] for i in idx) for e in self.terms]
            degrees[gname] = max(per_term)
            homogeneous[gname] = min(per_term) == max(per_term)
        return degrees, homogeneous

    # -- substitution ------------------------------------------------------

    def specialize(
        self,
        assignment: Mapping[str, Union[Coeff, "Polynomial"]],
        target: Optional[VarUniverse] = None,
    ) -> "Polynomial":
        """Simultaneous substitution of variables by scalars or polynomials.

        A variable left out of the assignment maps to itself when the target
        universe has it; a variable with no image raises only if it occurs.
        Every image is scaled to integer coefficients, every term is expanded
        over packed monomials into one integer accumulator, and the result is
        divided by the common denominator once, at the end.
        """
        source = self.universe
        for name in assignment:
            if name not in source._index:
                raise UniverseMismatchError(f"variable {name!r} not in universe")
        poly_values = [v for v in assignment.values() if isinstance(v, Polynomial)]
        if target is None:
            if poly_values:
                target = poly_values[0].universe
            else:
                target = source
        for v in poly_values:
            if v.universe != target:
                raise UniverseMismatchError("assigned polynomials live in different universes")

        # image of every source variable: a scalar, a Polynomial in the target
        # universe, or None (only an error if the variable occurs)
        images: list = []
        for name in source.names:
            if name in assignment:
                val = assignment[name]
                if not isinstance(val, (Polynomial, int, Fraction)):
                    raise TypeError(f"unsupported coefficient type {type(val)!r}")
                images.append(val)
            elif name in target._index:
                images.append(Polynomial.variable(target, name))
            else:
                images.append(None)

        # The monomials of a term's product have total degree at most
        # sum(e_i * deg(image_i)) <= bound, so no exponent of any monomial
        # formed below exceeds bound, and fields of packed_width(bound) bits
        # never carry: the kernel only adds packed monomials.
        degrees = [max(v.degree(), 0) if isinstance(v, Polynomial) else 0 for v in images]
        top = [0] * source.n  # largest exponent of each variable over the terms
        bound = 0
        for exp in self.terms:
            b = 0
            for i, e in enumerate(exp):
                if e:
                    if images[i] is None:
                        raise UniverseMismatchError(
                            f"variable {source.names[i]!r} has no image in target universe"
                        )
                    b += e * degrees[i]
                    if e > top[i]:
                        top[i] = e
            if b > bound:
                bound = b
        width = packed_width(bound)

        # image i is nums[i] / dens[i]: an int, or {packed monomial: int}
        nums: list = []
        dens: list[int] = []
        for v in images:
            if isinstance(v, Polynomial):
                den = math.lcm(*(c.denominator for c in v.terms.values()))
                nums.append({
                    pack_exponents(e, width): c.numerator * (den // c.denominator)
                    for e, c in v.terms.items()
                })
                dens.append(den)
            elif v is None:
                nums.append(None)
                dens.append(1)
            else:
                nums.append(v.numerator)
                dens.append(v.denominator)
        scale = math.lcm(*(c.denominator for c in self.terms.values()))
        denom = scale
        for d, t in zip(dens, top):
            denom *= d**t
        scaled = [d != 1 and t > 0 for d, t in zip(dens, top)]

        # (i, e) -> (factor, packed power or None).  The factor carries
        # dens[i] ** (top[i] - e), the share of the common denominator that
        # the term's own exponent leaves out, and a scalar image's power.
        powers: dict[tuple[int, int], tuple[int, Optional[dict[int, int]]]] = {}
        acc: dict[int, int] = {}
        for exp, c in self.terms.items():
            coef = c.numerator * (scale // c.denominator)
            factors = []
            for i, e in enumerate(exp):
                if not e and not scaled[i]:
                    continue
                got = powers.get((i, e))
                if got is None:
                    num, lack = nums[i], dens[i] ** (top[i] - e)
                    if isinstance(num, dict):
                        power = num if e else None
                        for _ in range(e - 1):
                            power = _packed_mul(power, num)
                        got = (lack, power)
                    else:
                        got = (num**e * lack, None)
                    powers[(i, e)] = got
                coef *= got[0]
                if got[1] is not None:
                    factors.append(got[1])
            if not coef:
                continue
            factors.sort(key=len)
            prod = factors[0] if factors else {0: 1}
            for f in factors[1:]:
                prod = _packed_mul(prod, f)
            for m, v in prod.items():
                acc[m] = acc.get(m, 0) + coef * v

        n = target.n
        out: dict[tuple[int, ...], Coeff] = {}
        for m, v in acc.items():
            if v:
                out[unpack_exponents(m, width, n)] = (
                    v // denom if v % denom == 0 else Fraction(v, denom)
                )
        return Polynomial(target, out)

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[exp]
            factors = [
                f"{self.universe.names[i]}^{e}" if e > 1 else self.universe.names[i]
                for i, e in enumerate(exp)
                if e
            ]
            body = "*".join(factors)
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"Polynomial({self})"


# -- exact division ---------------------------------------------------------


def _division(p: Polynomial, q: Polynomial, rational: bool) -> Optional[Polynomial]:
    """Quotient of p by q if exact, else None.  Heap-driven sparse division."""
    p._check(q)
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return Polynomial.zero(p.universe)
    q_lead, q_lc = q.leading_term()
    q_rest = [(e, c) for e, c in q.terms.items() if e != q_lead]
    rem = dict(p.terms)
    # min-heap on the negated grevlex key pops the current leading term first
    heap = [((-sum(exp), tuple(exp[::-1])), exp) for exp in rem]
    heapq.heapify(heap)
    quo: dict[tuple[int, ...], Coeff] = {}
    scheduled = set(rem)
    while heap:
        _, exp = heapq.heappop(heap)
        scheduled.discard(exp)
        c = rem.pop(exp, 0)
        if not c:
            continue
        diff = tuple(a - b for a, b in zip(exp, q_lead))
        if any(d < 0 for d in diff):
            return None
        if rational:
            t = Fraction(c, 1) / q_lc
        else:
            if c % q_lc:
                return None
            t = c // q_lc
        quo[diff] = t
        for e2, c2 in q_rest:
            tgt = tuple(a + b for a, b in zip(diff, e2))
            s = rem.get(tgt, 0) - t * c2
            if s:
                rem[tgt] = s
                if tgt not in scheduled:
                    scheduled.add(tgt)
                    heapq.heappush(heap, ((-sum(tgt), tuple(tgt[::-1])), tgt))
            else:
                rem.pop(tgt, None)
    if rem:
        return None
    if rational:
        quo = {e: (int(c) if isinstance(c, Fraction) and c.denominator == 1 else c) for e, c in quo.items()}
    return Polynomial(p.universe, quo)


def exact_divide(p: Polynomial, q: Polynomial) -> Polynomial:
    """Quotient r with r*q == p in the integer polynomial ring."""
    r = _division(p, q, rational=False)
    if r is None:
        raise ExactDivisionError("division is not exact")
    return r


def divide_qq(p: Polynomial, q: Polynomial) -> Optional[Polynomial]:
    """Quotient over QQ if q divides p in the rational polynomial ring."""
    return _division(p, q, rational=True)


def divides(q: Polynomial, p: Polynomial) -> bool:
    """True iff q divides p in the rational polynomial ring."""
    if q.is_zero():
        raise ZeroPolynomialError("zero candidate divisor")
    return _division(p, q, rational=True) is not None


# -- gcd --------------------------------------------------------------------


def _int_content(p: Polynomial) -> int:
    return int(math.gcd(*(abs(int(c)) for c in p.terms.values())))


def _monomial_content(p: Polynomial) -> tuple[int, ...]:
    mins = None
    for exp in p.terms:
        if mins is None:
            mins = list(exp)
        else:
            mins = [min(a, b) for a, b in zip(mins, exp)]
    return tuple(mins)


def _shift_down(p: Polynomial, mono: tuple[int, ...]) -> Polynomial:
    if not any(mono):
        return p
    return Polynomial(
        p.universe, {tuple(a - b for a, b in zip(e, mono)): c for e, c in p.terms.items()}
    )


def _most_frequent_variable(p: Polynomial, q: Polynomial) -> int:
    counts: dict[int, int] = {}
    for poly in (p, q):
        for exp in poly.terms:
            for i, e in enumerate(exp):
                if e:
                    counts[i] = counts.get(i, 0) + 1
    return max(counts, key=lambda i: (counts[i], -i))


def _univariate_parts(p: Polynomial, v: int) -> dict[int, Polynomial]:
    out: dict[int, dict] = {}
    for exp, c in p.terms.items():
        e = exp[v]
        rest = exp[:v] + (0,) + exp[v + 1 :]
        out.setdefault(e, {})[rest] = c
    return {e: Polynomial(p.universe, t) for e, t in out.items()}


def _poly_content(p: Polynomial, v: int) -> Polynomial:
    """gcd of the coefficients of p viewed as univariate in variable v."""
    parts = _univariate_parts(p, v)
    cont = Polynomial.zero(p.universe)
    for e in sorted(parts):
        cont = gcd_multivariate(cont, parts[e])
        if cont.is_constant() and abs(cont.constant_value()) == 1:
            break
    return cont


def _pseudo_remainder(a: Polynomial, b: Polynomial, v: int) -> Polynomial:
    da, db = a.degree_in(v), b.degree_in(v)
    b_parts = _univariate_parts(b, v)
    lb = b_parts[db]
    universe = a.universe
    while not a.is_zero():
        da = a.degree_in(v)
        if da < db:
            return a
        a_parts = _univariate_parts(a, v)
        la = a_parts[da]
        shift = [0] * universe.n
        shift[v] = da - db
        xs = Polynomial.monomial(universe, tuple(shift))
        a = a * lb - b * (la * xs)
    return a


def _prs_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Primitive polynomial remainder sequence gcd (recursive on variables)."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    vars_p, vars_q = set(p.variables()), set(q.variables())
    common = vars_p & vars_q
    if not common:
        # no shared variable: gcd is a constant, and both inputs are
        # primitive at this point, so it is 1
        if p.is_constant() and q.is_constant():
            return Polynomial.constant(
                p.universe, math.gcd(int(p.constant_value()), int(q.constant_value()))
            )
        return Polynomial.constant(p.universe, 1)
    v = _most_frequent_variable(p, q)
    if v not in common:
        v = next(iter(sorted(common)))
    cont_p = _poly_content(p, v)
    cont_q = _poly_content(q, v)
    a = exact_divide(p, cont_p)
    b = exact_divide(q, cont_q)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while True:
        if b.is_zero():
            g = a
            break
        if b.degree_in(v) == 0:
            # b is v-free and nonzero: the v-part of the gcd is trivial
            g = Polynomial.constant(p.universe, 1)
            break
        r = _pseudo_remainder(a, b, v)
        if r.is_zero():
            g = b
            break
        cont_r = _poly_content(r, v)
        a, b = b, exact_divide(r, cont_r)
    if g.degree_in(v) > 0:
        g = exact_divide(g, _poly_content(g, v))
    else:
        g = Polynomial.constant(p.universe, 1)
    cont_gcd = gcd_multivariate(cont_p, cont_q)
    return (g * cont_gcd).sign_normalized()


def gcd_multivariate(p: Polynomial, q: Polynomial) -> Polynomial:
    """Sign-normalized gcd in ZZ[vars], including the integer-content gcd.

    gcd(2p, 2q) == 2*gcd(p, q); gcd(p, 0) is the sign-normalized p.
    """
    if p.is_zero() and q.is_zero():
        raise ZeroPolynomialError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.sign_normalized()
    if q.is_zero():
        return p.sign_normalized()
    p._check(q)
    universe = p.universe

    ic = math.gcd(_int_content(p), _int_content(q))
    mono_p, mono_q = _monomial_content(p), _monomial_content(q)
    shared_mono = tuple(min(a, b) for a, b in zip(mono_p, mono_q))
    pp = _shift_down(p, mono_p).content_and_primitive().primitive
    qq = _shift_down(q, mono_q).content_and_primitive().primitive
    lead = Polynomial.monomial(universe, shared_mono, ic)

    if pp.is_constant() or qq.is_constant():
        return lead.sign_normalized()
    if divide_qq(qq, pp) is not None:
        return (lead * pp).sign_normalized()
    if divide_qq(pp, qq) is not None:
        return (lead * qq).sign_normalized()
    return (lead * _prs_gcd(pp, qq)).sign_normalized()


# -- serialization ----------------------------------------------------------


def poly_to_doc(p: Polynomial) -> dict:
    """Structured document for a polynomial; round-trips bit-exactly."""
    terms = []
    for exp in sorted(p.terms, key=grevlex_key, reverse=True):
        c = p.terms[exp]
        terms.append({"coeff": str(c), "exp": list(exp)})
    return {
        "vars": list(p.universe.names),
        "groups": {g: list(m) for g, m in p.universe.groups.items()},
        "terms": terms,
    }


def _parse_coeff(s: str) -> Coeff:
    if "/" in s:
        return Fraction(s)
    return int(s)


def poly_from_doc(doc: Mapping) -> Polynomial:
    universe = VarUniverse(doc["vars"], doc["groups"])
    terms = {tuple(t["exp"]): _parse_coeff(t["coeff"]) for t in doc["terms"]}
    return Polynomial(universe, terms)
