"""Independent oracles used to pin golden values.

Everything here is deliberately naive: inclusion-exclusion instead of
series manipulation, permutation expansion and Bareiss elimination instead
of the packed minors sweep, Gauss-Jordan over Fraction instead of the
fraction-free integer elimination, the gcd of every maximal minor instead
of one Cayley ratio of determinants, term-by-term Polynomial products
instead of the packed substitution kernel, convolved powers of a line
instead of one Kronecker-substituted evaluation, sympy instead of the
package's own factorization pipeline.  The point is that an oracle shares no code path
with the implementation it checks; the gcd of minors shares only the packed
sweep, which is checked against Bareiss on its own.
"""

import math
import operator
from fractions import Fraction
from itertools import combinations, permutations

import sympy

from msubres.linalg import _packed_minors
from msubres.polyring import (
    Polynomial,
    UniverseMismatchError,
    divide_qq,
    exact_divide,
    gcd_multivariate,
)


def hilbert_inclusion_exclusion(n, degrees, t):
    """dim of the degree-t quotient piece via inclusion-exclusion."""
    if t < 0:
        return 0
    total = 0
    for k in range(len(degrees) + 1):
        for sub in combinations(degrees, k):
            shift = t - sum(sub)
            if shift >= 0:
                total += (-1) ** k * math.comb(shift + n - 1, n - 1)
    return total


def permutation_determinant(rows):
    """Leibniz expansion; entries may be ints, Fractions, or ring elements."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    det = None
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        if sign < 0:
            term = -term
        det = term if det is None else det + term
    return det


def bareiss_determinant(rows):
    """Fraction-free Bareiss elimination: the reference for the packed
    all-minors sweep.  Entries may be ints, Fractions or Polynomials; every
    division by the previous pivot is exact."""
    n = len(rows)
    if n == 0:
        return 1
    poly = next((e for row in rows for e in row if isinstance(e, Polynomial)), None)
    if poly is None:
        m = [[Fraction(e) for e in row] for row in rows]
        divide = operator.truediv
        prev = Fraction(1)
    else:
        m = [[e if isinstance(e, Polynomial) else Polynomial.constant(poly.universe, e)
              for e in row] for row in rows]
        divide = exact_divide
        prev = Polynomial.constant(poly.universe, 1)
    sign = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:  # a zero column
                return m[k][k]
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = divide(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def fraction_rref(rows):
    """Reduced row echelon form of a rational matrix and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def fraction_kernel_basis(rows, ncols):
    """Right-kernel basis from fraction_rref, one vector per free column,
    each scaled to integers with content 1 and a positive first entry."""
    red, pivots = fraction_rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -red[ri][fc]
        den = 1
        for v in vec:
            den = den * v.denominator // math.gcd(den, v.denominator)
        ints = [int(v * den) for v in vec]
        g = math.gcd(*(abs(x) for x in ints))
        lead = next(x for x in ints if x)
        sgn = 1 if lead > 0 else -1
        basis.append([sgn * x // g for x in ints])
    return basis


def gcd_of_minors_by_gcd(m):
    """Sign-normalized gcd of every maximal minor of a 0/+-variable
    ExactMatrix, content retained; the zero polynomial if all vanish.  The
    reference for the Cayley ratio of linalg.gcd_of_maximal_minors: all
    minors from one packed sweep, visited sparsest first, each either settled
    by an exact division or folded in by the general gcd."""
    r, c = m.nrows, m.ncols
    if r > c:
        raise ValueError("need rows <= columns")
    universe = m.universe
    if r == 0:
        return Polynomial.constant(universe, 1)
    packed = _packed_minors(m)

    g = Polynomial.zero(universe)
    for cols in sorted(packed, key=lambda cols: (len(packed[cols]), cols)):
        minor = packed[cols]
        if not g.is_zero():
            # the running gcd already divides this minor with an integer
            # quotient: the minor cannot refine it
            quo = divide_qq(minor, g)
            if quo is not None and all(cf.denominator == 1 for cf in quo.terms.values()):
                continue
        g = gcd_multivariate(g, minor)
        if g.is_constant() and abs(g.constant_value()) == 1:
            break
    return g.sign_normalized()


def specialize_by_terms(poly, assignment, target=None):
    """Reference for Polynomial.specialize: each term of poly becomes a chain
    of Polynomial products of cached powers of the images, with the same
    checks and the same default target."""
    source = poly.universe
    for name in assignment:
        if name not in source.names:
            raise UniverseMismatchError(f"variable {name!r} not in universe")
    poly_values = [v for v in assignment.values() if isinstance(v, Polynomial)]
    if target is None:
        target = poly_values[0].universe if poly_values else source
    for v in poly_values:
        if v.universe != target:
            raise UniverseMismatchError("assigned polynomials live in different universes")
    images = []
    for name in source.names:
        if name in assignment:
            val = assignment[name]
            if isinstance(val, Polynomial):
                images.append(val)
            elif isinstance(val, (int, Fraction)):
                images.append(Polynomial.constant(target, val))
            else:
                raise TypeError(f"unsupported coefficient type {type(val)!r}")
        elif name in target.names:
            images.append(Polynomial.variable(target, name))
        else:
            images.append(None)
    powers = {}
    acc = Polynomial.zero(target)
    for exp, c in poly.terms.items():
        term = Polynomial.constant(target, c)
        for i, e in enumerate(exp):
            if not e:
                continue
            if images[i] is None:
                raise UniverseMismatchError(
                    f"variable {source.names[i]!r} has no image in target universe"
                )
            if (i, e) not in powers:
                powers[(i, e)] = images[i] ** e
            term = term * powers[(i, e)]
        acc = acc + term
    return acc


def line_image_by_convolution(p, lines):
    """Reference for irred._line_image: restrict to x_i = a_i*t + b_i by
    expanding each (a_i t + b_i)^e and convolving them term by term; dense
    coefficient list in t (ints), zero tail stripped."""
    deg = p.degree()
    pow_cache: dict[tuple[int, int], list[int]] = {}

    def linpow(i: int, e: int) -> list[int]:
        key = (i, e)
        got = pow_cache.get(key)
        if got is not None:
            return got
        a, b = lines[i]
        cur = [1]
        for _ in range(e):
            nxt = [0] * (len(cur) + 1)
            for j, c in enumerate(cur):
                nxt[j] += c * b
                nxt[j + 1] += c * a
            cur = nxt
        pow_cache[key] = cur
        return cur

    out = [0] * (deg + 1)
    for exp, c in p.terms.items():
        cur = [c]
        for i, e in enumerate(exp):
            if e:
                pe = linpow(i, e)
                nxt = [0] * (len(cur) + len(pe) - 1)
                for j, cj in enumerate(cur):
                    if cj:
                        for k, pk in enumerate(pe):
                            if pk:
                                nxt[j + k] += cj * pk
                cur = nxt
        for j, cj in enumerate(cur):
            out[j] += cj
    while out and out[-1] == 0:
        out.pop()
    return out


def sylvester_resultant(p_coeffs, q_coeffs):
    """Resultant of two binary forms given by coefficient lists.

    p_coeffs[i] is the coefficient of x1^(dp-i) * x2^i; entries can be ring
    elements.  Built as the permanent-free Leibniz determinant of the
    Sylvester matrix.
    """
    dp, dq = len(p_coeffs) - 1, len(q_coeffs) - 1
    size = dp + dq
    rows = []
    for i in range(dq):
        rows.append([0] * i + list(p_coeffs) + [0] * (size - dp - 1 - i))
    for i in range(dp):
        rows.append([0] * i + list(q_coeffs) + [0] * (size - dq - 1 - i))
    return permutation_determinant(rows)


def sympy_poly(p, symbols=None):
    """Convert a package Polynomial to a sympy expression."""
    if symbols is None:
        symbols = {nm: sympy.Symbol(nm) for nm in p.universe.names}
    expr = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Rational(c) if isinstance(c, Fraction) else sympy.Integer(c)
        for nm, e in zip(p.universe.names, exp):
            if e:
                term *= symbols[nm] ** e
        expr += term
    return expr


def sympy_factor_degrees(p):
    """Total degrees of the irreducible factors of p, with multiplicity."""
    _, factors = sympy.factor_list(sympy_poly(p))
    out = []
    for f, mult in factors:
        out.extend([sympy.total_degree(f)] * mult)
    return sorted(out)


def sympy_is_irreducible(p):
    _, factors = sympy.factor_list(sympy_poly(p))
    return len(factors) == 1 and factors[0][1] == 1


def classical_subresultant_coeffs(f_coeffs, g_coeffs, index):
    """Coefficient list of the index-th subresultant of two integer
    univariate polynomials (sympy PRS oracle), lowest degree first."""
    x = sympy.Symbol("x")
    f = sum(c * x**i for i, c in enumerate(f_coeffs))
    g = sum(c * x**i for i, c in enumerate(g_coeffs))
    seq = sympy.subresultants(f, g, x)
    for s in seq:
        if sympy.degree(s, x) == index:
            return [int(c) for c in reversed(sympy.Poly(s, x).all_coeffs())]
    return None
