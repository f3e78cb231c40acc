import random
from fractions import Fraction
from itertools import combinations

import pytest

from msubres.linalg import (
    ExactMatrix,
    SymbolicEntryError,
    _integer_rref,
    _packed_minors,
    gcd_of_maximal_minors,
    kernel_basis_over_Q,
    rank_over_Q,
)
from msubres.polyring import Polynomial, VarUniverse, divides
from oracles import (
    bareiss_determinant,
    fraction_kernel_basis,
    fraction_rref,
    gcd_of_minors_by_gcd,
    permutation_determinant,
)

U = VarUniverse(["a", "b", "c", "d"], {"g": ["a", "b", "c", "d"]})


def rand_int_matrix(rng, r, c, bound=9):
    return ExactMatrix([[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)])


def test_determinant_int_against_permutation_oracle():
    rng = random.Random(3)
    for size in (1, 2, 3, 4, 5):
        for _ in range(6):
            rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            assert bareiss_determinant(rows) == permutation_determinant(rows)


def test_determinant_fraction_entries():
    rng = random.Random(5)
    rows = [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(3)]
        for _ in range(3)
    ]
    assert bareiss_determinant(rows) == permutation_determinant(rows)


def test_determinant_polynomial_entries():
    rng = random.Random(7)
    vars_ = [Polynomial.variable(U, nm) for nm in U.names]
    for _ in range(5):
        rows = [
            [rng.choice(vars_) * rng.randint(1, 3) + rng.randint(-2, 2) for _ in range(3)]
            for _ in range(3)
        ]
        assert bareiss_determinant(rows) == permutation_determinant(rows)


def test_zero_row_determinant():
    a = Polynomial.variable(U, "a")
    b = Polynomial.variable(U, "b")
    rows = [[0, 0], [a, -b]]
    assert _packed_minors(ExactMatrix(rows, universe=U)) == {}
    assert bareiss_determinant(rows) == 0


def test_rank_and_kernel_consistency():
    rng = random.Random(11)
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_int_matrix(rng, r, c, bound=4)
        rank = rank_over_Q(m)
        ker = kernel_basis_over_Q(m)
        assert rank + len(ker) == c
        for vec in ker:
            for row in m.entries:
                assert sum(Fraction(e) * v for e, v in zip(row, vec)) == 0


def test_kernel_vectors_normalized():
    m = ExactMatrix([[2, 4, 6]])
    ker = kernel_basis_over_Q(m)
    assert len(ker) == 2
    for vec in ker:
        from math import gcd
        g = 0
        for v in vec:
            g = gcd(g, abs(v))
        assert g == 1
        lead = next(v for v in vec if v)
        assert lead > 0


def test_rank_deficient_known():
    m = ExactMatrix([[1, 2], [2, 4], [3, 6]])
    assert rank_over_Q(m) == 1


def _random_rational_rows(rng):
    """One seeded matrix: int, Fraction or mixed entries, small or near
    10^30, possibly a rank-deficient product, with zero rows and columns."""
    r, c = rng.randint(0, 6), rng.randint(1, 7)
    if rng.random() < 0.2:
        c = 1
    bound = 10**30 if rng.random() < 0.25 else 6
    kind = rng.choice(("int", "fraction", "mixed"))

    def entry():
        num = rng.randint(-bound, bound)
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return num
        return Fraction(num, rng.randint(1, bound))

    if rng.random() < 0.3 and r and c:
        # a product through a narrow middle: rank at most k
        k = rng.randint(0, min(r, c) - 1)
        a = [[entry() for _ in range(k)] for _ in range(r)]
        b = [[entry() for _ in range(c)] for _ in range(k)]
        rows = [[sum((a[i][t] * b[t][j] for t in range(k)), 0) for j in range(c)]
                for i in range(r)]
    else:
        rows = [[entry() for _ in range(c)] for _ in range(r)]
    if rows and rng.random() < 0.3:
        rows[rng.randrange(r)] = [0] * c
    if rows and rng.random() < 0.3:
        j = rng.randrange(c)
        for row in rows:
            row[j] = 0
    return rows


def test_integer_rref_against_fraction_oracle():
    # the fraction-free elimination reproduces Gauss-Jordan over Fraction:
    # the same pivots, rows / d equal to the RREF, and the same rank and
    # kernel vectors
    rng = random.Random(2024)
    seen = set()
    for _ in range(1200):
        rows = _random_rational_rows(rng)
        ref_rows, ref_pivots = fraction_rref(rows)
        red, pivots, d = _integer_rref(rows)
        assert pivots == ref_pivots
        assert all(isinstance(x, int) for row in red for x in row)
        assert all(red[i][pc] == d for i, pc in enumerate(pivots))
        assert [[Fraction(x, d) for x in row] for row in red] == ref_rows
        ncols = len(rows[0]) if rows else 0
        m = ExactMatrix(rows)
        assert rank_over_Q(m) == len(ref_pivots)
        assert kernel_basis_over_Q(m) == fraction_kernel_basis(rows, ncols)
        if not rows:
            seen.add("no rows")
        if ncols == 1:
            seen.add("one column")
        if len(pivots) < min(len(rows), ncols):
            seen.add("rank deficient")
    assert seen == {"no rows", "one column", "rank deficient"}


def test_gcd_of_maximal_minors_square():
    # square case: the single minor itself, sign-normalized
    a = Polynomial.variable(U, "a")
    b = Polynomial.variable(U, "b")
    c = Polynomial.variable(U, "c")
    d = Polynomial.variable(U, "d")
    m = ExactMatrix([[a, b], [c, d]], universe=U)
    g = gcd_of_maximal_minors(m)
    det = a * d - b * c
    assert g == det or g == -det


def test_gcd_of_maximal_minors_common_factor():
    # the minors of [[a, b, c], [0, 0, d]] are 0, a*d and b*d: gcd d
    a, b, c, d = (Polynomial.variable(U, nm) for nm in "abcd")
    rows = [[a, b, c], [0, 0, d]]
    m = ExactMatrix(rows, universe=U)
    assert gcd_of_minors_by_gcd(m) == d
    for cols in combinations(range(3), 2):
        minor = bareiss_determinant([[row[j] for j in cols] for row in rows])
        assert divides(d, minor)


def test_gcd_of_maximal_minors_integer():
    # scalar entries have no packed sweep: the caller passed the wrong matrix
    m = ExactMatrix([[2, 4, 6], [0, 2, 4]], universe=U)
    with pytest.raises(SymbolicEntryError):
        gcd_of_minors_by_gcd(m)
    with pytest.raises(SymbolicEntryError):
        gcd_of_maximal_minors(m.submatrix([0, 1], [0, 1]))


def test_gcd_of_maximal_minors_rank_deficient():
    # two equal rows: every minor cancels to zero, and the sweep proves it
    a, b, c = (Polynomial.variable(U, nm) for nm in "abc")
    m = ExactMatrix([[a, b, c], [a, b, c]], universe=U)
    assert gcd_of_minors_by_gcd(m).is_zero()


def test_gcd_of_maximal_minors_zero():
    # a rank-deficient square matrix: the determinant is zero and so is the gcd
    a, b = (Polynomial.variable(U, nm) for nm in "ab")
    m = ExactMatrix([[a, b], [-a, -b]], universe=U)
    assert gcd_of_maximal_minors(m) == Polynomial.zero(U)


def test_gcd_of_maximal_minors_rejects_broken_tails():
    # invariant failures are ArithmeticError, never ValueError (invalid input)
    a, b, c, d = (Polynomial.variable(U, nm) for nm in "abcd")
    m = ExactMatrix([[a, b, 0], [0, c, d]], universe=U)
    point = [1, 1, 1, 1]
    # no tail: the final block is 2 x 3
    with pytest.raises(ArithmeticError):
        gcd_of_maximal_minors(m)
    # a rank-2 tail leaves one column for two rows
    tail = ExactMatrix([[a, 0], [0, b], [0, 0]], universe=U)
    with pytest.raises(ArithmeticError, match="not square"):
        gcd_of_maximal_minors(m, [tail], point)
    # a tail block that is singular at the point
    tail = ExactMatrix([[a], [0], [0]], universe=U)
    with pytest.raises(ArithmeticError, match="singular"):
        gcd_of_maximal_minors(m, [tail], [0, 1, 1, 1])


def test_gcd_of_maximal_minors_reaches_prs(monkeypatch):
    # block diagonal: the nonzero minors are (ad-bc) times ei-fh, ej-gh and
    # fj-gi, none a term multiple of ad-bc, so the loop needs the PRS gcd
    import msubres.polyring as polyring

    names = list("abcdefghij")
    U10 = VarUniverse(names, {"g": names})
    a, b, c, d, e, f, g, h, i, j = (Polynomial.variable(U10, nm) for nm in names)
    m = ExactMatrix(
        [[a, b, 0, 0, 0], [c, d, 0, 0, 0], [0, 0, e, f, g], [0, 0, h, i, j]],
        universe=U10,
    )
    calls = []
    prs = polyring._prs_gcd

    def counted_prs(p, q):
        calls.append((p, q))
        return prs(p, q)

    monkeypatch.setattr(polyring, "_prs_gcd", counted_prs)
    delta = a * d - b * c
    got = gcd_of_minors_by_gcd(m)
    assert got == delta or got == -delta
    assert calls


def test_gcd_of_maximal_minors_empty():
    g = gcd_of_maximal_minors(ExactMatrix([], universe=U))
    assert g.is_constant() and g.constant_value() == 1


def test_single_variable_determinant_against_permutation_oracle():
    # 0/+-variable matrices go through the packed sweep at every size; the
    # sign of each placement counts the used columns to its right
    names = [f"v{i}" for i in range(49)]
    U49 = VarUniverse(names, {"g": names})
    rng = random.Random(13)
    for size in (2, 3, 4, 5, 6, 7):
        picks = iter(rng.sample(names, size * size))
        # distinct variables and a full diagonal: the determinant is nonzero
        rows = [
            [Polynomial.variable(U49, next(picks)) * rng.choice((1, -1))
             if i == j or rng.random() < 0.7 else Polynomial.zero(U49)
             for j in range(size)]
            for i in range(size)
        ]
        oracle = permutation_determinant(rows)
        assert not oracle.is_zero()
        full = tuple(range(size))
        assert _packed_minors(ExactMatrix(rows, universe=U49))[full] == oracle, size


def test_packed_minors_match_bareiss_on_wide_deleted_matrix():
    # (4,1,1), nu=3: 9 x 12, 220 maximal minors, from one sweep
    from msubres.subres import build_generic_system, enumerate_S, koszul_matrices

    sys_ = build_generic_system(3, (4, 1, 1))
    S = enumerate_S(sys_, 3, limit=1, seed=1)[0]
    m = koszul_matrices(sys_, 3, S.monomials)[0]
    assert (m.nrows, m.ncols) == (9, 12)
    packed = {tuple(sorted(cols)): p for cols, p in _packed_minors(m).items()}
    zero = Polynomial.zero(sys_.universe)
    nonzero = 0
    for cols in combinations(range(m.ncols), m.nrows):
        expect = bareiss_determinant(m.submatrix(range(m.nrows), cols).entries)
        assert packed.get(cols, zero) == expect, cols
        nonzero += not expect.is_zero()
    assert nonzero > 0


def test_packed_vs_cofactor_on_macaulay_shape():
    # r x (r+1) matrix whose entries are single variables or zero exercises
    # the packed all-minors path against plain determinants
    from msubres.subres import build_generic_system, enumerate_S, koszul_matrices, regular_point

    sys_ = build_generic_system(2, (3, 2))
    S = enumerate_S(sys_, 3, limit=1, seed=1)[0]
    m, *tails = koszul_matrices(sys_, 3, S.monomials)
    assert m.ncols == m.nrows + 1 or m.ncols == m.nrows
    g = gcd_of_maximal_minors(m, tails, regular_point(sys_))
    rows = list(range(m.nrows))
    minors = []
    for omit in range(m.ncols):
        cols = [j for j in range(m.ncols) if j != omit]
        if len(cols) == m.nrows:
            minors.append(bareiss_determinant(m.submatrix(rows, cols).entries))
    for minor in minors:
        if not minor.is_zero():
            assert divides(g, minor)


def test_structurally_zero_single_var_determinant():
    # the packed path never reaches the full column mask here
    U6 = VarUniverse(["a", "b", "c", "d", "e", "f"], {"g": ["a", "b", "c", "d", "e", "f"]})
    v = {nm: Polynomial.variable(U6, nm) for nm in U6.names}
    z = Polynomial.zero(U6)
    rows = [
        [v["a"], z, z, z, z],
        [v["b"], z, z, z, z],
        [z, v["c"], v["d"], v["e"], v["f"]],
        [z, v["c"], v["d"], v["e"], v["f"]],
        [z, v["a"], v["b"], v["c"], v["d"]],
    ]
    m = ExactMatrix(rows, universe=U6)
    assert _packed_minors(m) == {}
    assert bareiss_determinant(rows) == Polynomial.zero(U6)


def test_submatrix_and_labels():
    m = ExactMatrix([[1, 2], [3, 4]])
    s = m.submatrix([1], [0])
    assert s.entries == [[3]]
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])
