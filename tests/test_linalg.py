import random
from fractions import Fraction

from adapted_oracle import solve
from pfaffian_oracle import det
from solvlie.gaussian import GaussianRational
from rref_oracle import identity
from solvlie.linalg import (FLOAT_TOL, Subspace, extend_echelon, invert,
                            is_zero, kernel, rank, reduce_row, rref,
                            zero_test)


def rand_mat(rng, rows, cols, complex_entries=True):
    def entry():
        re = Fraction(rng.randint(-5, 5))
        im = Fraction(rng.randint(-5, 5)) if complex_entries else Fraction(0)
        return GaussianRational(re, im)
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def test_rref_idempotent_and_rank():
    rng = random.Random(3)
    for _ in range(30):
        m = rand_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
        red, piv = rref(m)
        red2, piv2 = rref(red)
        assert red == red2 and piv == piv2
        assert rank(m) == len(piv)


def test_kernel_annihilates():
    rng = random.Random(4)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_mat(rng, rows, cols)
        for vec in kernel(m, cols):
            for r in m:
                s = sum((r[c] * x for c, x in vec.items()), GaussianRational(0))
                assert s.is_zero()
        assert rank(m) + len(kernel(m, cols)) == cols


def test_solve_consistency():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rand_mat(rng, n, n)
        x = [GaussianRational(rng.randint(-4, 4)) for _ in range(n)]
        rhs = [sum((a * b for a, b in zip(r, x)), GaussianRational(0)) for r in m]
        got = solve(m, rhs)
        check = [sum((a * b for a, b in zip(r, got)), GaussianRational(0))
                 for r in m]
        assert check == rhs


def test_invert_is_a_two_sided_inverse_or_none():
    rng = random.Random(10)
    zero = GaussianRational(0)
    inverted = 0
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rand_mat(rng, n, n)
        inv = invert(m)
        if rank(m) < n:
            assert inv is None
            continue
        inverted += 1
        inv = [[row.get(c, zero) for c in range(n)] for row in inv]
        for a, b in ((m, inv), (inv, m)):
            prod = [[sum((x * b[k][j] for k, x in enumerate(row)), zero)
                     for j in range(n)] for row in a]
            assert prod == identity(n)
    assert inverted >= 20
    one = GaussianRational(1)
    assert invert([[one, one], [one, one]]) is None


def test_solve_inconsistent_returns_none():
    one = GaussianRational(1)
    zero = GaussianRational(0)
    assert solve([[one], [one]], [one, zero]) is None


def test_subspace_equality_canonical():
    one = GaussianRational(1)
    two = GaussianRational(2)
    zero = GaussianRational(0)
    s1 = Subspace([[one, two, zero]], 3)
    s2 = Subspace([[two, GaussianRational(4), zero]], 3)
    assert s1 == s2
    assert s1.contains_vector(s2.rows[0]) and s2.contains_vector(s1.rows[0])


def test_intersection_and_sum_dims():
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(2, 6)
        a = Subspace(rand_mat(rng, rng.randint(1, n), n), n)
        b = Subspace(rand_mat(rng, rng.randint(1, n), n), n)
        meet = a.intersect(b)
        join = Subspace(a.rows + b.rows, n)
        assert meet.dim + join.dim == a.dim + b.dim
        assert all(a.contains_vector(r) and b.contains_vector(r)
                   for r in meet.rows)
        assert all(join.contains_vector(r) for r in a.rows + b.rows)


def test_full_space_contains_everything():
    rng = random.Random(7)
    f = Subspace(identity(4), 4)
    assert f.dim == 4
    assert f.contains_vector([GaussianRational(rng.randint(-9, 9))
                              for _ in range(4)])


def test_contains_vector_agrees_with_rank_test():
    # reduction against the RREF rows decides membership as a rank of rows
    # plus vector did, on the zero subspace, the full space and random ones;
    # extending an echelon of the same span by the vector appends a row
    # exactly when the rank grows
    rng = random.Random(9)
    zero = GaussianRational(0)
    checked = inside = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        subs = [Subspace([], n), Subspace(identity(n), n),
                Subspace(rand_mat(rng, k, n), n),
                Subspace(rand_mat(rng, k, n, complex_entries=False), n)]
        for sub in subs:
            combo = [GaussianRational(rng.randint(-3, 3)) for _ in sub.rows]
            in_span = [sum((c * row[m] for c, row in zip(combo, sub.rows)), zero)
                       for m in range(n)]
            nudged = list(in_span)
            j = rng.randrange(n)
            nudged[j] = nudged[j] + GaussianRational(1)
            vecs = [in_span, [zero] * n, rand_mat(rng, 1, n)[0], nudged]
            for vec in vecs:
                want = rank(sub.rows + [vec]) == sub.dim
                assert sub.contains_vector(vec) == want, (sub.rows, vec)
                rows, pivots = list(sub.sparse_rows), list(sub.pivots)
                added = bool(extend_echelon(rows, pivots, vec))
                assert added == (not want) == (len(rows) == sub.dim + 1)
                checked += 1
                inside += want
    assert checked == 640 and 0 < inside < checked


def test_det_matches_rank_and_products():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_mat(rng, n, n)
        d = det(m)
        assert d.is_zero() == (rank(m) < n)


def test_is_zero_exact_and_float():
    assert is_zero(GaussianRational(0))
    assert not is_zero(GaussianRational(0, Fraction(1, 10 ** 12)))
    assert is_zero(0)
    assert is_zero(complex(FLOAT_TOL / 2, 0), FLOAT_TOL)
    assert not is_zero(complex(0, 2 * FLOAT_TOL), FLOAT_TOL)


def test_zero_test_is_bound_once_per_tolerance():
    assert zero_test(None) is zero_test(None)
    assert zero_test(FLOAT_TOL) is zero_test(FLOAT_TOL)
    exact = zero_test(None)
    assert exact(GaussianRational(0)) and exact(Fraction(0)) and exact(0)
    assert not exact(GaussianRational(0, Fraction(1, 10 ** 12)))
    assert not exact(complex(FLOAT_TOL / 2, 0))
    near = zero_test(FLOAT_TOL)
    assert near(complex(FLOAT_TOL / 2, 0))
    assert not near(complex(0, 2 * FLOAT_TOL))



def test_extend_echelon_builds_a_triangular_basis_of_the_span():
    # rows appended in any order: each is 1 at its pivot and 0 at the
    # pivots of the rows before it, the pivot set is the RREF's, the span
    # is the span of the input, and membership by reduce_row agrees with
    # the RREF subspace on random vectors
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rand_mat(rng, rng.randint(0, n + 2), n, complex_entries=rng.random() < 0.5)
        if m and rng.random() < 0.3:
            m.append([x * GaussianRational(2) for x in m[0]])
        rows, pivots = [], []
        for vec in m:
            extend_echelon(rows, pivots, vec)
        # sparse rows: only the nonzero entries are held
        for k, (row, c) in enumerate(zip(rows, pivots)):
            assert row[c] == GaussianRational(1)
            assert all(p not in row for p in pivots[:k])
            assert min(row) == c and all(row.values())
        sub = Subspace(m, n)
        assert sorted(pivots) == sub.pivots
        assert Subspace(rows, n) == sub
        for vec in rand_mat(rng, 4, n) + m:
            assert (not reduce_row(rows, pivots, vec)) == sub.contains_vector(vec)

