"""The sparse Gauss-Jordan routine of ``solvlie.linalg`` against the dense
row operations it replaced (rref_oracle.py).

An RREF is unique, so ``rref``, ``rank``, ``kernel``, ``invert`` (each
of dense rows and of the same rows given sparse), ``Subspace`` (rows,
pivots, ``contains_vector``, ``==``, ``hash``), ``reduce_row`` and
``extend_echelon`` must agree with the oracle on seeded matrices: empty
and all-zero ones, zero and duplicate rows, full and deficient rank,
complex entries, Fraction and int entries. Every routine returns sparse
rows of the nonzero entries, which must equal the oracle's dense rows with
their zeros dropped, and store no zero. The dense ``Subspace.rows`` write
every zero entry as the shared ``ZERO``, where the oracle kept the zero it
found; that changes no comparison and no hash.
"""

import random
from fractions import Fraction

import rref_oracle
from solvlie import linalg
from solvlie.gaussian import GaussianRational as G, ZERO


def _entry(rng, kind):
    if kind == "complex":
        return G(rng.randint(-4, 4), rng.randint(-4, 4))
    if kind == "real":
        return G(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def _matrix(rng, rows, cols, kind, rank=None, zero_rows=0, duplicates=0):
    """rows x cols with the given entry kind; rank (when given) bounds it by
    building every row from ``rank`` random ones. Zero and duplicate rows
    are mixed in at random places."""
    if rank is None:
        out = [[_entry(rng, kind) for _ in range(cols)] for _ in range(rows)]
    else:
        base = [[_entry(rng, kind) for _ in range(cols)] for _ in range(rank)]
        out = []
        for _ in range(rows):
            coef = [_entry(rng, kind) for _ in range(rank)]
            out.append([sum((c * b[k] for c, b in zip(coef, base)), 0)
                        for k in range(cols)])
    zero = ZERO if kind != "fraction" else Fraction(0)
    for _ in range(zero_rows):
        out.insert(rng.randint(0, len(out)), [zero] * cols)
    for _ in range(duplicates):
        if out:
            out.insert(rng.randint(0, len(out)), list(rng.choice(out)))
    return out


def _cases():
    rng = random.Random(2901)
    cases = [([], 0), ([[]], 0), ([[ZERO] * 4] * 3, 4), ([[0, 0], [0, 0]], 2),
             ([[Fraction(0)] * 3], 3)]
    for kind in ("complex", "real", "fraction"):
        for _ in range(40):
            rows, cols = rng.randint(1, 6), rng.randint(1, 7)
            rank = rng.choice([None, 0, 1, min(rows, cols) // 2 + 1])
            cases.append((_matrix(rng, rows, cols, kind, rank,
                                  rng.randint(0, 2), rng.randint(0, 2)), cols))
    # int entries: scaled unit rows, zero and duplicate rows, so that the
    # int / int divisions of either routine are exact
    for _ in range(20):
        cols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 6)):
            row = [0] * cols
            if rng.random() < 0.8:
                row[rng.randrange(cols)] = rng.choice([-3, -1, 1, 2, 5])
            rows.append(row)
        rows += [list(r) for r in rng.sample(rows, rng.randint(0, len(rows)))]
        cases.append((rows, cols))
    # int zeros next to Gaussian rationals
    for _ in range(20):
        cols = rng.randint(2, 6)
        cases.append(([[rng.choice([0, 0, G(rng.randint(-3, 3), 1)])
                        for _ in range(cols)] for _ in range(rng.randint(1, 5))],
                      cols))
    return cases


CASES = _cases()


def _zeros_are_shared(rows):
    return all(x is ZERO for row in rows for x in row if not x)


def _sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def _sparse_rows(rows):
    """The oracle's dense rows with their zeros dropped."""
    return [_sparse(row) for row in rows]


def _stores_no_zero(rows):
    return all(isinstance(row, dict) and all(row.values()) for row in rows)


def test_rref_rank_kernel_agree_with_the_dense_oracle():
    for k, (mat, cols) in enumerate(CASES):
        red, pivots = rref_oracle.rref(mat)
        got = linalg.rref(mat)
        assert got == (_sparse_rows(red), pivots), k
        assert _stores_no_zero(got[0]), k
        assert linalg.rank(mat) == rref_oracle.rank(mat), k
        if mat and mat[0]:
            sparse = _sparse_rows(mat)
            assert linalg.rref(sparse) == got, k
            want = _sparse_rows(rref_oracle.kernel(mat, cols))
            for given in (mat, sparse):
                null = linalg.kernel(given, cols)
                assert null == want and _stores_no_zero(null), k
            assert linalg.rank(sparse) == rref_oracle.rank(mat), k


def test_subspace_agrees_with_the_dense_oracle():
    rng = random.Random(2905)
    for k, (mat, cols) in enumerate(CASES):
        got, want = linalg.Subspace(mat, cols), rref_oracle.Subspace(mat, cols)
        assert (got.rows, got.pivots, got.dim) == \
            (want.rows, want.pivots, want.dim), k
        assert got == want and hash(got) == hash(want), k
        assert _zeros_are_shared(got.rows), k
        assert linalg.Subspace([_sparse(row) for row in mat], cols) == got, k
        probes = mat + [[G(rng.randint(-2, 2)) for _ in range(cols)]
                        for _ in range(3)]
        for vec in probes:
            assert got.contains_vector(vec) == want.contains_vector(vec), k
            assert got.contains_vector(_sparse(vec)) == want.contains_vector(vec), k


def test_rows_are_read_once_in_any_form_and_left_unchanged():
    # dense rows, sparse rows and a one-shot iterator of either give the
    # same subspace; rref reads the rows once and copies each
    for k, (mat, cols) in enumerate(CASES):
        sparse = _sparse_rows(mat)
        kept = [dict(row) for row in sparse]
        want = linalg.Subspace(mat, cols)
        for given in (sparse, iter(mat), iter(sparse)):
            got = linalg.Subspace(given, cols)
            assert (got.sparse_rows, got.pivots, got.rows) == \
                (want.sparse_rows, want.pivots, want.rows), k
        assert linalg.rref(iter(sparse)) == linalg.rref(mat), k
        assert sparse == kept, k


def test_subspace_equality_and_hash_follow_the_span():
    rng = random.Random(2902)
    for _ in range(40):
        cols = rng.randint(1, 6)
        mat = _matrix(rng, rng.randint(1, 5), cols, "complex",
                      rng.choice([None, 1, 2]))
        mixed = [list(r) for r in mat]
        rng.shuffle(mixed)
        mixed.append([sum(x, ZERO) for x in zip(*mat)])
        a, b = linalg.Subspace(mat, cols), linalg.Subspace(mixed, cols)
        assert a == b and hash(a) == hash(b)
        assert a == rref_oracle.Subspace(mixed, cols)


def test_invert_agrees_with_the_dense_oracle():
    for k, (mat, cols) in enumerate(CASES):
        if not mat or len(mat) > cols:
            continue
        square = [row[:len(mat)] for row in mat]
        _check_invert(square, k)


def test_invert_of_random_square_matrices():
    rng = random.Random(2903)
    for k in range(60):
        n = rng.randint(1, 5)
        mat = _matrix(rng, n, n, rng.choice(["complex", "real", "fraction"]),
                      rng.choice([None, None, n - 1]))
        _check_invert(mat, k)


def _check_invert(mat, k):
    """``invert`` of mat, dense and sparse, is None where the oracle's is,
    else the oracle's rows with their zeros dropped, keys ascending."""
    want = rref_oracle.invert(mat)
    for given in (mat, _sparse_rows(mat)):
        got = linalg.invert(given)
        if want is None:
            assert got is None, k
            continue
        assert got == _sparse_rows(want) and _stores_no_zero(got), k
        assert all(list(row) == sorted(row) for row in got), k


def test_reduce_row_and_extend_echelon_agree_with_the_dense_oracle():
    rng = random.Random(2904)
    for _ in range(60):
        cols = rng.randint(1, 6)
        kind = rng.choice(["complex", "real", "fraction"])
        vecs = _matrix(rng, rng.randint(1, 7), cols, kind,
                       rng.choice([None, 1, 2]), rng.randint(0, 1),
                       rng.randint(0, 2))
        # the library holds the echelon and returns the remainders as sparse
        # rows of the nonzero entries; the oracle's are dense
        got_rows, got_piv, want_rows, want_piv = [], [], [], []
        for vec in vecs:
            for given in (vec, _sparse(vec)):
                assert linalg.reduce_row(got_rows, got_piv, given) == \
                    _sparse(rref_oracle.reduce_row(want_rows, want_piv, vec))
            got = linalg.extend_echelon(got_rows, got_piv, vec)
            want = rref_oracle.extend_echelon(want_rows, want_piv, vec)
            assert got == _sparse(want)
            assert got_rows == [_sparse(r) for r in want_rows]
            assert got_piv == want_piv


def test_shared_zero_compares_and_hashes_like_every_zero():
    for zero in (0, Fraction(0), G(0), G(Fraction(0), Fraction(0))):
        assert zero == ZERO and ZERO == zero
        assert hash(zero) == hash(ZERO)
        assert [zero, G(1)] == [ZERO, G(1)]
        assert hash((zero, G(1))) == hash((ZERO, G(1)))


def _sparse_system(rng, ncols):
    """Up to 10 random sparse Q(i) rows in ncols columns: zero rows,
    repeated rows and rows on one to three columns. Sometimes one column
    is left out of every row, so that the echelon never fills."""
    usable = list(range(ncols))
    if rng.random() < 0.3:
        usable.remove(rng.randrange(ncols))
    rows = []
    for _ in range(rng.randint(0, 10)):
        pick = rng.random()
        if pick < 0.15 or not usable:
            rows.append({})
        elif pick < 0.3 and rows:
            rows.append(dict(rng.choice(rows)))
        else:
            cols = rng.sample(usable, rng.randint(1, min(3, len(usable))))
            rows.append({c: G(rng.randint(-3, 3) or 1, rng.randint(-2, 2))
                         for c in cols})
    return rows


def test_kernel_stops_at_a_full_echelon_and_agrees_with_full_elimination():
    # the early stop reads the rows up to the first full echelon only, and
    # returns what eliminating every row returns: full rank reached early
    # (rows left unread), late (at the last row) or never
    rng = random.Random(4301)
    outcomes = {"early": 0, "late": 0, "never": 0}
    for k in range(400):
        ncols = rng.randint(1, 6)
        rows = _sparse_system(rng, ncols)
        full = linalg.rref_kernel(*linalg.rref(rows), ncols)
        dense = [[row.get(c, ZERO) for c in range(ncols)] for row in rows]
        assert full == _sparse_rows(rref_oracle.kernel(dense, ncols)), k
        read = []

        def counted():
            for row in rows:
                read.append(row)
                yield row

        assert linalg.kernel(counted(), ncols) == full, k
        first_full = next((i + 1 for i in range(len(rows))
                           if linalg.rank(rows[:i + 1]) == ncols), None)
        if first_full is None:
            assert len(read) == len(rows), k
            outcomes["never"] += 1
        else:
            assert full == [] and len(read) == first_full, k
            outcomes["early" if first_full < len(rows) else "late"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_kernel_of_zero_rows_and_of_no_columns():
    for ncols in range(4):
        want = [{f: G(1)} for f in range(ncols)]
        for rows in ([], [{}], [{}, {}], [[ZERO] * ncols], iter([{}] * 3)):
            assert linalg.kernel(rows, ncols) == want
    assert linalg.kernel([{}, [], {}], 0) == []
