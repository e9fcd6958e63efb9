"""Exact linear algebra over the rationals."""

import random
from fractions import Fraction

import pytest

from homnambu import linalg
from homnambu.cohomology import (_block_labels, _grading, _weight_groups,
                                 coboundary_matrix, cohomology_dims)
from homnambu.fixtures import (conjugate_gl11, conjugate_pair, gl11, gl11t,
                               glmn, random_even_invertible)
from homnambu.linalg import (ONE, InputError, Matrix, Subspace, _gcd, content,
                             _make_primitive, frac, image, invert,
                             is_zero_vec, kernel, pack, rank, rref,
                             slot_width, solve, subspace_intersection,
                             unit_vec, unpack, vec, zero_vec)
from homnambu.reps import trace_functional
from homnambu.series import central_series, derived_series, ternary_center
from homnambu.ternary import induce_ternary

from oracles import read_blocks, select


def rand_matrix(rng, r, c, span=4):
    return Matrix.build([[Fraction(rng.randint(-span, span),
                                   rng.randint(1, 3)) for _ in range(c)]
                         for _ in range(r)])


def test_frac_accepts_exact_types_only():
    assert frac(-5) == Fraction(-5)
    assert frac(Fraction(2, 3)) == Fraction(2, 3)
    with pytest.raises(InputError):
        frac(0.5)
    with pytest.raises(InputError):
        frac("2/3")


def test_matrix_build_rejects_ragged_rows():
    with pytest.raises(InputError):
        Matrix.build([[1, 2], [3]])


def test_mul_apply_agree():
    rng = random.Random(1)
    for _ in range(25):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        b = rand_matrix(rng, a.cols, rng.randint(1, 5))
        ab = a.mul(b)
        for j in range(b.cols):
            assert ab.col(j) == a.apply(b.col(j))


def test_rref_is_idempotent_and_preserves_row_space():
    rng = random.Random(2)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r = rref(m)
        assert rref(r) == r
        assert Subspace.from_vectors(m.cols, [m.row(i) for i in range(m.rows)]) == \
            Subspace.from_vectors(m.cols, [r.row(i) for i in range(r.rows)])


def test_rank_nullity():
    rng = random.Random(3)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) + kernel(m).dim == m.cols


def test_kernel_vectors_are_killed():
    rng = random.Random(4)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        for v in kernel(m).vectors():
            assert is_zero_vec(m.apply(v))


def test_solve_roundtrip_and_inconsistency():
    rng = random.Random(5)
    hits = misses = 0
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        b = vec([rng.randint(-3, 3) for _ in range(m.rows)])
        x = solve(m, b)
        if x is None:
            misses += 1
            # b must then lie outside the column space
            aug = Matrix.build([list(m.row(i)) + [b[i]] for i in range(m.rows)])
            assert rank(aug) == rank(m) + 1
        else:
            hits += 1
            assert m.apply(x) == tuple(b)
    assert hits and misses


def test_invert_identity():
    rng = random.Random(6)
    built = 0
    while built < 10:
        m = rand_matrix(rng, 4, 4)
        inv = invert(m)
        if inv is None:
            continue
        built += 1
        assert m.mul(inv) == Matrix.identity(4)
        assert inv.mul(m) == Matrix.identity(4)
    assert invert(Matrix.zero(3, 3)) is None


def test_subspace_sum_and_intersection_dimension_formula():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = Subspace.from_vectors(n, [tuple(frac(rng.randint(-2, 2)) for _ in range(n))
                                      for _ in range(rng.randint(0, 3))])
        b = Subspace.from_vectors(n, [tuple(frac(rng.randint(-2, 2)) for _ in range(n))
                                      for _ in range(rng.randint(0, 3))])
        s = Subspace.from_vectors(n, a.vectors() + b.vectors())
        i = subspace_intersection(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        for v in i.vectors():
            assert a.contains(v) and b.contains(v)
        assert s.contains_subspace(a) and s.contains_subspace(b)


def test_submatrix_picks_entries():
    m = Matrix.build([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    s = select(m, (0, 2), (1,))
    assert s == Matrix.build([[2], [8]])


def test_unit_and_zero_vec():
    assert unit_vec(3, 1) == (0, 1, 0)
    assert zero_vec(2) == (Fraction(0), Fraction(0))


def test_sparse_submatrix_renumbers_columns():
    m = Matrix.build([[1, 0, 3], [0, 5, 6], [7, 8, 0]])
    s = select(m, (2, 0), (2, 0))
    assert s == Matrix(2, 2, (((1, Fraction(7)),),
                              ((0, Fraction(3)), (1, Fraction(1)))))


# --- dense Gauss-Jordan, the oracle of the sparse eliminator -----------------
# These are the package's former dense routines: every elimination step scans
# every row and column.  The package's own routines must agree with them
# exactly.  They read a Matrix through row(i) and write one through
# dense_matrix.


def dense_matrix(nc, rows):
    """The Matrix with these dense rows, each of length nc."""
    return Matrix.from_rows([dict(enumerate(r)) for r in rows], nc)


def dense_rows(m):
    return [m.row(i) for i in range(m.rows)]


def dense_rref(m):
    rows = [list(r) for r in dense_rows(m)]
    nr, nc = m.rows, m.cols
    piv = 0
    for col in range(nc):
        if piv == nr:
            break
        pivot = next((r for r in range(piv, nr) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[piv], rows[pivot] = rows[pivot], rows[piv]
        inv = rows[piv][col]
        if inv != 1:
            rows[piv] = [x / inv for x in rows[piv]]
        for r in range(nr):
            if r != piv and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b if b else a
                           for a, b in zip(rows[r], rows[piv])]
        piv += 1
    return dense_matrix(nc, rows)


def lead(row):
    return next((j for j, x in enumerate(row) if x), None)


def oracle_span(n, vectors):
    vectors = tuple(vectors)
    keep = tuple(r for r in dense_rows(dense_rref(dense_matrix(n, vectors)))
                 if lead(r) is not None)
    return Subspace(n, dense_matrix(n, keep))


def oracle_rank(m):
    return sum(1 for r in dense_rows(dense_rref(m)) if lead(r) is not None)


def oracle_kernel(m, r=None):
    r = dense_rref(m) if r is None else r
    pivots = {lead(row): row for row in dense_rows(r) if lead(row) is not None}
    basis = []
    for f in range(m.cols):
        if f not in pivots:
            v = [Fraction(0)] * m.cols
            v[f] = Fraction(1)
            for p, row in pivots.items():
                v[p] = -row[f]
            basis.append(tuple(v))
    return oracle_span(m.cols, basis)


def oracle_image(m):
    return oracle_span(m.rows, [m.col(j) for j in range(m.cols)])


def oracle_solve(m, b):
    n = m.cols
    r = dense_rref(dense_matrix(n + 1, [
        tuple(row) + (bi,) for row, bi in zip(dense_rows(m), b)]))
    x = [Fraction(0)] * n
    for row in dense_rows(r):
        j = lead(row)
        if j == n:
            return None
        if j is not None:
            x[j] = row[n]
    return tuple(x)


def oracle_invert(m):
    n = m.rows
    r = dense_rows(dense_rref(dense_matrix(2 * n, [
        m.row(i) + unit_vec(n, i) for i in range(n)])))
    if any(r[i][i] != 1 for i in range(n)):
        return None
    return dense_matrix(n, [r[i][n:] for i in range(n)])


def rand_entry(rng, density):
    if rng.random() >= density:
        return Fraction(0)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def rand_case(rng, r, c, density=0.3, rank_at_most=None):
    if rank_at_most is None:
        rows = [[rand_entry(rng, density) for _ in range(c)] for _ in range(r)]
        return dense_matrix(c, rows)
    a = rand_case(rng, r, rank_at_most, 0.6)
    b = rand_case(rng, rank_at_most, c, 0.6)
    return a.mul(b)


def differential_cases():
    rng = random.Random(90)
    yield "empty rows", Matrix(0, 4, ())
    yield "empty cols", Matrix(3, 0, ((),) * 3)
    yield "empty", Matrix(0, 0, ())
    yield "zero", Matrix.zero(4, 5)
    for k in range(6):
        yield f"tall {k}", rand_case(rng, 12, 4)
        yield f"wide {k}", rand_case(rng, 4, 12)
        yield f"square {k}", rand_case(rng, 6, 6)
        yield f"deficient {k}", rand_case(rng, 8, 7, rank_at_most=3)
        yield f"dense {k}", rand_case(rng, 6, 7, density=1.0)
        yield f"dense square {k}", rand_case(rng, 5, 5, density=1.0)
        yield f"singular {k}", rand_case(rng, 5, 5, rank_at_most=4)


def test_sparse_eliminator_matches_dense_oracle():
    rng = random.Random(91)
    outcomes = set()
    for name, m in differential_cases():
        r = rref(m)
        assert r == dense_rref(m), name
        # pivot rows first, then the empty rows; no zero is ever stored
        ranked = oracle_rank(m)
        assert all(r.entries[:ranked]) and not any(r.entries[ranked:]), name
        assert all(x for row in r.entries for _, x in row), name
        assert rank(m) == ranked, name
        assert kernel(m) == oracle_kernel(m), name
        assert image(m) == oracle_image(m), name
        rows = dense_rows(m)
        assert Subspace.from_vectors(m.cols, rows) == oracle_span(m.cols, rows)
        x0 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.cols))
        for b in (m.apply(x0),
                  tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.rows))):
            got = solve(m, b)
            assert got == oracle_solve(m, b), name
            outcomes.add(got is None)
        if m.rows == m.cols:
            want = oracle_invert(m)
            assert invert(m) == want, name
            outcomes.add(("invert", want is None))
    # consistent and inconsistent systems, regular and singular squares
    assert outcomes == {True, False, ("invert", True), ("invert", False)}


def test_coboundary_rank_and_kernel_match_dense_oracle():
    algebras = [gl11(), gl11t(), conjugate_gl11(random.Random(5))]
    for lie, rep in algebras:
        tau = trace_functional(rep)
        t = induce_ternary(lie, tau, lie.alpha, lie.alpha)
        mats = [coboundary_matrix(lie, "binary-scalar", d) for d in (1, 2, 3)]
        mats += [coboundary_matrix(lie, "binary-adjoint", d) for d in (1, 2)]
        for cx in ("ternary-scalar", "ternary-adjoint"):
            mats.append(coboundary_matrix(t, cx, 1))
            mats.append(coboundary_matrix(t, cx, 2))
        for m in mats:
            r = dense_rref(m)
            assert rank(m) == sum(1 for row in dense_rows(r) if lead(row) is not None)
            assert kernel(m) == oracle_kernel(m, r)


def test_matrix_matches_dense_list_arithmetic():
    """Every read and operation of the one matrix type against plain lists,
    on the shapes of the eliminator's differential cases."""
    rng = random.Random(92)
    zero = Fraction(0)
    cases = list(differential_cases())
    for name, m in cases:
        rows = [[zero] * m.cols for _ in range(m.rows)]
        for i, row in enumerate(m.entries):
            for c, x in row:
                rows[i][c] = x
        cols = [[rows[i][j] for i in range(m.rows)] for j in range(m.cols)]
        assert [list(m.row(i)) for i in range(m.rows)] == rows, name
        assert [list(m.col(j)) for j in range(m.cols)] == cols, name
        # explicit zeros drop out: build and from_columns equal from_rows
        # of the nonzeros, so == is matrix equality
        nonzeros = [{c: x for c, x in enumerate(r) if x} for r in rows]
        assert Matrix.from_rows(nonzeros, m.cols) == m, name
        if m.rows:
            assert Matrix.build(rows) == m, name
        assert Matrix.from_columns(cols, m.rows) == m, name
        assert m.transpose() == Matrix.from_columns(rows, m.cols), name
        assert m.is_zero() == all(x == 0 for r in rows for x in r), name
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m.cols)]
        assert list(m.apply(tuple(v))) == [
            sum((a * b for a, b in zip(r, v)), zero) for r in rows], name
        for c in (0, -1, Fraction(2, 3)):
            assert m.scale(c) == Matrix.from_rows(
                [dict(enumerate(c * x for x in r)) for r in rows], m.cols), name
        _, other = cases[rng.randrange(len(cases))]
        if (other.rows, other.cols) == (m.rows, m.cols):
            o = [other.row(i) for i in range(other.rows)]
            assert m.add(other) == Matrix.from_rows(
                [dict(enumerate(a + b for a, b in zip(r, s)))
                 for r, s in zip(rows, o)], m.cols), name
        assert m.add(m.scale(-1)).is_zero(), name
        right = rand_case(rng, m.cols, rng.randint(0, 4), density=0.5)
        rr = [right.row(i) for i in range(right.rows)]
        assert m.mul(right) == Matrix.from_rows(
            [dict(enumerate(sum((r[k] * rr[k][j] for k in range(m.cols)), zero)
                            for j in range(right.cols))) for r in rows],
            right.cols), name
        ri = [i for i in range(m.rows) if rng.random() < 0.6]
        ci = rng.sample(range(m.cols), rng.randint(0, m.cols))
        assert select(m, ri, ci) == Matrix.from_rows(
            [dict(enumerate(rows[i][j] for j in ci)) for i in ri], len(ci)), name
    for shape in ((2, 3), (3, 2), (0, 0)):
        a, b = Matrix.zero(*shape), Matrix.zero(*shape[::-1])
        with pytest.raises(InputError):
            a.mul(Matrix.zero(shape[1] + 1, 2))
        if shape != (0, 0):
            with pytest.raises(InputError):
                a.add(b)
    with pytest.raises(InputError):
        Matrix.from_columns([[1, 2], [3]], 2)
    assert Matrix.identity(3) == Matrix.build([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def as_fractions(m):
    return Matrix(m.rows, m.cols, tuple(tuple((j, Fraction(x)) for j, x in row)
                                        for row in m.entries))


def test_integer_rows_reduce_to_fractions():
    """A raw Matrix of ints reduces exactly as its Fraction copy, and every
    value rref, kernel and solve return is a Fraction: each entry is
    divided by its row's lead as a Fraction, never as an int."""
    rng = random.Random(93)
    cases = [Matrix(1, 2, (((0, 2), (1, 1)),)),
             Matrix(2, 3, (((0, 2), (1, 1)), ((0, 2), (1, 2), (2, 5)))),
             Matrix(2, 2, (((0, 1), (1, 3)), ((1, 4),)))]
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        cases.append(Matrix(r, c, tuple(
            tuple((j, x) for j in range(c) if (x := rng.randint(-3, 3)))
            for _ in range(r))))
    for m in cases:
        fm = as_fractions(m)
        b = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.rows))
        got = (rref(m), kernel(m).basis, solve(m, b), solve(m, m.apply((1,) * m.cols)))
        assert got == (rref(fm), kernel(fm).basis, solve(fm, b),
                       solve(fm, fm.apply((1,) * m.cols)))
        values = [x for mat in got[:2] for row in mat.entries for _, x in row]
        values += [x for sol in got[2:] if sol is not None for x in sol]
        assert all(type(x) is Fraction for x in values)
    assert rref(cases[0]) == Matrix.build([[1, Fraction(1, 2)]])
    assert kernel(cases[0]) == Subspace.from_vectors(2, [(Fraction(-1, 2), 1)])


def integer_path_cases():
    """Matrices aimed at the integer path of rref: ints and Fractions in
    one row, Fractions of denominator 1, large coprime denominators in
    dense rows, negative leads, rows equal up to scale, rows that cancel
    partway through, and nonzero rows left after full column rank."""
    F = Fraction
    rng = random.Random(94)
    yield "ints and Fractions in one row", Matrix(3, 4, (
        ((0, 2), (1, F(1, 3)), (3, -5)),
        ((0, F(4, 7)), (2, 3)),
        ((1, 6), (2, F(-1, 2)), (3, 1))))
    yield "denominator 1", Matrix(3, 3, (
        ((0, F(4)), (1, F(-6)), (2, F(2))),
        ((0, F(3)), (2, F(9))),
        ((1, F(-5)), (2, 7))))
    dens = (1099056, 10 ** 9, 10 ** 9 + 7, 999999937)
    for k in range(4):
        yield f"large denominators {k}", dense_matrix(6, [
            [F(rng.randint(1, 10 ** 6) * rng.choice((-1, 1)), rng.choice(dens))
             for _ in range(6)] for _ in range(4 + k)])
    yield "negative leads", Matrix(3, 3, (
        ((0, -2), (1, 4), (2, -6)),
        ((0, -3), (2, 1)),
        ((1, -7), (2, F(-2, 5)))))
    r = ((0, 3), (2, -6), (3, F(9, 4)))
    yield "rows equal up to scale", Matrix(5, 4, (
        r, tuple((j, 2 * x) for j, x in r), ((1, -1), (3, 5)),
        tuple((j, F(-1, 3) * x) for j, x in r), ((1, 4), (3, -20))))
    yield "rows cancel partway through", Matrix(5, 5, (
        ((0, 1), (1, 2), (3, 3)),
        ((1, 1), (2, 1), (3, 1), (4, 2)),
        ((0, 2), (1, 5), (2, 1), (3, 7), (4, 2)),  # 2 r0 + r1: cancels
        ((0, -1), (1, -1), (2, 1), (4, 6)),        # r1 - r0 on cols 0-3
        ((2, F(1, 2)), (4, 1))))
    yield "rows after full column rank", Matrix(6, 3, (
        ((0, 2), (1, -4)), ((1, 3), (2, 1)), ((0, -5), (2, F(7, 3))),
        ((0, 1),), ((1, -2), (2, 9)), ((2, F(1, 1099056)),)))
    for k in range(8):
        rows = [[rng.choice((0, 0, rng.randint(-9, 9),
                             F(rng.randint(-9, 9), rng.randint(1, 40))))
                 for _ in range(5)] for _ in range(4)]
        rows.append([rng.randint(-2, 2) * x for x in rows[0]])
        rows.append([a - b for a, b in zip(rows[1], rows[2])])
        rng.shuffle(rows)
        yield f"mixed {k}", Matrix(6, 5, tuple(
            tuple((j, x) for j, x in enumerate(r) if x) for r in rows))


def test_integer_path_matches_dense_oracle():
    for name, m in integer_path_cases():
        r = rref(m)
        fm = as_fractions(m)
        assert r == dense_rref(fm), name
        assert all(type(x) is Fraction for row in r.entries for _, x in row), name
        assert rank(m) == oracle_rank(fm), name
        assert kernel(m) == oracle_kernel(fm), name
        assert all(type(x) is Fraction
                   for row in kernel(m).basis.entries for _, x in row), name


def test_pivot_rows_are_primitive_with_positive_leads(monkeypatch):
    """_make_primitive divides out the content and signs the lead, on both
    sides of the word-size gcd rule, and it and content run a gcd only for
    a value the running gcd does not divide."""
    big = 2 ** 40
    gcds = []
    gcd = linalg._gcd
    monkeypatch.setattr(linalg, "_gcd",
                        lambda a, b: gcds.append((a, b)) or gcd(a, b))
    for row, lead_col, want, runs in [
            ({0: -4, 2: 6}, 0, {0: 2, 2: -3}, 1),
            ({1: 3, 2: -9, 4: 12}, 1, {1: 1, 2: -3, 4: 4}, 0),
            ({2: -1, 3: 5}, 2, {2: 1, 3: -5}, 0),
            ({0: 7, 1: -5}, 0, {0: 7, 1: -5}, 1),
            ({0: 6, 1: 12, 2: -18, 3: 9}, 0, {0: 2, 1: 4, 2: -6, 3: 3}, 1),
            ({0: -3 * big, 1: 5 * big, 3: 7 * big}, 0, {0: 3, 1: -5, 3: -7}, 1)]:
        del gcds[:]
        _make_primitive(row, lead_col)
        assert (row, len(gcds)) == (want, runs)
    for g, values, want, runs in [(4, [8, -12], 4, 0), (-6, [12], 6, 0),
                                  (6, [12, -18, 9, 5], 1, 2),
                                  (4, [8, 6, 3], 1, 2)]:
        del gcds[:]
        assert (content(g, values), len(gcds)) == (want, runs)
    monkeypatch.undo()
    assert _gcd(6 * big, -9 * big) == 3 * big
    assert _gcd(-12, 18) == 6
    assert _gcd(10 ** 9 + 7, (10 ** 9 + 7) * 3 * big) == 10 ** 9 + 7


# --- the Fraction eliminator, the oracle of the fraction-free rref -----------
# This was linalg.rref before it eliminated in ints: the same sparse pivot
# table, each pivot row scaled to lead 1 by a Fraction inverse.  It compares
# with rref on matrices too big for dense_rref.


def _add_multiple(row: dict, f, other: dict) -> None:
    """row += f * other on sparse rows, dropping entries that cancel."""
    for c, x in other.items():
        y = row.get(c)
        if y is None:
            row[c] = f * x
        else:
            y += f * x
            if y:
                row[c] = y
            else:
                del row[c]


def fraction_rref(m: Matrix) -> Matrix:
    """Reduced row echelon form of m, in m's shape: unique, its pivot rows
    at the top and its zero rows, empty, at the bottom.

    The one elimination routine.  Pivot rows are dicts of column -> value,
    keyed by their lead column.  Each row of m is reduced by the pivot
    rows so far; a nonzero remainder is scaled by the Fraction inverse of
    its first value to lead 1 and subtracted from every earlier pivot row
    that has an entry there.  So every pivot row starts at its own column
    and vanishes on every other pivot column, which makes the table the
    RREF whatever the row order, and no zero entry is ever visited.
    """
    table = {}
    for pairs in m.entries:
        if len(table) == m.cols:
            break  # full column rank: every further row reduces to zero
        row = dict(pairs)
        for c in [c for c in row if c in table]:
            # pivot rows vanish on each other's columns, so row[c] is
            # untouched by the earlier subtractions
            _add_multiple(row, -row[c], table[c])
        if not row:
            continue
        lead = min(row)
        inv = row[lead]
        if inv != 1:
            inv = ONE / inv
            row = {c: x * inv for c, x in row.items()}
        elif not all(type(x) is Fraction for x in row.values()):
            row = {c: Fraction(x) for c, x in row.items()}
        for prow in table.values():
            f = prow.get(lead)
            if f is not None:
                _add_multiple(prow, -f, row)
        table[lead] = row
    pivots = tuple(tuple(sorted(table[p].items())) for p in sorted(table))
    return Matrix(m.rows, m.cols, pivots + ((),) * (m.rows - len(pivots)))


def combos(rng, basis, count):
    """count sparse int rows, each a random small combination of the
    dense int rows of basis: rows the basis spans."""
    for _ in range(count):
        cs = [rng.randint(-3, 3) for _ in basis]
        yield tuple((j, x) for j, x in enumerate(
            sum(c * b[j] for c, b in zip(cs, basis))
            for j in range(len(basis[0]))) if x)


def kernel_test_streams():
    """Streams long enough in dependent rows that rref builds the kernel
    of its pivots and tests later rows against it."""
    F = Fraction
    rng = random.Random(15)
    basis = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
    yield "an independent row after dependent ones", Matrix(202, 6, (
        *combos(rng, basis[:2], 40), tuple(enumerate(basis[2])),
        *combos(rng, basis[:3], 60), tuple(enumerate(basis[3])),
        *combos(rng, basis, 100)))
    yield "corank 1", Matrix(80, 5, tuple(combos(rng, [
        [rng.randint(-20, 20) for _ in range(5)] for _ in range(4)], 80)))
    yield "corank 4", Matrix(80, 6, tuple(combos(rng, basis[:2], 80)))
    yield "Fraction rows and empty rows in the tail", Matrix(72, 6, (
        *combos(rng, basis[:2], 40), (),
        tuple((j, F(x, 7)) for j, x in enumerate(basis[1]) if x), (),
        ((0, F(1, 3)), (1, F(-2, 5))), (), ((2, F(3, 4)),),
        *combos(rng, [*basis[:2], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]],
                25)))
    for k in range(1, 100):
        # the packed sum of the row 2^k e_1 - e_2 is 0 when k is the slot
        # width: only its entry above the bound keeps it independent
        yield f"a tail row above the slot bound, k = {k}", Matrix(10, 3, (
            ((0, 1),), ((0, 2),), ((0, -3),), ((0, 5),), ((0, 4),),
            ((0, 3),), ((0, 10 ** 30),), ((0, 2),), ((1, 1 << k), (2, -1)),
            ((1, 1),)))


def test_rref_matches_fraction_eliminator(monkeypatch):
    """Every matrix the series and the center hand rref on a seeded gl(2|1)
    conjugate; every (q, w) coboundary block of gl(1|1), gl11t and
    gl(2|1), as one walk streams them; and matrices that reach the kernel
    test: the bs2, bs3, ts2 and ta2 blocks and the center's annihilator
    of gl(2|1) densely conjugated by the draw of random.Random(1), and
    kernel_test_streams.  A series step streams its images, so each is
    captured as the rows it would yield."""
    mats = []
    real = linalg.rref

    def capture(m):
        m = Matrix(m.rows, m.cols, tuple(m.entries))
        mats.append(m)
        return real(m)

    lie, rep = glmn(2, 1)
    lie, rep = conjugate_pair(lie, rep,
                              random_even_invertible(random.Random(14), lie.space))
    t = induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)
    monkeypatch.setattr(linalg, "rref", capture)
    derived_series(t)
    central_series(t)
    ternary_center(t)
    monkeypatch.undo()
    assert len(mats) > 5
    for lie, rep in (gl11(), gl11t(), glmn(2, 1)):
        t = induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)
        for obj, cx, degree in ((lie, "binary-scalar", 2),
                                (lie, "binary-scalar", 3),
                                (t, "ternary-scalar", 1),
                                (t, "ternary-scalar", 2),
                                (t, "ternary-adjoint", 2)):
            labels = _block_labels(_weight_groups(cx, degree, obj.space,
                                                  _grading(obj)[1]))
            mats += [m for _, _, m, _ in read_blocks(obj, cx, degree, labels)]
    for m in mats:
        r = rref(m)
        assert r == fraction_rref(m)
        assert all(type(x) is Fraction for row in r.entries for _, x in row)

    lie, rep = glmn(2, 1)
    lie, rep = conjugate_pair(lie, rep,
                              random_even_invertible(random.Random(1), lie.space))
    t = induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)
    named = {}  # ts2 and ta2 share their blocks: each is eliminated once
    for obj, cx, degree in ((lie, "binary-scalar", 2),
                            (lie, "binary-scalar", 3),
                            (t, "ternary-scalar", 2),
                            (t, "ternary-adjoint", 2)):
        labels = _block_labels(_weight_groups(cx, degree, obj.space,
                                              _grading(obj)[1]))
        for label, (_, _, m, _) in zip(labels, read_blocks(obj, cx, degree,
                                                            labels)):
            named.setdefault(m, f"{cx} {degree} block {label}")
    mats = []
    monkeypatch.setattr(linalg, "rref", capture)
    ternary_center(t)
    monkeypatch.undo()
    named[mats[0]] = "the ternary_center annihilator"
    builds = []
    build = linalg._kernel_columns
    monkeypatch.setattr(linalg, "_kernel_columns",
                        lambda *args: builds.append(args) or build(*args))
    for m, name in named.items():
        del builds[:]
        r = rref(m)
        assert r == fraction_rref(m), name
        assert all(type(x) is Fraction for row in r.entries for _, x in row)
        assert builds, name
    for name, m in kernel_test_streams():
        del builds[:]
        assert rref(m) == fraction_rref(m), name
        assert builds, name
    # a one-shot stream that reaches full rank after the kernel is built
    # is read up to the row after the one that completes the rank
    rows = [*combos(random.Random(16), [[1, 2, 0], [0, 3, 0]], 30),
            ((2, 1),), ((0, 1),), ((1, 2),)]
    stream = iter(rows)
    del builds[:]
    assert rref(Matrix(len(rows), 3, stream)) == fraction_rref(
        Matrix(len(rows), 3, tuple(rows)))
    assert builds
    assert list(stream) == rows[-1:]


def test_a_new_pivot_drops_the_kernel(monkeypatch):
    """Rows spanned only once a new pivot arrives are eliminated until a
    kernel of the grown table is built, then skipped: a kernel kept from
    before the pivot would send every one of them to the elimination."""
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda *args: calls.append(args) or eliminate(*args))
    r0, r1 = [1, 1, 1, 1], [0, 1, 2, 3]
    rng = random.Random(17)
    tail = [[a * x + b * y for x, y in zip(r0, r1)]
            for a, b in ((rng.choice((-2, -1, 1, 2, 3)),
                          rng.choice((-3, -1, 1, 2))) for _ in range(60))]
    m = Matrix.build([r0, *[[k * x for x in r0] for k in (2, -3, 5)], r1,
                      *tail])
    assert rref(m) == dense_rref(as_fractions(m))
    assert len(calls) < 20


def test_dependent_rows_of_the_dense_gl22_conjugate_skip_the_elimination(
        gl22_conjugate, monkeypatch):
    """ternary_center's annihilator, 1,617 rows, reaches its rank 15 of 16
    after 112 rows, and the even bs2 block, 344 rows, its rank 57 of 64
    after 119: the rows past that point test as spanned by one packed sum.
    Taking every row through the elimination took 11,067 and 7,235 calls."""
    lie, _, t = gl22_conjugate
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda *args: calls.append(args) or eliminate(*args))
    assert ternary_center(t).dim == 1
    assert len(calls) < 1000
    del calls[:]
    assert cohomology_dims(lie, "binary-scalar", 2) == (7, 7, 0)
    assert len(calls) < 3570


# --- packed slots ------------------------------------------------------------


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4, 7, 8, 5 * 10 ** 12,
                                   (1 << 64) - 1, 1 << 64])
def test_packed_slots_round_trip_up_to_the_bound(bound):
    width = slot_width(bound)
    edge = (1 << (width - 1)) - 1  # the largest size a slot holds both signs of
    assert bound <= edge < 2 * bound + 1
    rng = random.Random(bound)
    vectors = [[0] * 5, [edge, -edge, edge, -edge, edge], [-edge] * 5,
               [0, 0, 0, 0, -edge], [edge, 0, 0, 0, -bound], [-1] * 5,
               [bound, -bound, 0, bound, -bound]]
    vectors += [[rng.randint(-edge, edge) for _ in range(5)]
                for _ in range(20)]
    for v in vectors:
        packed = pack(enumerate(v), width)
        assert unpack(packed, width, 5) == v
        assert (packed == 0) == (not any(v))
    # sparse terms pack as their dense vector does
    assert pack([(4, -edge), (1, edge)], width) == pack(
        enumerate([0, edge, 0, 0, -edge]), width)


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 7, 8, 5 * 10 ** 12,
                                   (1 << 64) - 1, 1 << 64])
def test_a_slot_one_bit_short_of_the_bound_fails_the_round_trip(bound):
    short = slot_width(bound) - 1
    for v in ([bound, 0, 0], [0, bound, 0], [0, 0, bound], [-bound, bound, 1]):
        assert unpack(pack(enumerate(v), short), short, 3) != v


def test_packed_vectors_add_and_scale_as_vectors():
    # the slots may leave their range on the way: only the sum is read
    rng = random.Random(5)
    width = slot_width(100)
    for _ in range(50):
        u = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(4)]
        v = [rng.randint(-100, 100) - a for a in u]
        c = rng.randint(-9, 9)
        total = [a + b for a, b in zip(u, v)]
        assert unpack(pack(enumerate(u), width) + pack(enumerate(v), width),
                      width, 4) == total
        assert (c * pack(enumerate(total), width)
                == pack(enumerate(c * x for x in total), width))
