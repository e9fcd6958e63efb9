"""What an algebra's memo proves: identity verdicts on record stop the
coboundary blocks of cohomology_dims at their proved rank.

With a super_skew bracket whose identity (Hom-Jacobi or Hom-Nambu) and
multiplicativity verdicts are both "pass", d^2 = 0 is a theorem, so
cohomology_dims tests no row and reads each block only up to rank cols -
dim B.  Every answer must be the one the row test gives, and any other
record (none, a "fail", a "not-applicable") must take the row test."""

import random
from array import array

import pytest

from homnambu import cohomology
from homnambu.binary import verify_hom_jacobi, verify_multiplicative
from homnambu.cohomology import (_adapted, _block, _block_labels, _blocks,
                                 _grading, _proved, _walk, _weight_groups,
                                 cohomology_dims)
from homnambu.fixtures import (conjugate_pair, gl11, glmn, neg_jacobi,
                               neg_mult, neg_nambu, random_even_invertible)
from homnambu.formats import read_document
from homnambu.linalg import Matrix, PreconditionError, orthogonal_test, rank
from homnambu.reps import TraceFunctional
from homnambu.ternary import (induce_ternary, verify_hom_nambu,
                              verify_ternary_multiplicative)

import ci_documents
from test_cohomology import (FIXTURES, built_rows, diagonal_twist,
                             gl21_family, induced)

VERIFIERS = {2: (verify_hom_jacobi, verify_multiplicative),
             3: (verify_hom_nambu, verify_ternary_multiplicative)}
BINARY = [("binary-scalar", d) for d in (1, 2, 3)]
TERNARY = [(cx, d) for cx in ("ternary-scalar", "ternary-adjoint")
           for d in (1, 2)]


def fresh(obj):
    """An algebra equal to obj, with an empty memo."""
    return type(obj)(obj.space, obj.bracket, *obj.twists)


def verified(obj):
    """fresh(obj), its identity and multiplicativity verified, so their
    verdicts are on record, and the verdicts."""
    a = fresh(obj)
    return a, [verify(a).verdict for verify in VERIFIERS[a.bracket.arity]]


def outcome(obj, cx, degree):
    """cohomology_dims, or the message of the PreconditionError it
    raises."""
    try:
        return cohomology_dims(obj, cx, degree)
    except PreconditionError as exc:
        return str(exc)


def family(m, n):
    """(name, lie, t) for gl(m|n), its diagonal Yau twist and its dense
    conjugate by random_even_invertible(random.Random(1))."""
    if (m, n) == (2, 1):
        yield from ((name, lie, t) for name, lie, _, t in gl21_family())
        return
    lie, rep = glmn(m, n)
    yield f"gl{m}{n}", lie, induced(lie, rep)[1]
    twisted = diagonal_twist(lie, m, n)
    tau = induced(lie, rep)[0]
    yield f"gl{m}{n}t", twisted, induce_ternary(
        twisted, TraceFunctional(twisted, tau.values), twisted.alpha,
        twisted.alpha)
    clie, crep = conjugate_pair(lie, rep, random_even_invertible(
        random.Random(1), lie.space))
    yield f"gl{m}{n}c", clie, induced(clie, crep)[1]


def proved_cases():
    """(name, obj, cx, degree) for every degree the cohomology-ladder
    benchmark and the CI pin: gl(1|1), gl(2|1) and gl(2|2), each with its
    diagonal Yau twist and a dense conjugate, and gl(1|1)'s second dense
    conjugate.  gl(2|1) ts3 on the plain algebra alone, and the dense
    gl(2|2) conjugate's ts2 and ta2 in the CI step that runs the proved
    path on that document."""
    lie, rep = gl11()
    clie, crep = conjugate_pair(lie, rep, random_even_invertible(
        random.Random(2), lie.space))
    extra = [("gl11c2", clie, induced(clie, crep)[1])]
    for m, n in ((1, 1), (2, 1), (2, 2)):
        for name, lie, t in [*family(m, n), *extra * ((m, n) == (1, 1))]:
            for cx, degree in BINARY:
                yield name, lie, cx, degree
            for cx, degree in TERNARY:
                if name == "gl22c" and degree == 2:
                    continue
                yield name, t, cx, degree
            if name == "gl21":
                yield name, t, "ternary-scalar", 3


def lower_blocks(obj, cx, degree):
    """(label, row count, rows, the Matrix of the lower coboundary's rows
    at the block's column keys) of every (q, w) block of either key parity, in
    the basis cohomology_dims walks."""
    used = _adapted(obj, cx, degree)[0]
    _, groups, upper = _blocks(used, cx, degree)
    lower = _walk(used, cx, degree - 1)[1]
    below = _weight_groups(cx, degree - 1, used.space, _grading(used)[1])
    for label in _block_labels(groups):
        count, _, col_keys, rows = upper(label)
        low = array("q", _block(below, label)[1]())
        yield label, count, rows, Matrix(
            len(col_keys), len(low),
            tuple(lower(col_keys, low)) if low else ((),) * len(col_keys))


def assert_every_row_squares_to_zero(obj, cx, degree):
    """The per-row d^2 test on every row of every block: each row's
    products with the columns of the coboundary below are 0."""
    for label, count, rows, lows in lower_blocks(obj, cx, degree):
        zero = orthogonal_test(lows.entries)
        read = 0
        for row in rows:
            assert zero(row), (cx, degree, label)
            read += 1
        assert read == count


def test_verdicts_on_record_leave_every_dimension_as_the_row_test_gives():
    # the proved path against the row test, in every degree of every
    # ladder, Yau-twist and dense-conjugate algebra, the dense gl(2|2)
    # conjugate's bs3 included: an H > 0 block whose rank mod p stops
    # short of cols - b, so its kernel lift still runs
    seen = set()
    for name, obj, cx, degree in proved_cases():
        proved, verdicts = verified(obj)
        assert verdicts == ["pass", "pass"] and _proved(proved), name
        plain = fresh(obj)
        assert not _proved(plain)
        want = cohomology_dims(plain, cx, degree)
        assert cohomology_dims(proved, cx, degree) == want, (name, cx, degree)
        seen.add((name, cx, degree, want))
    assert ("gl22c", "binary-scalar", 3, (58, 57, 1)) in seen
    assert ("gl21", "ternary-scalar", 3, (177, 175, 2)) in seen
    assert ("gl21c", "ternary-adjoint", 2, (41, 36, 5)) in seen


def test_where_both_verdicts_pass_every_row_squares_to_zero():
    # the theorem the proved path rests on, checked row by row: on every
    # algebra whose identity and multiplicativity pass, every row of every
    # block of each coboundary above degree 1 passes the d^2 test (gl(2|1)
    # ts3, 576,000 rows, is left out for its size)
    checked = 0
    for name, obj, cx, degree in proved_cases():
        if degree == 1 or (cx, degree) == ("ternary-scalar", 3):
            continue
        proved, _ = verified(obj)
        assert _proved(proved)
        assert_every_row_squares_to_zero(proved, cx, degree)
        checked += 1
    assert checked == 38


def rows_read(monkeypatch, obj, cx, degree):
    """(dims, rows the upper coboundary built, rows its even blocks have)
    of one cohomology_dims call."""
    built = built_rows(monkeypatch)
    _, groups, block = _blocks(obj, cx, degree)
    total = sum(block(label)[0] for label in _block_labels(groups)
                if label[0] == 0)
    dims = cohomology_dims(obj, cx, degree)
    monkeypatch.undo()
    return dims, sum(1 for c, d, _, _ in built if (c, d) == (cx, degree)), \
        total


def test_a_proved_block_reads_rows_only_up_to_its_proved_rank(
        monkeypatch, gl22_conjugate):
    # gl(2|2) bs2: 101 of the even blocks' 304 rows with proofs on record,
    # each block stopping at the row that brings its rank to cols - b; the
    # dense conjugate's one 344 x 64 block stops at rank 57 after 119 rows.
    # With no proofs, every row of the dense block is read
    lie = glmn(2, 2)[0]
    proved, _ = verified(lie)
    assert rows_read(monkeypatch, proved, "binary-scalar", 2) == (
        (7, 7, 0), 101, 304)
    conj = gl22_conjugate[0]
    assert rows_read(monkeypatch, fresh(conj), "binary-scalar", 2) == (
        (7, 7, 0), 344, 344)
    proved, _ = verified(conj)
    assert rows_read(monkeypatch, proved, "binary-scalar", 2) == (
        (7, 7, 0), 119, 344)


def d2_tested_rows(monkeypatch):
    """Spy on the d^2 test of cohomology_dims: a list that gets, per block
    tested, how many rows the test read."""
    tested = []
    test = cohomology.orthogonal_test

    def counted(columns):
        zero = test(columns)
        tested.append(0)

        def spy(row):
            tested[-1] += 1
            return zero(row)
        return spy

    monkeypatch.setattr(cohomology, "orthogonal_test", counted)
    return tested


def test_with_no_proof_on_record_the_d2_test_reads_every_row(monkeypatch):
    # plain gl(2|2) bs2 with no verdict, and with only Hom-Jacobi's: each
    # block with b > 0 has every row tested, as the certified blocks of
    # test_d2_runs_on_every_row_of_a_modular_block do
    lie = glmn(2, 2)[0]
    half = fresh(lie)
    verify_hom_jacobi(half)
    for obj in (fresh(lie), half):
        assert not _proved(obj)
        tested = d2_tested_rows(monkeypatch)
        assert cohomology_dims(obj, "binary-scalar", 2) == (7, 7, 0)
        monkeypatch.undo()
        counts = [count for label, count, _, lows
                  in lower_blocks(obj, "binary-scalar", 2)
                  if label[0] == 0 and rank(lows)]
        assert tested == counts and len(counts) > 1


def failing_cases():
    """(name, obj, cx, degree) on algebras a verifier fails or finds
    not-applicable: Hom-Jacobi broken (neg_jacobi.json), multiplicativity
    broken (neg_mult), Hom-Nambu broken on induced gl(1|1) (neg_nambu,
    and the same doubling on induced gl(2|1)), the central twists, not
    multiplicative, and gl(1|1) with two twists."""
    doc = read_document(FIXTURES / "neg_jacobi.json").lie
    for degree in (2, 3):
        yield "neg_jacobi.json", doc, "binary-scalar", degree
        yield "neg_mult", neg_mult(), "binary-scalar", degree
    t21 = induced(*glmn(2, 1))[1]
    coeffs = t21.bracket.canonical_coeffs()
    key = min(coeffs)
    broken = type(t21)(t21.space, t21.bracket.with_canonical(
        key, tuple(2 * c for c in coeffs[key])), t21.alpha1, t21.alpha2)
    for cx in ("ternary-scalar", "ternary-adjoint"):
        yield "neg_nambu", neg_nambu(), cx, 2
        yield "gl21 broken", broken, cx, 2
    for m, n in ((2, 1), (2, 2)):
        central = ci_documents.central(m, n)
        yield f"gl{m}{n} central", central.lie, "binary-scalar", 3
        for cx in ("ternary-scalar", "ternary-adjoint"):
            yield f"gl{m}{n} central", central.ternary, cx, 2
    two = read_document(FIXTURES / "gl11_two_twists.json").ternary
    yield "gl11_two_twists", two, "ternary-scalar", 2


def test_a_failing_or_inapplicable_verdict_keeps_the_row_test(monkeypatch):
    # with the verdicts on record the outcome is the row test's: the same
    # dims, or the same _escaped message naming the broken identity, and
    # every tested block has all its rows tested
    messages = set()
    for name, obj, cx, degree in failing_cases():
        want = outcome(fresh(obj), cx, degree)
        recorded, verdicts = verified(obj)
        assert "pass" != verdicts[0] or "pass" != verdicts[1], name
        assert not _proved(recorded), name
        tested = d2_tested_rows(monkeypatch)
        assert outcome(recorded, cx, degree) == want, (name, cx, degree)
        monkeypatch.undo()
        if isinstance(want, str):
            messages.add(want)
        elif tested:
            assert all(tested), name
    assert {"coboundary escaped the cocycle space: the algebra breaks "
            "multiplicative at (E0_0, E0_1)",
            "coboundary escaped the cocycle space: the algebra breaks "
            "hom-nambu at (E0_0, E1_1, E0_0, E2_2, E0_1)"} <= messages
    assert any("breaks hom-jacobi" in m for m in messages)


@pytest.mark.parametrize("verdict", ["fail", "not-applicable"])
def test_only_two_passing_verdicts_prove_d2(verdict):
    # _proved reads the memo alone: a "fail" or a "not-applicable" in
    # either place, or a bracket that is not super_skew, proves nothing
    lie = glmn(1, 1)[0]
    for first, second in ((verdict, "pass"), ("pass", verdict),
                          ("pass", None)):
        a = fresh(lie)
        a.memo.update({"verify_hom_jacobi": first,
                       "verify_multiplicative": second})
        assert not _proved(a)
    a = fresh(lie)
    a.memo.update(dict.fromkeys(("verify_hom_jacobi",
                                 "verify_multiplicative"), "pass"))
    assert _proved(a)
    skewless = neg_jacobi()
    skewless = type(skewless)(skewless.space, skewless.bracket.with_entry(
        0, 1, (0, 0, 1, 0)), skewless.alpha)
    skewless.memo.update(a.memo)
    assert not skewless.bracket.super_skew and not _proved(skewless)
