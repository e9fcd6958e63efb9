"""Spans, series, centers and ideal checks against their direct oracles.

SuperBracket.span contracts through the packed composite tables, a
series step inside its last term stops once its images span that term,
and annihilator reads only canonical prefixes of a super-skew bracket;
tests/oracles.py keeps the recursive contraction, the series without an
early stop and the all-prefix annihilator they replaced.  The cases are
every fixture, gl(2|1) and gl(2|2) with a diagonal Yau twist and a dense
conjugate each, and raw with_entry brackets that are not super-skew; the
subspaces include lines that mix parities, dense random rows with
denominators, and starting terms that are no ideal, so no series step may
assume it falls.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from homnambu.binary import HomLieSuper, is_ideal, yau_twist
from homnambu.fixtures import (a0, aff1, conjugate_gl11, conjugate_pair,
                               gl11, gl11t, glmn, induced_gl11, matrix_units,
                               neg_jacobi, neg_mult, neg_nambu, neg_skew,
                               neg_ternary_mult, neg_ternary_skew,
                               random_even_invertible)
from homnambu.graded import GradedMap, SuperBracket, is_canonical
from homnambu.linalg import Matrix, Subspace, unit_vec
from homnambu.reps import TraceFunctional, trace_functional
from homnambu.series import (binary_center, binary_central_series,
                             binary_derived_series, central_series,
                             derived_series, ternary_center)
from homnambu.ternary import TernaryHomLieSuper, induce_ternary

from oracles import (annihilator_direct, integer_fill, series_direct,
                     span_direct)


def induced(lie, tau):
    return induce_ternary(lie, tau, lie.alpha, lie.alpha)


def glmn_family(m, n):
    """(plain, diagonal Yau twist, dense conjugate) of gl(m|n), each as
    (binary algebra, induced ternary algebra).  The twist scales E_ij by
    d_i / d_j, which fixes the diagonal units and so the supertrace."""
    lie, rep = glmn(m, n)
    tau = trace_functional(rep)
    d = list(range(2, m + n + 2))
    alpha = GradedMap(lie.space, lie.space, Matrix.build(
        [[Fraction(d[i], d[j]) if r == c else 0 for c in range(lie.dim)]
         for r, (i, j) in enumerate(matrix_units(m, n))]))
    twist = yau_twist(lie, alpha)
    conj, crep = conjugate_pair(lie, rep, random_even_invertible(
        random.Random(1), lie.space))
    return {"plain": (lie, induced(lie, tau)),
            "twist": (twist, induced(twist, TraceFunctional(twist,
                                                            tau.values))),
            "conjugate": (conj, induced(conj, trace_functional(crep)))}


def raw_binary():
    """gl(1|1) with [h1, q] alone patched and a new [q, h2]: stale
    mirrors, so not super-skew."""
    lie, _ = gl11()
    b = lie.bracket.with_entry(0, 2, (0, 0, 0, Fraction(1, 2))).with_entry(
        2, 1, (1, 0, 0, 0))
    return HomLieSuper(lie.space, b, lie.alpha)


def raw_ternary(t):
    """t with three orderings patched alone, so not super-skew; (3, 2, 0)
    has a decreasing prefix, which only a read of every prefix sees."""
    b = t.bracket.with_entry(1, 3, 2, (0, 3) + (0,) * (t.dim - 2)).with_entry(
        0, 1, 2, (0, 0, Fraction(2, 3)) + (0,) * (t.dim - 3)).with_entry(
        3, 2, 0, (1,) + (0,) * (t.dim - 1))
    return TernaryHomLieSuper(t.space, b, t.alpha1, t.alpha2)


@lru_cache(maxsize=None)
def binary_cases():
    out = {"a0": a0()[0], "aff1": aff1()[0], "gl11": gl11()[0],
           "gl11t": gl11t()[0], "neg_skew": neg_skew(),
           "neg_jacobi": neg_jacobi(), "neg_mult": neg_mult(),
           "conjugate_gl11": conjugate_gl11(random.Random(5))[0],
           "raw": raw_binary()}
    for m, n in ((2, 1), (2, 2)):
        for name, (lie, _) in glmn_family(m, n).items():
            out[f"gl{m}{n}-{name}"] = lie
    return out


@lru_cache(maxsize=None)
def ternary_cases():
    out = {}
    for name, make in (("a0", a0), ("aff1", aff1), ("gl11", gl11),
                       ("gl11t", gl11t)):
        lie, rep = make()
        out[name] = induced(lie, trace_functional(rep))
    lie, rep = conjugate_gl11(random.Random(5))
    out["conjugate_gl11"] = induced(lie, trace_functional(rep))
    out.update({"induced_gl11": induced_gl11(),
                "neg_ternary_skew": neg_ternary_skew(),
                "neg_nambu": neg_nambu(),
                "neg_ternary_mult": neg_ternary_mult(),
                "raw": raw_ternary(induced_gl11())})
    for m, n in ((2, 1), (2, 2)):
        for name, (_, t) in glmn_family(m, n).items():
            out[f"gl{m}{n}-{name}"] = t
    out["gl21-raw"] = raw_ternary(out["gl21-plain"])
    return out


def probes(a, rng):
    """Full, zero, the first derived term, the center, a line mixing the
    first even and the first odd unit, and dense random subspaces with
    denominators: of dimension 1 and 2 at dimension 16, and of dimension
    1, half and all but one below."""
    dim = a.dim
    p = a.space.parities
    full = Subspace.full(dim)
    out = [full, Subspace.zero(dim),
           span_direct(a.bracket, *[full] * a.bracket.arity),
           annihilator_direct(a.bracket)]
    if 0 in p and 1 in p:
        mixed = (p.index(0), p.index(1))
        out.append(Subspace.from_vectors(
            dim, [tuple(1 if j in mixed else 0 for j in range(dim))]))
    for k in ((1, 2) if dim > 9 else (1, dim // 2, dim - 1)):
        out.append(Subspace.from_vectors(dim, [
            tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                  for _ in range(dim)) for _ in range(k)]))
    return out


def assert_is_ideal_matches(a, s):
    """is_ideal, which takes either arity, against every twist keeping s
    and the direct span [s, g, ..., g] lying in s."""
    full = Subspace.full(a.dim)
    assert is_ideal(a, s) == (
        all(m.keeps(s) for m in a.twists) and s.contains_subspace(
            span_direct(a.bracket, s, *[full] * (a.bracket.arity - 1))))


@pytest.mark.parametrize("name", sorted(binary_cases()))
def test_binary_span_ideals_and_center_match_the_direct_oracles(name):
    g = binary_cases()[name]
    full = Subspace.full(g.dim)
    subs = probes(g, random.Random(41))
    for s in subs:
        for args in ((s, s), (s, full), (full, s), (s, subs[-1])):
            assert g.bracket.span(*args) == span_direct(g.bracket, *args)
        assert_is_ideal_matches(g, s)
    assert binary_center(g) == annihilator_direct(g.bracket)


@pytest.mark.parametrize("name", sorted(ternary_cases()))
def test_ternary_span_ideals_and_center_match_the_direct_oracles(name):
    t = ternary_cases()[name]
    full = Subspace.full(t.dim)
    subs = probes(t, random.Random(43))
    a, b = subs[-1], subs[-2]
    for s in subs:
        for args in ((s, s, s), (s, full, full), (full, s, full),
                     (full, full, s), (s, a, b), (a, b, s)):
            assert t.bracket.span(*args) == span_direct(t.bracket, *args)
        assert_is_ideal_matches(t, s)
    assert ternary_center(t) == annihilator_direct(t.bracket)


def truncated(direct, rmax):
    """The series of a direct run with a larger bound, cut at rmax."""
    terms, stabilized, _ = direct
    cut = terms[:rmax + 1]
    return (cut, stabilized and len(terms) <= rmax + 1,
            next((k for k, s in enumerate(cut) if s.is_zero()), None))


def assert_series_match(run, a, args, start):
    """run(a, ideal, rmax) for every rmax from 1 to dim + 2, and None,
    against series_direct with the same start."""
    dim = a.dim
    direct = series_direct(a.bracket, start or Subspace.full(dim), args,
                           dim + 2)
    for rmax in [*range(1, dim + 3), None]:
        got = run(a, start, rmax)
        want = truncated(direct, dim + 1 if rmax is None else rmax)
        assert (got.terms, got.stabilized, got.class_index) == want, rmax


def starts(a):
    """No ideal (the whole space); a line mixing an even and an odd unit
    where both parities occur, else the first unit; and a seeded dense
    3-dimensional subspace with denominators, from which the series of
    gl(2|1) and gl(2|2) grow before they settle."""
    dim = a.dim
    p = a.space.parities
    mixed = (p.index(0), p.index(1)) if 0 in p and 1 in p else (0,)
    rng = random.Random(7)
    return [None,
            Subspace.from_vectors(dim, [tuple(1 if j in mixed else 0
                                              for j in range(dim))]),
            Subspace.from_vectors(dim, [
                tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                      for _ in range(dim)) for _ in range(min(3, dim))])]


@pytest.mark.parametrize("name", sorted(binary_cases()))
def test_binary_series_match_the_direct_oracle_at_every_bound(name):
    g = binary_cases()[name]
    for start in starts(g):
        assert_series_match(
            lambda a, s, r: binary_derived_series(a, s, r), g,
            lambda s: (s, s), start)
        first = start or Subspace.full(g.dim)
        assert_series_match(
            lambda a, s, r: binary_central_series(a, s, r), g,
            lambda s: (s, first), start)


@pytest.mark.parametrize("name", sorted(ternary_cases()))
def test_ternary_series_match_the_direct_oracle_at_every_bound(name):
    t = ternary_cases()[name]
    for start in starts(t):
        assert_series_match(lambda a, s, r: derived_series(a, s, r), t,
                            lambda s: (s, s, s), start)
        first = start or Subspace.full(t.dim)
        assert_series_match(lambda a, s, r: central_series(a, s, r), t,
                            lambda s: (s, first, first), start)


def test_a_start_that_is_no_ideal_grows_and_is_not_cut_short():
    """On gl(2|1) the series from a dense 3-dimensional subspace grow
    before they settle, so no step lies in the term before it until the
    end: the early stop must not fire on a growing series."""
    g, t = glmn_family(2, 1)["plain"]
    start = starts(t)[2]
    res = central_series(t, start)
    assert res.dims() == (3, 5, 8, 8)
    assert res.terms == series_direct(t.bracket, start,
                                      lambda s: (s, start, start))[0]
    res = binary_derived_series(g, start)
    assert res.dims() == (3, 7, 8, 8)
    assert res.terms == series_direct(g.bracket, start, lambda s: (s, s))[0]


def test_a_central_step_on_gl22_stops_before_reading_every_image(
        monkeypatch):
    """The second central step of gl(2|2) spans the first term again, so
    it stops once its rank is 15, well before its last image."""
    _, t = glmn_family(2, 2)["plain"]
    read, total = [], []
    images = SuperBracket.images

    def counted(self, *subspaces):
        m = images(self, *subspaces)
        rows = list(m.entries)
        total.append(len(rows))
        n = len(read)
        read.append(0)

        def stream():
            for row in rows:
                read[n] += 1
                yield row

        return Matrix(m.rows, m.cols, stream())

    monkeypatch.setattr(SuperBracket, "images", counted)
    res = central_series(t)
    assert res.dims() == (16, 15, 15)
    assert read[0] == total[0]
    assert 15 <= read[1] < total[1]


def test_an_image_that_escapes_the_last_term_raises(monkeypatch):
    """A step whose images leave the last term, which multilinearity
    rules out, raises instead of spanning a wrong term."""
    _, t = glmn_family(2, 1)["plain"]
    calls = []
    images = SuperBracket.images

    def escaping(self, *subspaces):
        calls.append(subspaces)
        if len(calls) == 1:
            return images(self, *subspaces)
        last = subspaces[0]
        dim = last.ambient_dim
        outside = next(k for k in range(dim)
                       if not last.contains(unit_vec(dim, k)))
        return Matrix(1, dim, (((outside, 1),),))

    monkeypatch.setattr(SuperBracket, "images", escaping)
    with pytest.raises(RuntimeError, match="left the term before it"):
        central_series(t)
    assert len(calls) == 2


def test_spans_bound_their_streamed_rows_by_the_image_count():
    """rref pads its result to the row count it is given, so images
    bounds its rows by the images a span can have, not by a cap: the
    distinct stored vectors when every slot is full, and otherwise the
    product of the slots' dimensions."""
    for t in (ternary_cases()["gl22-conjugate"], ternary_cases()["raw"]):
        full = Subspace.full(t.dim)
        m = t.bracket.images(full, full, full)
        assert len(list(m.entries)) == m.rows
        d1 = t.bracket.span(full, full, full)
        for args in ((d1, full, full), (d1, d1, d1), (full, full, d1)):
            m = t.bracket.images(*args)
            assert len(list(m.entries)) <= m.rows
            assert m.rows <= args[0].dim * args[1].dim * args[2].dim


@pytest.mark.parametrize("name", ["gl11", "gl21-twist", "gl22-conjugate"])
def test_from_integer_fills_as_one_canonicalize_per_ordering(name):
    """The sign tables give the view the canonicalize fill gives, from
    canonical values at twice the least denominator: the same keys in the
    same order, the same values, and one tuple shared by exactly the
    same orderings."""

    def shared(view):
        groups = {}
        for key, value in view.items():
            groups.setdefault(id(value), set()).add(key)
        return {frozenset(keys) for keys in groups.values()}

    for b in (binary_cases()[name].bracket, ternary_cases()[name].bracket):
        d, view = b.integer
        p = b.space.parities
        canonical = {k: tuple((m, 2 * x) for m, x in v)
                     for k, v in view.items() if is_canonical(k, p)}
        got = type(b).from_integer(b.space, 2 * d, canonical).integer
        want = integer_fill(b.space, 2 * d, canonical)
        assert got[0] == want[0] == d
        assert list(got[1].items()) == list(want[1].items())
        assert shared(got[1]) == shared(want[1])


def test_nothing_packed_outlives_a_span_or_a_join():
    """A span or a Hom-Nambu join leaves on the bracket only its two
    sizes, the largest entry and 1-norm of the view, as ints."""
    t = ternary_cases()["gl21-conjugate"]
    full = Subspace.full(t.dim)
    before = {k: v for k, v in vars(t.bracket).items() if k != "sizes"}
    d1 = t.bracket.span(full, full, full)
    t.bracket.span(d1, full, full)
    central_series(t)
    assert {k: v for k, v in vars(t.bracket).items()
            if k != "sizes"} == before
    assert len(t.bracket.sizes) == 2
    assert all(type(x) is int for x in t.bracket.sizes)
