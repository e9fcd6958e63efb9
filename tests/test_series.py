"""Derived and central series, centers, and the binary-to-ternary transfers."""

import random
from fractions import Fraction
from itertools import product

import pytest

from homnambu.binary import HomLieSuper, SuperBracket2, is_ideal, is_subalgebra
from homnambu.fixtures import (a0, aff1, conjugate_gl11, gl11, gl11t, glmn,
                               induced_gl11)
from homnambu.graded import (GradedMap, graded_space, identity_map,
                             skew_basis, tuple_parity)
from homnambu.linalg import (InputError, Matrix, Subspace, is_zero_vec, kernel,
                             unit_vec)
from homnambu.reps import trace_functional, verify_representation
from homnambu.series import (binary_center, binary_central_series,
                             binary_derived_series, central_series,
                             compare_central_series, derived_series,
                             find_unit, ideality_of_series, ternary_center,
                             verify_center_transfer,
                             verify_solvability_theorem)
from homnambu.ternary import (SuperBracket3, TernaryHomLieSuper,
                              induce_ternary)


def test_induced_gl11_derived_series(t11):
    res = derived_series(t11)
    assert res.dims() == (4, 1, 0, 0)
    assert res.class_index == 2
    assert res.stabilized
    # D^1 = span{h1 + h2}
    d1 = res.terms[1]
    assert d1.dim == 1 and d1.contains((1, 1, 0, 0))


def test_induced_gl11_central_series(t11):
    res = central_series(t11)
    assert res.dims() == (4, 1, 0, 0)
    assert res.class_index == 2


def test_binary_gl11_series(g11):
    assert binary_derived_series(g11).dims() == (4, 3, 1, 0, 0)
    assert binary_central_series(g11).dims() == (4, 3, 3)
    assert binary_central_series(g11).class_index is None


def test_series_on_an_ideal(t11):
    start = Subspace.from_vectors(4, [unit_vec(4, 2), unit_vec(4, 3)])
    res = derived_series(t11, ideal=start)
    assert res.dims()[0] == 2
    assert res.terms[1].contains_subspace(res.terms[2])


def test_centers(g11, t11):
    z3 = ternary_center(t11)
    assert z3.dim == 1 and z3.contains((1, 1, 0, 0))
    z2 = binary_center(g11)
    assert z2.dim == 1 and z2.contains((1, 1, 0, 0))


def test_abelian_fixture_is_its_own_center():
    lie, rep = a0()
    assert binary_center(lie).dim == lie.dim
    t = induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)
    assert ternary_center(t).dim == lie.dim
    assert derived_series(t).dims() == (2, 0, 0)


def test_aff1_induces_abelian_ternary():
    # two even generators cannot fill three skew slots
    lie, rep = aff1()
    t = induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)
    assert len(t.bracket.canonical_coeffs()) == 0
    assert ternary_center(t).dim == 2


def test_center_transfer(all_binary):
    for name, lie, rep in all_binary:
        tau = trace_functional(rep)
        t = induce_ternary(lie, tau, lie.alpha, lie.alpha)
        assert verify_center_transfer(lie, tau, t).verdict == "pass", name


def test_central_series_termwise_inclusion(all_binary):
    for name, lie, rep in all_binary:
        tau = trace_functional(rep)
        t = induce_ternary(lie, tau, lie.alpha, lie.alpha)
        rep_ = compare_central_series(lie, t)
        assert rep_.verdict == "pass", name
        b = binary_central_series(lie)
        c = central_series(t)
        for k in range(min(len(b.terms), len(c.terms))):
            assert b.terms[k].contains_subspace(c.terms[k]), (name, k)


def test_find_unit_is_none_on_gl11(g11, t11):
    assert find_unit(g11, t11) is None


def test_solvability_theorem(t11):
    rep = verify_solvability_theorem(t11)
    assert rep.verdict == "pass"
    assert rep.metrics["derived_dims"] == [4, 1, 0, 0]
    assert rep.metrics["solvability_class"] == 2


def test_solvability_on_random_conjugates():
    rng = random.Random(51)
    for _ in range(10):
        lie, rep = conjugate_gl11(rng)
        tau = trace_functional(rep)
        t = induce_ternary(lie, tau, lie.alpha, lie.alpha)
        res = derived_series(t)
        assert res.dims()[2] == 0      # D^2 always dies
        assert verify_solvability_theorem(t).verdict == "pass"


def test_ideality_of_series(t11):
    res = derived_series(t11)
    assert ideality_of_series(t11, res).verdict == "pass"


# --- differential oracles ----------------------------------------------------
# The per-vector loops that SuperBracket.span and annihilator replaced: one
# eval_vectors per tuple of echelon vectors, one dense block per basis
# prefix, and the ideal checks on every basis argument.


def span_oracle(bracket, *subspaces):
    """Span of [a, b, ...] over every tuple of echelon vectors."""
    vecs = []
    for args in product(*(s.vectors() for s in subspaces)):
        v = bracket.eval_vectors(*args)
        if not is_zero_vec(v):
            vecs.append(v)
    return Subspace.from_vectors(bracket.space.dim, vecs)


def center_oracle(bracket):
    """Kernel of the stacked dense blocks of z -> [e_i1, ..., z]."""
    dim = bracket.space.dim
    rows = []
    for prefix in product(range(dim), repeat=bracket.arity - 1):
        block = Matrix.from_columns(
            [bracket.value(*prefix, k) for k in range(dim)], dim)
        rows.extend(block.entries)
    return kernel(Matrix(len(rows), dim, tuple(rows)))


def closed_oracle(bracket, twists, s, ideal):
    """Every twist keeps s, and every [u, ...] lies in s: with the other
    slots on s (subalgebra) or on every basis vector (ideal)."""
    basis = s.vectors()
    for m in twists:
        for u in basis:
            if not s.contains(m.apply(u)):
                return False
    dim = bracket.space.dim
    rest = [unit_vec(dim, j) for j in range(dim)] if ideal else basis
    for u in basis:
        for others in product(rest, repeat=bracket.arity - 1):
            if not s.contains(bracket.eval_vectors(u, *others)):
                return False
    return True


def fraction_bracket():
    """A seeded gl(1|1)-space bracket obeying the parity law, with
    structure constants of denominators 1, 2 and 3 and a diagonal twist
    with denominators 5 and 7."""
    rng = random.Random(17)
    sp = gl11()[0].space
    p = sp.parities
    coeffs = {key: tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                         if p[o] == tuple_parity(key, p) else 0
                         for o in range(sp.dim))
              for key in skew_basis(2, sp).tuples}
    alpha = GradedMap(sp, sp, Matrix.build(
        [[Fraction(rng.randint(1, 3), rng.choice((5, 7))) if i == j else 0
          for j in range(sp.dim)] for i in range(sp.dim)]))
    return HomLieSuper(sp, SuperBracket2.from_canonical(sp, coeffs), alpha)


def fraction_ternary():
    """A seeded ternary bracket on the gl(1|1) space with denominators 1, 2
    and 3, and two distinct diagonal twists with denominators 5 and 7."""
    rng = random.Random(18)
    sp = gl11()[0].space
    p = sp.parities
    coeffs = {key: tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                         if p[o] == tuple_parity(key, p) else 0
                         for o in range(sp.dim))
              for key in skew_basis(3, sp).tuples}

    def twist():
        return GradedMap(sp, sp, Matrix.build(
            [[Fraction(rng.randint(1, 3), rng.choice((5, 7))) if i == j else 0
              for j in range(sp.dim)] for i in range(sp.dim)]))

    return TernaryHomLieSuper(sp, SuperBracket3.from_canonical(sp, coeffs),
                              twist(), twist())


def raw_binary():
    """Raw with_entry patches on gl(1|1): [h1,q] alone changes and [q,h2]
    gains an entry, so their mirrors go stale and the bracket is not skew;
    only then do the two slots of [S, g] give different spans."""
    lie, _ = gl11()
    b = lie.bracket.with_entry(0, 2, (0, 0, 0, Fraction(1, 2))).with_entry(
        2, 1, (1, 0, 0, 0))
    return HomLieSuper(lie.space, b, lie.alpha)


def raw_ternary():
    """Raw with_entry patches on induced gl(1|1), one ordering each, with
    stale mirrors; (0, 1, 2) was zero, so it has no mirror at all."""
    t = induced_gl11()
    b = t.bracket.with_entry(1, 3, 2, (0, 3, 0, 0)).with_entry(
        3, 2, 2, (1, 0, 0, 0)).with_entry(0, 1, 2, (0, 0, Fraction(2, 3), 0))
    return TernaryHomLieSuper(t.space, b, t.alpha1, t.alpha2)


def induced(lie_rep):
    lie, rep = lie_rep
    return induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)


BINARY_CASES = {
    "gl11": lambda: gl11()[0],
    "gl11t": lambda: gl11t()[0],
    "conjugate": lambda: conjugate_gl11(random.Random(5))[0],
    "gl21": lambda: glmn(2, 1)[0],
    "fractions": fraction_bracket,
    "abelian": lambda: a0()[0],
    "aff1": lambda: aff1()[0],
    "raw": raw_binary,
}

TERNARY_CASES = {
    "gl11": lambda: induced(gl11()),
    "gl11t": lambda: induced(gl11t()),
    "conjugate": lambda: induced(conjugate_gl11(random.Random(5))),
    "gl21": lambda: induced(glmn(2, 1)),
    "fractions": fraction_ternary,
    "abelian": lambda: induced(a0()),
    "aff1": lambda: induced(aff1()),
    "raw": raw_ternary,
}


def probe_subspaces(a, rng):
    """Full, zero, the first derived term, the center, a non-graded line
    when both parities occur, and seeded random subspaces of mixed
    denominators."""
    dim = a.dim
    p = a.space.parities
    full = Subspace.full(dim)
    out = [full, Subspace.zero(dim),
           span_oracle(a.bracket, *[full] * a.bracket.arity),
           center_oracle(a.bracket)]
    if 0 in p and 1 in p:
        mixed = (p.index(0), p.index(1))
        out.append(Subspace.from_vectors(
            dim, [tuple(1 if j in mixed else 0 for j in range(dim))]))
    for k in (1, dim // 2, dim - 1):
        out.append(Subspace.from_vectors(dim, [
            tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                  if rng.random() < 0.6 else 0 for _ in range(dim))
            for _ in range(k)]))
    return out


def assert_ideal_checks_match(a, s):
    """is_subalgebra and is_ideal, which take either arity, against the
    naive loops over a's twists and basis tuples."""
    assert is_subalgebra(a, s) == closed_oracle(a.bracket, a.twists, s, False)
    assert is_ideal(a, s) == closed_oracle(a.bracket, a.twists, s, True)


@pytest.mark.parametrize("name", sorted(BINARY_CASES))
def test_binary_span_center_and_ideals_match_naive_loops(name):
    g = BINARY_CASES[name]()
    rng = random.Random(23)
    probes = probe_subspaces(g, rng)
    full = Subspace.full(g.dim)
    for s in probes:
        for other in (s, full, probes[-1]):
            assert g.bracket.span(s, other) == span_oracle(g.bracket, s, other)
            assert g.bracket.span(other, s) == span_oracle(g.bracket, other, s)
        assert_ideal_checks_match(g, s)
    assert binary_center(g) == center_oracle(g.bracket)
    assert binary_derived_series(g).terms == naive_series(
        g.bracket, full, lambda s: (s, s))
    assert binary_central_series(g).terms == naive_series(
        g.bracket, full, lambda s: (s, full))


@pytest.mark.parametrize("name", sorted(TERNARY_CASES))
def test_ternary_span_center_and_ideals_match_naive_loops(name):
    t = TERNARY_CASES[name]()
    rng = random.Random(29)
    probes = probe_subspaces(t, rng)
    full = Subspace.full(t.dim)
    a, b = probes[-1], probes[-2]
    for s in probes:
        for args in ((s, s, s), (s, full, full), (full, s, full),
                     (full, full, s), (s, a, b), (a, s, b), (a, b, s)):
            assert t.bracket.span(*args) == span_oracle(t.bracket, *args), args
        assert_ideal_checks_match(t, s)
    assert ternary_center(t) == center_oracle(t.bracket)
    assert derived_series(t).terms == naive_series(
        t.bracket, full, lambda s: (s, s, s))
    assert central_series(t).terms == naive_series(
        t.bracket, full, lambda s: (s, full, full))


def naive_series(bracket, start, args, rmax=12):
    """Terms of a series whose next term is span_oracle(*args(term)),
    up to stabilization."""
    terms = [start]
    while len(terms) <= rmax:
        terms.append(span_oracle(bracket, *args(terms[-1])))
        if terms[-1] == terms[-2]:
            break
    return tuple(terms)


def test_raw_brackets_tell_the_slots_apart():
    """On a skew bracket a slot permutation changes no span, so these pin
    that the raw cases can catch a contraction pairing the wrong slot."""
    g = raw_binary()
    e0 = Subspace.from_vectors(4, [unit_vec(4, 0)])
    full = Subspace.full(4)
    assert g.bracket.span(e0, full) != g.bracket.span(full, e0)
    t = raw_ternary()
    e2 = Subspace.from_vectors(4, [unit_vec(4, 2)])
    assert t.bracket.span(e2, full, full) != t.bracket.span(full, full, e2)
    assert t.bracket.span(full, e2, full) != t.bracket.span(full, full, e2)


def test_span_keeps_whole_space_slots_as_the_naive_loops_do(gl22_conjugate):
    """No full slot, one, two and all: a full slot's map only re-indexes,
    and with every slot full the span is that of the stored vectors.
    The raw brackets are not skew, so a full slot read in the wrong
    position would show."""
    rng = random.Random(31)
    cases = [("gl21", TERNARY_CASES["gl21"]().bracket),
             ("conjugate", TERNARY_CASES["conjugate"]().bracket),
             ("raw", raw_ternary().bracket), ("raw2", raw_binary().bracket),
             ("fractions2", fraction_bracket().bracket),
             ("gl21-2", BINARY_CASES["gl21"]().bracket),
             ("conjugate2", BINARY_CASES["conjugate"]().bracket),
             ("gl22-conjugate2", gl22_conjugate[0].bracket)]
    for name, b in cases:
        dim = b.space.dim
        full = Subspace.full(dim)
        small = [Subspace.from_vectors(dim, [
            tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                  for _ in range(dim)) for _ in range(k)])
            for k in (1, dim - 1)]
        counts = set()
        for mask in product((False, True), repeat=b.arity):
            for s in small:
                args = [full if m else s for m in mask]
                assert b.span(*args) == span_oracle(b, *args), (name, mask)
                counts.add(sum(mask))
        assert counts == set(range(b.arity + 1))
        assert b.span(*[full] * b.arity) == Subspace.from_vectors(
            dim, b.vectors().values())


def test_span_reorders_only_adjacent_whole_space_slots():
    """Full slots around a cut one on a super-skew bracket: swapping them
    moves each across the cut index, whose parity then enters the sign,
    so on a line mixing an even and an odd unit no single sign relates
    the two orders, and a span that read only one order would miss
    images."""
    t = TERNARY_CASES["gl21"]()
    dim = t.dim
    p = t.space.parities
    full = Subspace.full(dim)
    for i, j in product(range(dim), repeat=2):
        if p[i] < p[j]:
            s = Subspace.from_vectors(dim, [tuple(
                1 if k in (i, j) else 0 for k in range(dim))])
            args = (full, s, full)
            assert t.bracket.span(*args) == span_oracle(t.bracket, *args), (i, j)


def test_dense_gl22_conjugate_structure_answers(gl22_conjugate):
    """The north-star dimension, on the dense gl(2|2) conjugate: the
    representation check, both series, both centers and solvability."""
    lie, rep, t = gl22_conjugate
    assert verify_representation(rep).verdict == "pass"
    assert derived_series(t).dims() == (16, 15, 0, 0)
    assert central_series(t).dims() == (16, 15, 15)
    assert ternary_center(t).dim == 1
    assert binary_center(lie).dim == 1
    solv = verify_solvability_theorem(t)
    assert solv.verdict == "pass"
    assert solv.metrics["solvability_class"] == 2


def test_ideal_checks_see_both_outcomes():
    """The differential cases are not all True or all False."""
    g = BINARY_CASES["gl11"]()
    t = TERNARY_CASES["gl11"]()
    probes = probe_subspaces(g, random.Random(23))
    for a in (g, t):
        assert {is_ideal(a, s) for s in probes} == {True, False}


def test_wrong_ambient_dimension_raises():
    t = induced(glmn(2, 1))
    g = glmn(2, 1)[0]
    for bad in (Subspace.full(20), Subspace.full(3), Subspace.zero(3)):
        for a in (t, g):
            for run in (derived_series, central_series, is_ideal,
                        is_subalgebra):
                with pytest.raises(InputError):
                    run(a, bad)
        for run in (binary_derived_series, binary_central_series):
            with pytest.raises(InputError):
                run(g, bad)


def test_span_needs_one_subspace_per_slot():
    t = induced(glmn(2, 1))
    full = Subspace.full(t.dim)
    for args in ((), (full,), (full, full), (full,) * 4):
        with pytest.raises(InputError):
            t.bracket.span(*args)
    g = glmn(2, 1)[0]
    for args in ((full,), (full,) * 3):
        with pytest.raises(InputError):
            g.bracket.span(*args)


def filiform(n):
    """The n-dimensional filiform Lie algebra: [e1, e_i] = e_{i+1} for
    2 <= i < n, alpha = id, nilpotent of class n - 1."""
    sp = graded_space([f"e{i}" for i in range(1, n + 1)], [0] * n)
    coeffs = {(0, i): unit_vec(n, i + 1) for i in range(1, n - 1)}
    return HomLieSuper(sp, SuperBracket2.from_canonical(sp, coeffs),
                       identity_map(sp))


def test_default_bound_runs_a_long_series_to_its_end():
    # dimension 14: the central series falls one step at a time past a
    # bound of 12, and the default (ambient dimension + 1) sees it through
    g = filiform(14)
    res = binary_central_series(g)
    assert res.dims() == (14,) + tuple(range(12, -1, -1)) + (0,)
    assert res.stabilized and res.class_index == 13
    assert binary_central_series(g, rmax=15) == res
    short = binary_central_series(g, rmax=12)
    assert not short.stabilized and short.class_index is None


def test_series_bound_below_one_is_an_input_error():
    t = induced(glmn(2, 1))
    g = glmn(2, 1)[0]
    for rmax in (0, -1):
        for run, alg in ((derived_series, t), (central_series, t),
                         (binary_derived_series, g),
                         (binary_central_series, g)):
            with pytest.raises(InputError):
                run(alg, rmax=rmax)
