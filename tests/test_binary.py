"""Binary bracket axioms, negatives with pinned witnesses, twists, and
the basis transport of either arity."""

import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from homnambu.binary import (HomLieSuper, InputError, SuperBracket2,
                             change_of_basis, hom_jacobi_residual, is_ideal,
                             is_subalgebra, verify_hom_jacobi, verify_morphism,
                             verify_multiplicative, verify_skew, yau_twist)
from homnambu.fixtures import (conjugate_pair, gl11, gl11t, glmn,
                               matrix_units, neg_jacobi, neg_mult, neg_skew,
                               random_even_invertible)
from homnambu.formats import read_document
from homnambu.graded import (GradedMap, graded_space, identity_map,
                             skew_basis, tuple_parity)
from homnambu.linalg import (Matrix, PreconditionError, Subspace, frac,
                             integer_terms, is_zero_vec, slot_width, unit_vec,
                             vec_scale)
from homnambu.report import Report, fmt_vec
from homnambu.reps import TraceFunctional, trace_functional
from homnambu.ternary import TernaryHomLieSuper, induce_ternary

from oracles import change_of_basis_direct, rho_of_vector

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_all_fixtures_satisfy_binary_axioms(all_binary):
    for name, lie, _ in all_binary:
        assert verify_skew(lie).verdict == "pass", name
        assert verify_hom_jacobi(lie).verdict == "pass", name
        assert verify_multiplicative(lie).verdict == "pass", name


def test_gl11_structure_constants(g11):
    names = g11.space.names
    assert names == ("h1", "h2", "q", "p")
    assert g11.bracket.value(0, 2) == (0, 0, 1, 0)     # [h1,q] = q
    assert g11.bracket.value(0, 3) == (0, 0, 0, -1)    # [h1,p] = -p
    assert g11.bracket.value(2, 3) == (1, 1, 0, 0)     # [q,p] = h1+h2
    assert g11.bracket.value(2, 2) == (0, 0, 0, 0)
    # mirror entries carry the super sign: [q,h1] = -q, [p,q] = h1+h2
    assert g11.bracket.value(2, 0) == (0, 0, -1, 0)
    assert g11.bracket.value(3, 2) == (1, 1, 0, 0)


def test_neg_skew_witness():
    rep = verify_skew(neg_skew())
    assert rep.verdict == "fail"
    f = rep.findings[0]
    assert f.witness == ("q", "p")
    assert f.residual == ("2", "0", "0", "0")


def test_neg_jacobi_witness():
    rep = verify_hom_jacobi(neg_jacobi())
    assert rep.verdict == "fail"
    f = rep.findings[0]
    assert f.witness == ("q", "q", "p")
    assert f.residual == ("0", "0", "2", "0")


def test_neg_mult_witness():
    rep = verify_multiplicative(neg_mult())
    assert rep.verdict == "fail"
    assert rep.findings[0].witness == ("h1", "q")


def test_hom_jacobi_residual_is_super_symmetric_under_first_two(g11):
    # residual(x,y,z) + (-1)^{|x||y|} residual(y,x,z) = 0 by construction
    p = g11.space.parities
    for x in range(4):
        for y in range(4):
            for z in range(4):
                r1 = hom_jacobi_residual(g11, x, y, z)
                r2 = hom_jacobi_residual(g11, y, x, z)
                s = -1 if p[x] and p[y] else 1
                assert all(a + s * b == 0 for a, b in zip(r1, r2))


def hom_jacobi_oracle(a):
    """The report of hom_jacobi_residual, the naive Fraction evaluation,
    looped over every canonical triple: the oracle of the integer
    verify_hom_jacobi."""
    rep = Report("verify_hom_jacobi")
    names = a.space.names
    sb = skew_basis(3, a.space)
    for x, y, z in sb.tuples:
        resid = hom_jacobi_residual(a, x, y, z)
        if not is_zero_vec(resid):
            rep.fail("hom-jacobi", witness=(names[x], names[y], names[z]),
                     residual=tuple(fmt_vec(resid)))
    rep.metrics["triples_checked"] = len(sb.tuples)
    return rep


def seeded_fractional_algebra(seed):
    """A random bracket on a (3|2)-dimensional space with denominators 2
    and 3, twisted by a random even map with denominators 5 and 7."""
    rng = random.Random(seed)
    sp = graded_space(("a", "b", "c", "x", "y"), (0, 0, 0, 1, 1))
    p = sp.parities
    coeffs = {}
    for key in skew_basis(2, sp).tuples:
        if rng.random() < 0.7:
            want = tuple_parity(key, p)
            coeffs[key] = tuple(
                Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                if p[m] == want else 0 for m in range(sp.dim))
    bracket = SuperBracket2.from_canonical(sp, coeffs)
    alpha = Matrix.build([[Fraction(rng.randint(-4, 4), rng.choice((1, 5, 7)))
                           if p[i] == p[j] else 0 for j in range(sp.dim)]
                          for i in range(sp.dim)])
    return HomLieSuper(sp, bracket, GradedMap(sp, sp, alpha))


def broken_glmn_conjugate():
    """A gl(2|1) conjugate with one canonical structure vector tripled."""
    lie, _ = glmn(2, 1)
    conj = change_of_basis(lie, random_even_invertible(random.Random(23),
                                                       lie.space))
    coeffs = conj.bracket.canonical_coeffs()
    key = max(coeffs, key=lambda k: sum(x.denominator for x in coeffs[k]))
    bracket = conj.bracket.with_canonical(key, tuple(3 * x for x in coeffs[key]))
    return HomLieSuper(conj.space, bracket, conj.alpha)


def wide_slot_jacobi():
    """Slot-width probe: on twelve even elements every ordered [e_i, e_j]
    is K e_11, K = 10^12 + 1, and alpha sends e_9, e_10 and e_11 to
    g (e_0 + ... + e_11), g = 7^9 / 5, and the rest to 0: column sums of
    12 g, four times the row sums.  At (e_9, e_10, e_11) the three
    cyclic terms agree, so the residual is the whole bound of
    SuperBracket.join_width: a width from row sums, or one without its
    sign bit, misreads it."""
    n = 12
    sp = graded_space(tuple(f"e{i}" for i in range(n)), (0,) * n)
    g = Fraction(7 ** 9, 5)
    alpha = Matrix.build([[0] * (n - 3) + [g] * 3] * n)
    vectors = dict.fromkeys(product(range(n), repeat=2),
                            (0,) * (n - 1) + (10 ** 12 + 1,))
    return HomLieSuper(sp, SuperBracket2.from_vectors(sp, vectors),
                       GradedMap(sp, sp, alpha))


def test_wide_slot_jacobi_needs_column_sums_and_the_sign_bit():
    a = wide_slot_jacobi()
    da, rows = integer_terms(a.alpha.matrix.entries)
    dw = a.bracket.integer[0]
    top = max(r * da * dw * dw for key in skew_basis(3, a.space).tuples
              for r in hom_jacobi_residual(a, *key))
    width = a.bracket.join_width((rows,), 3)
    # a signed slot of one bit less holds nothing above 2^(width - 2) - 1
    assert top >= 1 << (width - 2)
    # nor does one sized from the twist's largest row sum, 3 7^9
    row_width = slot_width(3 * (10 ** 12 + 1) ** 2 * 3 * 7 ** 9)
    assert top >= 1 << (row_width - 1)


@pytest.mark.parametrize("build", [
    neg_jacobi, lambda: gl11t()[0], lambda: seeded_fractional_algebra(24),
    broken_glmn_conjugate, wide_slot_jacobi],
    ids=["neg_jacobi", "gl11t", "seeded", "conjugate", "wide-slot"])
def test_hom_jacobi_matches_the_fraction_oracle(build):
    a = build()
    want = hom_jacobi_oracle(a)
    assert verify_hom_jacobi(a).render() == want.render()
    if a.space.dim > 4:
        assert want.verdict == "fail"
        assert any("/" in r for f in want.findings for r in f.residual)


def test_from_canonical_rejects_parity_breaking_values():
    sp = graded_space(("e", "x"), (0, 1))
    with pytest.raises(InputError):
        # [e,x] must be odd, so an e component is illegal
        SuperBracket2.from_canonical(sp, {(0, 1): (1, 0)})


def test_from_canonical_rejects_non_canonical_keys():
    sp = graded_space(("e", "x"), (0, 1))
    with pytest.raises(InputError):
        SuperBracket2.from_canonical(sp, {(1, 0): (0, 1)})


def test_identity_morphism_and_projection_negative(g11):
    ident = identity_map(g11.space)
    assert verify_morphism(ident, g11, g11).verdict == "pass"
    proj = GradedMap(g11.space, g11.space,
                     Matrix.build([[1, 0, 0, 0], [0, 1, 0, 0],
                                   [0, 0, 0, 0], [0, 0, 0, 0]]))
    rep = verify_morphism(proj, g11, g11)
    assert rep.verdict == "fail"
    assert rep.findings[0].witness == ("q", "p")


def test_yau_twist_stays_hom_lie(g11):
    rng = random.Random(21)
    for _ in range(10):
        s = random_even_invertible(rng, g11.space)
        a = GradedMap(g11.space, g11.space, s)
        if verify_morphism(a, g11, g11).verdict != "pass":
            continue
        tw = yau_twist(g11, a)
        assert verify_skew(tw).verdict == "pass"
        assert verify_hom_jacobi(tw).verdict == "pass"
        assert verify_multiplicative(tw).verdict == "pass"


def test_yau_twist_requires_morphism(g11):
    bad = GradedMap(g11.space, g11.space,
                    Matrix.build([[0, 1, 0, 0], [1, 0, 0, 0],
                                  [0, 0, 1, 0], [0, 0, 0, 1]]))
    with pytest.raises(Exception):
        yau_twist(g11, bad)


def test_yau_twist_of_non_jacobi_algebra_names_the_witness():
    # identity is a morphism of anything, so only the Jacobi check can catch
    # this; it must survive python -O, unlike an assert
    lie = neg_jacobi()
    with pytest.raises(PreconditionError, match=r"Hom-Jacobi at \(q,q,p\)"):
        yau_twist(lie, identity_map(lie.space))


def test_change_of_basis_preserves_axioms(g11):
    rng = random.Random(22)
    for _ in range(10):
        s = random_even_invertible(rng, g11.space)
        conj = change_of_basis(g11, s)
        assert verify_skew(conj).verdict == "pass"
        assert verify_hom_jacobi(conj).verdict == "pass"


def diagonal_alpha(lie, m, n):
    """E_ij -> (d_i / d_j) E_ij on gl(m|n), d = 2, 3, 5, 7: an even
    automorphism with denominators."""
    d = (2, 3, 5, 7)
    scale = [Fraction(d[i], d[j]) for i, j in matrix_units(m, n)]
    return GradedMap(lie.space, lie.space, Matrix.build(
        [[scale[r] if r == c else 0 for c in range(lie.dim)]
         for r in range(lie.dim)]))


def transport_cases():
    """(name, algebra) for the differential tests of the integer basis
    transport: gl(1|1), gl(2|1) and gl(2|2), a Yau twist of each, and two
    brackets that are not super-skew, built with with_entry."""
    yield "gl11", gl11()[0]
    yield "gl11t", gl11t()[0]
    for m, n in ((2, 1), (2, 2)):
        lie = glmn(m, n)[0]
        yield f"gl{m}{n}", lie
        yield f"gl{m}{n}t", yau_twist(lie, diagonal_alpha(lie, m, n))
    yield "neg_skew", neg_skew()
    lie = glmn(2, 1)[0]
    odd = lie.space.parities.index(1)
    yield "gl21-with-entry", HomLieSuper(lie.space, lie.bracket.with_entry(
        0, odd, tuple(Fraction(k + 1, 3) if lie.space.parities[k] else 0
                      for k in range(lie.dim))), lie.alpha)


def ternary_transport_cases():
    """(name, algebra) for the differential tests of the transport on
    ternary algebras: induced gl(2|1), its diagonal Yau twist and a dense
    conjugate, the two-twist gl(1|1) document, whose two twists both
    move, and induced gl(2|1) with one ordering of one structure vector
    doubled by with_entry, which is not super-skew."""
    lie, rep = glmn(2, 1)
    tau = trace_functional(rep)
    t = induce_ternary(lie, tau, lie.alpha, lie.alpha)
    yield "gl21", t
    twisted = yau_twist(lie, diagonal_alpha(lie, 2, 1))
    yield "gl21t", induce_ternary(twisted, TraceFunctional(twisted, tau.values),
                                  twisted.alpha, twisted.alpha)
    conj, crep = conjugate_pair(lie, rep, random_even_invertible(
        random.Random(1), lie.space))
    yield "gl21c", induce_ternary(conj, trace_functional(crep), conj.alpha,
                                  conj.alpha)
    yield "gl11_two_twists", read_document(
        FIXTURES / "gl11_two_twists.json").ternary
    key, value = next(iter(t.bracket.vectors().items()))
    yield "gl21-with-entry", TernaryHomLieSuper(
        t.space, t.bracket.with_entry(*key, vec_scale(2, value)), t.alpha1,
        t.alpha2)


def assert_same_algebra(got, want, name):
    """Records of one type with equal brackets (values and least D) of
    one class, the same key order and super_skew flag, and the same
    twists."""
    assert type(got) is type(want), name
    assert type(got.bracket) is type(want.bracket), name
    assert got == want, name
    assert got.bracket.integer[0] == want.bracket.integer[0], name
    assert list(got.bracket.integer[1]) == list(want.bracket.integer[1]), name
    assert got.bracket.super_skew is want.bracket.super_skew, name
    assert got.twists == want.twists, name


def test_change_of_basis_matches_the_fraction_oracle():
    # the integer transport against s^-1 [s e_i1, .., s e_in] in Fractions,
    # on binary and ternary algebras, under three seeded dense conjugators
    # each; a bracket that is not super-skew stays so
    cases = [*transport_cases(), *ternary_transport_cases()]
    assert {lie.bracket.arity for _, lie in cases} == {2, 3}
    assert not dict(cases)["gl21-with-entry"].bracket.super_skew
    assert not dict(cases)["gl11_two_twists"].same_twists()
    for name, lie in cases:
        for seed in range(3):
            s = random_even_invertible(random.Random(seed), lie.space)
            got = change_of_basis(lie, s)
            assert_same_algebra(got, change_of_basis_direct(lie, s),
                                (name, seed))
            assert got.bracket.super_skew is lie.bracket.super_skew


def test_yau_twist_matches_the_fraction_oracle():
    # alpha applied to the integer structure vectors against alpha applied
    # to each Fraction vector
    g11 = gl11()[0]
    cases = [(g11, gl11t()[0].alpha)]
    cases += [(lie, diagonal_alpha(lie, m, n))
              for m, n in ((2, 1), (2, 2)) for lie in [glmn(m, n)[0]]]
    for lie, alpha in cases:
        vectors = {key: alpha.apply(v)
                   for key, v in lie.bracket.vectors().items()}
        want = HomLieSuper(lie.space, SuperBracket2.from_vectors(
            lie.space, {k: v for k, v in vectors.items()
                        if not is_zero_vec(v)}), alpha)
        assert_same_algebra(yau_twist(lie, alpha), want, lie.dim)


def test_conjugate_pair_carries_rho_by_linearity():
    for lie, rep in (gl11(), gl11t(), glmn(2, 1)):
        s = random_even_invertible(random.Random(4), lie.space)
        lie2, rep2 = conjugate_pair(lie, rep, s)
        assert lie2 == change_of_basis(lie, s)
        assert rep2.matrices == tuple(
            GradedMap(rep.module_space, rep.module_space,
                      rho_of_vector(rep, s.col(j)), lie.space.parities[j])
            for j in range(lie.dim))


def test_change_of_basis_refuses_a_singular_or_parity_mixing_matrix(g11):
    singular = Matrix.build([[1, 1, 0, 0], [1, 1, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 1]])
    mixing = Matrix.build([[1, 0, 1, 0], [0, 1, 0, 0],
                           [0, 0, 1, 0], [0, 0, 0, 1]])
    for transport in (change_of_basis, change_of_basis_direct):
        with pytest.raises(PreconditionError, match="singular"):
            transport(g11, singular)
        with pytest.raises(PreconditionError, match="must be even"):
            transport(g11, mixing)


def test_ideal_and_subalgebra(g11):
    full = Subspace.full(4)
    d1 = g11.bracket.span(full, full)
    # [g,g] = span{h1+h2, q, p}
    assert d1.dim == 3
    assert d1.contains((1, 1, 0, 0))
    assert is_ideal(g11, d1)
    assert is_subalgebra(g11, d1)
    span_q = Subspace.from_vectors(4, [unit_vec(4, 2)])
    assert is_subalgebra(g11, span_q)      # [q,q] = 0
    assert not is_ideal(g11, span_q)       # [q,p] escapes
