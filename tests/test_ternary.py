"""Ternary brackets and the trace-induced construction."""

import random
from fractions import Fraction
from itertools import product

import pytest

from homnambu.binary import verify_morphism
from homnambu.fixtures import (alpha_t, conjugate_gl11, gl11, gl11t,
                               induced_gl11, neg_nambu, neg_ternary_mult,
                               neg_ternary_skew, random_even_invertible)
from homnambu.graded import GradedMap, identity_map, skew_basis, tuple_parity
from homnambu.linalg import InputError, Matrix, Subspace, frac, unit_vec
from homnambu.report import fmt_vec
from homnambu.reps import trace_functional
from homnambu.ternary import (SuperBracket3, TernaryHomLieSuper,
                              check_twist_commutes, hom_nambu_residual_direct,
                              ideal_criterion, induce_ternary,
                              ternary_is_ideal, ternary_is_subalgebra,
                              verify_hom_nambu, verify_induced_homomorphism,
                              verify_ternary_multiplicative,
                              verify_ternary_skew)


def induced_value_oracle(g, tau, x, y, z):
    """The defining combination, written out independently:

    [x,y,z] = tau(x)[y,z] - (-1)^{|x||y|} tau(y)[x,z]
              + (-1)^{|z|(|x|+|y|)} tau(z)[x,y]
    """
    p = g.space.parities
    s2 = -1 if p[x] and p[y] else 1
    s3 = -1 if p[z] and (p[x] + p[y]) % 2 else 1
    tx, ty, tz = tau.of_basis(x), tau.of_basis(y), tau.of_basis(z)
    out = [Fraction(0)] * g.dim
    for m in range(g.dim):
        out[m] += tx * g.bracket.value(y, z)[m]
        out[m] -= s2 * ty * g.bracket.value(x, z)[m]
        out[m] += s3 * tz * g.bracket.value(x, y)[m]
    return tuple(out)


def test_induced_gl11_matches_oracle_on_all_triples(g11, tau11, t11):
    for x in range(4):
        for y in range(4):
            for z in range(4):
                assert t11.bracket.value(x, y, z) == \
                    induced_value_oracle(g11, tau11, x, y, z), (x, y, z)


def test_induced_gl11_canonical_table(t11):
    assert t11.bracket.canonical_coeffs() == {
        (0, 2, 3): (1, 1, 0, 0),
        (1, 2, 3): (-1, -1, 0, 0),
    }


def test_induced_gl11_passes_all_ternary_verifiers(t11):
    assert verify_ternary_skew(t11).verdict == "pass"
    assert verify_hom_nambu(t11).verdict == "pass"
    assert verify_ternary_multiplicative(t11).verdict == "pass"


def test_all_fixture_inductions_verify(all_binary):
    for name, lie, rep in all_binary:
        tau = trace_functional(rep)
        t = induce_ternary(lie, tau, lie.alpha, lie.alpha)
        assert verify_ternary_skew(t).verdict == "pass", name
        assert verify_hom_nambu(t).verdict == "pass", name
        assert verify_ternary_multiplicative(t).verdict == "pass", name


def test_ternary_negatives():
    rep = verify_ternary_skew(neg_ternary_skew())
    assert rep.verdict == "fail"
    assert rep.findings[0].witness == ("h1", "q", "p")
    rep = verify_hom_nambu(neg_nambu())
    assert rep.verdict == "fail"
    assert rep.findings[0].witness == ("h1", "q", "q", "p", "p")
    assert verify_ternary_multiplicative(neg_ternary_mult()).verdict == "fail"


def test_neg_nambu_still_skew():
    assert verify_ternary_skew(neg_nambu()).verdict == "pass"


def test_hom_nambu_residual_direct_zero_on_induced(t11):
    rng = random.Random(41)
    for _ in range(30):
        args = [rng.randrange(4) for _ in range(5)]
        resid = hom_nambu_residual_direct(t11, *args)
        assert all(c == 0 for c in resid), args


def induced_gl11t2():
    lie, rep = gl11t()
    return induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)


def induced_gl11_mixed_twists():
    t = induced_gl11()
    return TernaryHomLieSuper(t.space, t.bracket, identity_map(t.space),
                              alpha_t(t.space, 2))


def broken(t):
    """t with [h1,q,p] = h1 in every order.

    Induced gl(1|1) brackets land in the center h1 + h2, which tau kills,
    so every term of the identity vanishes on them; h1 is not central, so
    here every term, and every twisted slot, is live.
    """
    b = t.bracket.with_canonical((0, 2, 3), (1, 0, 0, 0))
    return TernaryHomLieSuper(t.space, b, t.alpha1, t.alpha2)


def broken_gl11t2():
    return broken(induced_gl11t2())


def broken_mixed_twists():
    return broken(induced_gl11_mixed_twists())


def random_bracket_two_twists():
    """A seeded random canonical bracket on the gl(1|1) space that obeys the
    parity law, with two distinct random even invertible twists.

    Unlike the induced cases, no term of the identity vanishes by
    construction, and each twist enters its own slots.
    """
    rng = random.Random(98)
    sp = gl11()[0].space
    p = sp.parities
    coeffs = {key: tuple(Fraction(rng.randint(-2, 2))
                         if p[o] == tuple_parity(key, p) else Fraction(0)
                         for o in range(sp.dim))
              for key in skew_basis(3, sp).tuples}
    a1 = GradedMap(sp, sp, random_even_invertible(rng, sp))
    a2 = GradedMap(sp, sp, random_even_invertible(rng, sp))
    assert a1 != a2
    return TernaryHomLieSuper(sp, SuperBracket3.from_canonical(sp, coeffs),
                              a1, a2)


def direct_violations(t, a1, a2):
    """(witness, residual) of every nonzero oracle residual, in loop order."""
    names = t.space.names
    out = []
    for tup in product(range(t.dim), repeat=5):
        resid = hom_nambu_residual_direct(t, *tup, a1=a1, a2=a2)
        if any(c != 0 for c in resid):
            out.append((tuple(names[i] for i in tup), tuple(fmt_vec(resid))))
    return out


@pytest.mark.parametrize("build", [induced_gl11t2, neg_nambu,
                                   induced_gl11_mixed_twists, broken_gl11t2,
                                   broken_mixed_twists,
                                   random_bracket_two_twists])
def test_verify_hom_nambu_matches_direct_oracle_on_every_tuple(build):
    t = build()
    want = direct_violations(t, t.alpha1, t.alpha2)
    rep = verify_hom_nambu(t)
    found = [(f.witness, f.residual) for f in rep.findings
             if f.check == "hom-nambu"]
    truncated = [f for f in rep.findings if f.check == "hom-nambu-truncated"]
    total = int(truncated[0].detail.split()[0]) if truncated else len(found)
    assert total == len(want)
    assert found == want[:16]
    assert rep.verdict == ("fail" if want else "pass")
    # the swapped placement only shows through the disagreement note
    swapped = direct_violations(t, t.alpha2, t.alpha1)
    disagree = any(f.check == "placement-disagreement" for f in rep.findings)
    assert disagree == (bool(want) != bool(swapped))


def test_hom_nambu_residual_direct_sees_the_break():
    t = neg_nambu()
    resid = hom_nambu_residual_direct(t, 0, 2, 2, 3, 3)
    assert any(c != 0 for c in resid)


def test_random_conjugates_stay_hom_nambu():
    rng = random.Random(42)
    for _ in range(15):
        lie, rep = conjugate_gl11(rng)
        tau = trace_functional(rep)
        t = induce_ternary(lie, tau, lie.alpha, lie.alpha)
        assert verify_ternary_skew(t).verdict == "pass"
        assert verify_hom_nambu(t).verdict == "pass"
        assert verify_ternary_multiplicative(t).verdict == "pass"


def test_induce_rejects_foreign_tau(g11):
    from homnambu.fixtures import aff1
    from homnambu.linalg import PreconditionError
    from homnambu.reps import TraceFunctional
    ga, _ = aff1()
    foreign = TraceFunctional(ga, (1, 0))
    with pytest.raises(PreconditionError):
        induce_ternary(g11, foreign, g11.alpha, g11.alpha)


def test_from_canonical_ternary_parity_guard():
    t = induced_gl11()
    sp = t.space
    with pytest.raises(InputError):
        # (h1,q,p) is even, so a q component breaks the parity law
        SuperBracket3.from_canonical(sp, {(0, 2, 3): (0, 0, 1, 0)})


def test_ternary_subalgebra_and_ideal(t11):
    center = Subspace.from_vectors(4, [(1, 1, 0, 0)])
    assert ternary_is_subalgebra(t11, center)
    assert ternary_is_ideal(t11, center)
    span_q = Subspace.from_vectors(4, [unit_vec(4, 2)])
    assert ternary_is_subalgebra(t11, span_q)
    assert not ternary_is_ideal(t11, span_q)


def test_ideal_criterion_on_derived(g11, tau11, t11):
    from homnambu.binary import derived_subspace
    full = Subspace.full(4)
    j = derived_subspace(g11, full, full)
    assert ideal_criterion(g11, tau11, j, t11).verdict == "pass"


def test_induced_homomorphism_identity(g11, tau11, t11):
    rep = verify_induced_homomorphism(identity_map(g11.space),
                                      g11, tau11, t11, g11, tau11, t11)
    assert rep.verdict == "pass"


def test_check_twist_commutes(g11, tau11):
    from homnambu.fixtures import alpha_t
    rep = check_twist_commutes(g11, alpha_t(g11.space, Fraction(3)), tau11)
    assert rep.verdict == "pass"
