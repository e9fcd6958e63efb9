"""Ternary brackets and the trace-induced construction."""

import random
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from homnambu import cli, ternary
from homnambu.binary import (HomLieSuper, SuperBracket2, is_ideal,
                             is_subalgebra, verify_hom_jacobi,
                             verify_morphism, verify_multiplicative,
                             verify_skew, yau_twist)
from homnambu.fixtures import (alpha_t, central_twist, conjugate_gl11,
                               conjugate_pair, gl11, gl11t, glmn, induced_gl11,
                               matrix_units, neg_nambu, neg_skew,
                               neg_ternary_mult, neg_ternary_skew,
                               random_even_invertible)
from homnambu.graded import (GradedMap, canonicalize, graded_space,
                             identity_map, skew_basis, tuple_parity)
from homnambu.linalg import (InputError, Matrix, Subspace, frac, is_zero_vec,
                             slot_width, unit_vec, vec_add, vec_scale)
from homnambu.report import Report, fmt_vec
from homnambu.reps import TraceFunctional, trace_functional, trace_mismatches
from homnambu.ternary import (SuperBracket3, TernaryHomLieSuper,
                              _hom_nambu_join, _integer_tables, _join,
                              _orbit_join, check_twist_commutes, hom_nambu_residual_direct,
                              ideal_criterion, induce_ternary,
                              verify_hom_nambu, verify_induced_homomorphism,
                              verify_ternary_multiplicative,
                              verify_ternary_skew)

from oracles import parity_law_violations, skew_oracle


def induced_value_oracle(g, tau, x, y, z):
    """The defining combination, written out independently:

    [x,y,z] = tau(x)[y,z] - (-1)^{|x||y|} tau(y)[x,z]
              + (-1)^{|z|(|x|+|y|)} tau(z)[x,y]
    """
    p = g.space.parities
    s2 = -1 if p[x] and p[y] else 1
    s3 = -1 if p[z] and (p[x] + p[y]) % 2 else 1
    tx, ty, tz = tau.values[x], tau.values[y], tau.values[z]
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


@pytest.mark.parametrize("case", ["gl11t", "conj"])
def test_induced_bracket_matches_oracle_on_all_triples(case):
    """The same oracle on a Yau twist, whose trace functional has two
    nonzero values, and on a dense conjugate, where every bracket is a
    combination of all four basis elements."""
    lie, rep = gl11t() if case == "gl11t" else conjugate_gl11(random.Random(3))
    tau = trace_functional(rep)
    t = induce_ternary(lie, tau, lie.alpha, lie.alpha)
    for x, y, z in product(range(lie.dim), repeat=3):
        assert t.bracket.value(x, y, z) == \
            induced_value_oracle(lie, tau, x, y, z), (case, x, y, z)


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


def central_twisted(m, n):
    """The algebra induced from gl(m|n) with alpha = central_twist(m, n) in
    both slots: id + lambda(.) I, no Yau twist, and tau o alpha = tau."""
    lie, rep = glmn(m, n)
    alpha = central_twist(m, n)
    twisted = HomLieSuper(lie.space, lie.bracket, alpha)
    tau = TraceFunctional(twisted, trace_functional(rep).values)
    return induce_ternary(twisted, tau, alpha, alpha)


def central_gl11():
    return central_twisted(1, 1)


def broken_central_gl11():
    return broken(central_gl11())


def one_sided_central_gl11():
    """alpha1 = id and alpha2 = central_twist(1, 1): the full join."""
    t = central_gl11()
    return TernaryHomLieSuper(t.space, t.bracket, identity_map(t.space),
                              t.alpha2)


def broken_one_sided_central_gl11():
    return broken(one_sided_central_gl11())


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


def random_fraction_bracket_two_twists():
    """Like random_bracket_two_twists, but the structure constants have
    denominators 2 and 3 and the twists denominators 5 and 7, so clearing
    them scales every residual by a nontrivial D_W^2 D1 D2."""
    rng = random.Random(99)
    sp = gl11()[0].space
    p = sp.parities
    coeffs = {key: tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                         if p[o] == tuple_parity(key, p) else Fraction(0)
                         for o in range(sp.dim))
              for key in skew_basis(3, sp).tuples}

    def twist(den):
        m = Matrix.build([[Fraction(rng.randint(-2, 2), rng.choice((1, den)))
                           if p[i] == p[j] else 0 for j in range(sp.dim)]
                          for i in range(sp.dim)])
        return GradedMap(sp, sp, m)

    return TernaryHomLieSuper(sp, SuperBracket3.from_canonical(sp, coeffs),
                              twist(5), twist(7))


def wide_slot_nambu():
    """Slot-width probe: on four even elements a, b, c, d every ordered
    [e_i, e_j, e_k] is K d, K = (10^12 + 1)/3, and both twists send d to
    11 (a + b + c + d) and a, b, c to 0: a column sum of 44, row sums of
    11.
    At (a, a, d, d, d) the left side is zero and the three right-hand
    terms agree, so the residual is -3/4 of the bound of
    SuperBracket.join_width, and it is the tenth violation reported: a
    width from row sums, or one without its sign bit, misreads it."""
    sp = graded_space(("a", "b", "c", "d"), (0, 0, 0, 0))
    k = Fraction(10 ** 12 + 1, 3)
    twist = GradedMap(sp, sp, Matrix.build([[0, 0, 0, 11]] * 4))
    vectors = dict.fromkeys(product(range(4), repeat=3), (0, 0, 0, k))
    return TernaryHomLieSuper(sp, SuperBracket3.from_vectors(sp, vectors),
                              twist, twist)


def test_wide_slot_nambu_needs_column_sums_and_the_sign_bit():
    t = wide_slot_nambu()
    scale, found = _hom_nambu_join(t, t.alpha1, t.alpha2)
    low = min(r for _, resid in found for r in resid)
    width = _integer_tables(t, t.alpha1, t.alpha2)[1][0]
    # a signed slot of one bit less holds nothing below -2^(width - 2)
    assert low < -(1 << (width - 2))
    # nor does one sized from the twists' largest row sum, 11
    entries = [abs(x) for terms in t.bracket.integer[1].values()
               for _, x in terms]
    row_width = slot_width(4 * max(entries) ** 2 * 11 ** 2)
    assert low < -(1 << (row_width - 1))


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
                                   random_bracket_two_twists,
                                   random_fraction_bracket_two_twists,
                                   central_gl11, broken_central_gl11,
                                   one_sided_central_gl11,
                                   broken_one_sided_central_gl11,
                                   wide_slot_nambu])
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
    assert is_subalgebra(t11, center)
    assert is_ideal(t11, center)
    span_q = Subspace.from_vectors(4, [unit_vec(4, 2)])
    assert is_subalgebra(t11, span_q)
    assert not is_ideal(t11, span_q)


def test_ideal_criterion_on_derived(g11, tau11, t11):
    full = Subspace.full(4)
    j = g11.bracket.span(full, full)
    assert ideal_criterion(g11, tau11, j, t11).verdict == "pass"


def test_induced_homomorphism_identity(g11, tau11, t11):
    rep = verify_induced_homomorphism(identity_map(g11.space),
                                      g11, tau11, t11, g11, tau11, t11)
    assert rep.verdict == "pass"


def test_check_twist_commutes(g11, tau11):
    from homnambu.fixtures import alpha_t
    rep = check_twist_commutes(g11, alpha_t(g11.space, Fraction(3)), tau11)
    assert rep.verdict == "pass"


def test_trace_compatibility_failures(g11, tau11, t11):
    # 2 * id moves tau at h1 and h2, where tau does not vanish:
    # check_twist_commutes names the first, verify_induced_homomorphism all
    two = GradedMap(g11.space, g11.space, Matrix.identity(4).scale(2), 0)
    rep = check_twist_commutes(g11, two, tau11)
    assert not rep.applicable
    assert [f.detail for f in rep.findings] == \
        ["tau o morphism differs from tau at h1"]
    tau2 = TraceFunctional(g11, tuple(2 * x for x in tau11.values))
    rep = verify_induced_homomorphism(identity_map(g11.space),
                                      g11, tau11, t11, g11, tau2, t11)
    assert [(f.check, f.witness) for f in rep.findings] == \
        [("trace-compat", ("h1",)), ("trace-compat", ("h2",))]


def dense_skew_findings(t):
    """The skew and parity-law findings of a loop over all dim^3 triples:
    the oracle of the sparse verify_ternary_skew."""
    rep = Report("verify_ternary_skew")
    sp = t.space
    p = sp.parities
    for i, j, k in product(range(sp.dim), repeat=3):
        names = (sp.names[i], sp.names[j], sp.names[k])
        v = t.bracket.value(i, j, k)
        s12 = 1 if (p[i] and p[j]) else -1
        r12 = vec_add(v, vec_scale(-s12, t.bracket.value(j, i, k)))
        if not is_zero_vec(r12):
            rep.fail("skew-12", witness=names, residual=tuple(fmt_vec(r12)))
        s23 = 1 if (p[j] and p[k]) else -1
        r23 = vec_add(v, vec_scale(-s23, t.bracket.value(i, k, j)))
        if not is_zero_vec(r23):
            rep.fail("skew-23", witness=names, residual=tuple(fmt_vec(r23)))
        bad = parity_law_violations(sp, v, (p[i] + p[j] + p[k]) % 2)
        if bad:
            rep.fail("parity-law", witness=names,
                     detail=f"output hits {bad[0]}")
    return rep.findings


def stale_mirrors():
    """A raw with_entry patch of three orderings; their mirrors go stale.
    (0, 1, 2) was zero, so (0, 2, 1) fails skew-23 with no stored entry of
    its own and none from a swap of its first two slots."""
    t = induced_gl11()
    b = t.bracket.with_entry(1, 3, 2, (0, 3, 0, 0)).with_entry(
        3, 2, 2, (1, 0, 0, 0)).with_entry(0, 1, 2, (0, 0, 1, 0))
    return TernaryHomLieSuper(t.space, b, t.alpha1, t.alpha2)


def parity_breaker():
    """[h1,q,p] given an odd q component in every ordering."""
    t = induced_gl11()
    sp = t.space
    b = t.bracket
    for order in permutations((0, 2, 3)):
        sign = canonicalize(order, sp.parities)[1]
        v = b.value(*order)
        b = b.with_entry(*order, (v[0], v[1], v[2] + sign, v[3]))
    return TernaryHomLieSuper(sp, b, t.alpha1, t.alpha2)


def doubled_mirror():
    """[h1,q,p] given denominators, and its mirror [q,h1,p] stored as 2x
    the entry: neither equal nor negated, so only a residual sees it."""
    t = induced_gl11()
    b = t.bracket.with_canonical((0, 2, 3), (Fraction(1, 3), Fraction(2, 7), 0, 0))
    b = b.with_entry(2, 0, 3, tuple(2 * x for x in b.value(0, 2, 3)))
    return TernaryHomLieSuper(t.space, b, t.alpha1, t.alpha2)


def raw_skew_cases():
    """(arity, case, algebra) of brackets built by from_vectors from the
    stored vectors of gl(1|1) and its induced bracket: one stale mirror,
    one key that repeats the even h1, and a parity-law breach."""
    g, _ = gl11()
    sp = g.space
    v = g.bracket.vectors()
    for case, vectors in (
            ("stale", {**v, (2, 0): (0, 0, 2, 0)}),
            ("even-repeat", {**v, (0, 0): (0, 1, 0, 0)}),
            ("parity", {**v, (2, 3): (1, 1, 1, 0), (3, 2): (1, 1, 1, 0)})):
        yield 2, case, HomLieSuper(
            sp, SuperBracket2.from_vectors(sp, vectors), g.alpha)
    t = induced_gl11()
    v = t.bracket.vectors()
    odd = {}
    for order in permutations((0, 2, 3)):
        w = v[order]
        odd[order] = (w[0], w[1], w[2] + canonicalize(order, sp.parities)[1],
                      w[3])
    for case, vectors in (("stale", {**v, (1, 3, 2): (0, 3, 0, 0)}),
                          ("even-repeat", {**v, (0, 0, 2): (0, 0, 1, 0)}),
                          ("parity", {**v, **odd})):
        yield 3, case, TernaryHomLieSuper(
            sp, SuperBracket3.from_vectors(sp, vectors), t.alpha1, t.alpha2)


def test_raw_brackets_keep_their_skew_findings():
    """Brackets from from_vectors give the findings the raw constructor
    of the dense Fraction entries gave, pinned in full; the ternary ones
    also match the dense loop."""
    want = {
        (2, "stale"): [("skew", ("h1", "q"), ("0", "0", "3", "0"), None)],
        (2, "even-repeat"): [("skew", ("h1", "h1"), ("0", "2", "0", "0"), None)],
        (2, "parity"): [("parity-law", ("q", "p"), None, "output hits ['q']")],
        (3, "stale"): [
            ("skew-23", ("h2", "q", "p"), ("-1", "-4", "0", "0"), None),
            ("skew-12", ("h2", "p", "q"), ("1", "4", "0", "0"), None),
            ("skew-23", ("h2", "p", "q"), ("1", "4", "0", "0"), None),
            ("skew-12", ("p", "h2", "q"), ("1", "4", "0", "0"), None)],
        (3, "even-repeat"): [
            ("skew-12", ("h1", "h1", "q"), ("0", "0", "2", "0"), None),
            ("skew-23", ("h1", "h1", "q"), ("0", "0", "1", "0"), None),
            ("skew-23", ("h1", "q", "h1"), ("0", "0", "1", "0"), None)],
        (3, "parity"): [("parity-law", w, None, "output hits q") for w in (
            ("h1", "q", "p"), ("h1", "p", "q"), ("q", "h1", "p"),
            ("q", "p", "h1"), ("p", "h1", "q"), ("p", "q", "h1"))],
    }
    for arity, case, a in raw_skew_cases():
        assert not a.bracket.super_skew, (arity, case)
        rep = verify_skew(a) if arity == 2 else verify_ternary_skew(a)
        got = [(f.check, f.witness, f.residual, f.detail) for f in rep.findings]
        assert got == want[arity, case], (arity, case)
        if arity == 3:
            assert rep.findings == dense_skew_findings(a)


def test_binary_skew_matches_the_dense_pair_loop():
    """verify_skew, which formats the bracket's skew walk on the pairs
    i <= j, against the Fraction loop over every such pair, finding for
    finding, on the binary raw cases and neg_skew."""
    cases = [a for arity, _, a in raw_skew_cases() if arity == 2]
    for a in cases + [neg_skew()]:
        rep = verify_skew(a)
        assert rep.findings and rep.findings == skew_oracle(a).findings


@pytest.mark.parametrize("build", [induced_gl11, neg_ternary_skew,
                                   stale_mirrors, parity_breaker, neg_nambu,
                                   doubled_mirror])
def test_sparse_ternary_skew_matches_dense_loop(build):
    t = build()
    findings = verify_ternary_skew(t).findings
    assert findings == dense_skew_findings(t)
    if build in (neg_ternary_skew, stale_mirrors, doubled_mirror):
        assert {f.check for f in findings} >= {"skew-12", "skew-23"}
    if build is parity_breaker:
        assert [f.check for f in findings] == ["parity-law"] * 6


def test_glmn_11_is_gl11_up_to_names():
    lie, rep = glmn(1, 1)
    lie0, rep0 = gl11()
    assert lie.space.names == ("E0_0", "E1_1", "E0_1", "E1_0")
    assert lie.space.parities == lie0.space.parities
    assert lie.bracket.integer == lie0.bracket.integer
    assert lie.alpha.matrix == lie0.alpha.matrix
    assert rep.module_space == rep0.module_space
    assert rep.beta == rep0.beta
    assert [(m.matrix, m.parity) for m in rep.matrices] == \
        [(m.matrix, m.parity) for m in rep0.matrices]
    assert trace_functional(rep).values == trace_functional(rep0).values


# --- the north-star ladder: gl(2|1) and gl(2|2) ---------------------------


def induced_glmn(m, n):
    lie, rep = glmn(m, n)
    return induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)


def doubled_first(t):
    """t with its first nonzero canonical coefficient doubled, mirrors
    included: skew survives, Hom-Nambu does not."""
    coeffs = t.bracket.canonical_coeffs()
    key = min(coeffs)
    b = t.bracket.with_canonical(key, tuple(2 * c for c in coeffs[key]))
    return TernaryHomLieSuper(t.space, b, t.alpha1, t.alpha2)


def twisted_gl21():
    """The Yau twist of gl(2|1) along E_ij -> (d_i / d_j) E_ij, d = (3, 1, 2),
    induced from the untwisted supertrace; alpha has denominators 2 and 3."""
    lie, rep = glmn(2, 1)
    d = (3, 1, 2)
    alpha = GradedMap(lie.space, lie.space, Matrix.build(
        [[Fraction(d[i], d[j]) if r == c else 0 for c in range(lie.dim)]
         for r, (i, j) in enumerate(matrix_units(2, 1))]))
    twisted = yau_twist(lie, alpha)
    tau = TraceFunctional(twisted, trace_functional(rep).values)
    return induce_ternary(twisted, tau, alpha, alpha)


def broken_gl21():
    return doubled_first(induced_glmn(2, 1))


def broken_twisted_gl21():
    return doubled_first(twisted_gl21())


def hom_nambu_total(rep):
    notes = [f for f in rep.findings if f.check == "hom-nambu-truncated"]
    if notes:
        return int(notes[0].detail.split()[0])
    return sum(1 for f in rep.findings if f.check == "hom-nambu")


def test_gl21_broken_copy_pinned():
    rep = verify_hom_nambu(broken_gl21())
    assert rep.metrics["tuples_checked"] == 9 ** 5
    assert hom_nambu_total(rep) == 816
    first = rep.findings[0]
    assert first.witness == ("E0_0", "E1_1", "E0_0", "E0_1", "E1_0")
    assert first.residual == ("2", "-2", "0", "0", "0", "0", "0", "0", "0")


@pytest.mark.parametrize("build", [broken_gl21, broken_twisted_gl21])
def test_gl21_reported_residuals_match_direct_oracle(build):
    t = build()
    index = {name: i for i, name in enumerate(t.space.names)}
    rep = verify_hom_nambu(t)
    found = [f for f in rep.findings if f.check == "hom-nambu"]
    assert len(found) == 16
    for f in found:
        resid = hom_nambu_residual_direct(t, *(index[n] for n in f.witness))
        assert f.residual == tuple(fmt_vec(resid)), f.witness


@pytest.mark.parametrize("build", [broken_gl21, broken_twisted_gl21])
def test_gl21_join_matches_direct_oracle_on_seeded_tuples(build):
    # the oracle on all 9^5 tuples takes seconds, so it runs on 500 of them:
    # half drawn uniformly, half from the join's own violations
    t = build()
    scale, found = _hom_nambu_join(t, t.alpha1, t.alpha2)
    joined = {tup: resid for tup, resid in found}
    rng = random.Random(7)
    tuples = [tuple(rng.randrange(t.dim) for _ in range(5))
              for _ in range(250)]
    tuples += rng.sample(sorted(joined), 250)
    for tup in tuples:
        resid = hom_nambu_residual_direct(t, *tup)
        if tup in joined:
            assert resid == tuple(Fraction(r, scale) for r in joined[tup])
            assert not is_zero_vec(resid), tup
        else:
            assert is_zero_vec(resid), tup


def test_gl22_passes_and_its_broken_copy_fails():
    t = induced_glmn(2, 2)
    rep = verify_hom_nambu(t)
    assert rep.verdict == "pass"
    assert rep.metrics["tuples_checked"] == 16 ** 5
    rep = verify_hom_nambu(doubled_first(t))
    assert rep.verdict == "fail"
    assert hom_nambu_total(rep) == 2040


def test_gl22_central_twist_verdicts():
    """alpha = id + lambda(.) I on gl(2|2): Hom-Jacobi and tau-invariant but
    not multiplicative, on both sides; Hom-Nambu holds with alpha in both
    slots (the orbit join) and with alpha2 alone (the full join)."""
    lie, rep = glmn(2, 2)
    alpha = central_twist(2, 2)
    twisted = HomLieSuper(lie.space, lie.bracket, alpha)
    assert trace_mismatches(trace_functional(rep), alpha) == ()
    assert verify_skew(twisted).verdict == "pass"
    assert verify_hom_jacobi(twisted).verdict == "pass"
    assert verify_multiplicative(twisted).verdict == "fail"
    t = central_twisted(2, 2)
    assert verify_ternary_skew(t).verdict == "pass"
    assert verify_ternary_multiplicative(t).verdict == "fail"
    one_sided = TernaryHomLieSuper(t.space, t.bracket, lie.alpha, alpha)
    for u in (t, one_sided):
        report = verify_hom_nambu(u)
        assert report.verdict == "pass"
        assert report.metrics["tuples_checked"] == 16 ** 5
        assert report.findings == []


# --- the join over canonical orbits ----------------------------------------


def induced_conjugate(m, n, seed):
    """The algebra induced from the conjugate of gl(m|n) along the dense
    random_even_invertible draw of random.Random(seed)."""
    lie, rep = glmn(m, n)
    s = random_even_invertible(random.Random(seed), lie.space)
    lie, rep = conjugate_pair(lie, rep, s)
    return induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)


def induced_conjugate_gl11(seed):
    lie, rep = conjugate_gl11(random.Random(seed))
    return induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)


def rank_one_twisted_gl21(c):
    """gl(2|1) with alpha_c = c id + (1 - c) tau(.) I, I the identity
    matrix: Hom-Jacobi and tau-invariant for every c, and no Yau twist,
    so every twisted slot of the identity is live."""
    lie, rep = glmn(2, 1)
    tau = trace_functional(rep)
    eye = [1 if i == j else 0 for i, j in matrix_units(2, 1)]
    alpha = GradedMap(lie.space, lie.space, Matrix.build(
        [[c * (r == k) + (1 - c) * tau.values[k] * eye[r]
          for k in range(lie.dim)] for r in range(lie.dim)]))
    twisted = HomLieSuper(lie.space, lie.bracket, alpha)
    return induce_ternary(twisted, TraceFunctional(twisted, tau.values),
                          alpha, alpha)


def both_joins(t):
    """(orbit violations, full violations) of t's identity, each a list."""
    scale, tables = _integer_tables(t, t.alpha1, t.alpha2)
    return list(_orbit_join(t, *tables)), list(_join(t, *tables))


ORBIT_CASES = {
    "gl11": induced_gl11,
    "gl11t2": induced_gl11t2,
    "gl11-conj-3": lambda: induced_conjugate_gl11(3),
    "gl11-conj-5": lambda: induced_conjugate_gl11(5),
    "neg_nambu": neg_nambu,
    "gl21": lambda: induced_glmn(2, 1),
    "gl21-twisted": twisted_gl21,
    "gl21-conj": lambda: induced_conjugate(2, 1, 1),
    "gl21-conj-broken": lambda: doubled_first(induced_conjugate(2, 1, 1)),
    "gl21-broken": broken_gl21,
    "gl21-broken-twisted": broken_twisted_gl21,
    "gl22-broken": lambda: doubled_first(induced_glmn(2, 2)),
    "gl21-rank-one-twist": lambda: rank_one_twisted_gl21(Fraction(-1, 3)),
    "gl21-rank-one-twist-broken":
        lambda: doubled_first(rank_one_twisted_gl21(2)),
    "gl11-central-twist": central_gl11,
    "gl11-central-twist-broken": broken_central_gl11,
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_join_matches_full_join(case):
    t = ORBIT_CASES[case]()
    assert t.same_twists() and t.bracket.super_skew
    orbit, full = both_joins(t)
    # the total, and every witness and residual in order, the first 16
    # (the reported ones) among them
    assert len(orbit) == len(full)
    assert orbit == full
    if "broken" in case or case == "neg_nambu":
        assert full
    else:
        assert not full


def even_repeat():
    """[h1,h1,q] stored in one ordering: an even index repeats, so only
    zero is skew there."""
    t = induced_gl11()
    b = t.bracket.with_entry(0, 0, 2, (0, 0, 1, 0))
    return TernaryHomLieSuper(t.space, b, t.alpha1, t.alpha2)


def missing_ordering():
    """One ordering of [h1,q,p] dropped; the rest stay consistent."""
    t = induced_gl11()
    b = t.bracket.with_entry(2, 0, 3, (0, 0, 0, 0))
    return TernaryHomLieSuper(t.space, b, t.alpha1, t.alpha2)


@pytest.mark.parametrize("build", [induced_gl11, induced_gl11t2,
                                   neg_ternary_skew, stale_mirrors,
                                   parity_breaker, neg_nambu, doubled_mirror,
                                   neg_ternary_mult, even_repeat,
                                   missing_ordering, random_bracket_two_twists,
                                   random_fraction_bracket_two_twists,
                                   twisted_gl21, broken_gl21])
def test_super_skew_predicate_matches_the_skew_check(build):
    t = build()
    rep = verify_ternary_skew(t)
    assert t.bracket.super_skew == (rep.verdict == "pass")
    assert t.bracket.super_skew == (not dense_skew_findings(t))
    if build in (neg_ternary_skew, stale_mirrors, parity_breaker,
                 doubled_mirror, even_repeat, missing_ordering):
        assert not t.bracket.super_skew


def test_super_skew_predicate_on_every_induced_fixture(all_binary):
    for name, lie, rep in all_binary:
        t = induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)
        assert t.bracket.super_skew, name
        assert verify_ternary_skew(t).findings == dense_skew_findings(t) == []


def unskewed_nambu():
    """neg_nambu with one ordering of [h1,q,p] patched alone: alpha1 =
    alpha2, but the bracket is no longer skew."""
    t = neg_nambu()
    b = t.bracket.with_entry(2, 0, 3, (1, 0, 0, 0))
    return TernaryHomLieSuper(t.space, b, t.alpha1, t.alpha2)


@pytest.mark.parametrize("build", [unskewed_nambu, parity_breaker,
                                   induced_gl11_mixed_twists,
                                   random_bracket_two_twists,
                                   broken_one_sided_central_gl11])
def test_gate_sends_the_rest_to_the_full_join(build, monkeypatch):
    t = build()
    assert not (t.same_twists() and t.bracket.super_skew)

    def refuse(*args):
        raise AssertionError("the orbit join ran")

    monkeypatch.setattr(ternary, "_orbit_join", refuse)
    want = direct_violations(t, t.alpha1, t.alpha2)
    rep = verify_hom_nambu(t)
    found = [(f.witness, f.residual) for f in rep.findings
             if f.check == "hom-nambu"]
    assert hom_nambu_total(rep) == len(want)
    assert found == want[:16]
    if build in (unskewed_nambu, parity_breaker):
        assert want


def test_induced_algebras_never_take_the_full_join(all_binary, monkeypatch,
                                                  tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("the full join ran")

    monkeypatch.setattr(ternary, "_join", refuse)
    algebras = [induce_ternary(lie, trace_functional(rep), lie.alpha,
                               lie.alpha) for _, lie, rep in all_binary]
    algebras += [induced_conjugate_gl11(3), induced_glmn(2, 1),
                 twisted_gl21(), induced_conjugate(2, 1, 1), neg_nambu(),
                 broken_gl21()]
    for t in algebras:
        verify_hom_nambu(t)
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    out = str(tmp_path / "induced.json")
    assert cli.main(["induce", str(fixtures / "gl11.json"), "-o", out]) == 0
    assert cli.main(["check", "ternary", out]) == 0
    assert cli.main(["check", "ternary",
                     str(fixtures / "neg_nambu.json")]) == 1
    capsys.readouterr()


def test_dense_gl22_conjugate_passes(gl22_conjugate):
    t = gl22_conjugate[2]
    rep = verify_hom_nambu(t)
    assert rep.verdict == "pass"
    assert rep.metrics["tuples_checked"] == 16 ** 5


def test_broken_dense_gl21_conjugate_total_matches_full_join():
    t = doubled_first(induced_conjugate(2, 1, 1))
    orbit, full = both_joins(t)
    assert len(orbit) == len(full) == 5010
    assert hom_nambu_total(verify_hom_nambu(t)) == 5010
