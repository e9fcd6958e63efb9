"""graded.compat_residuals, the one residual of f[e_I] = [f e_i1, ..., f e_in],
against the five loops it replaced; verify_representation and verify_skew
against their former loops.

The oracles below are those loops, kept as they were: each evaluates in
Fractions, and the compat loops read every column of the map inside the
loop.  The findings of the package's checks must equal theirs in full
(check names, witnesses in order, residuals), and yau_twist must raise the
same message, on failing inputs.
"""

import random
from fractions import Fraction

import pytest

from homnambu.binary import (HomLieSuper, verify_morphism,
                             verify_multiplicative, verify_skew, yau_twist)
from homnambu.fixtures import (conjugate_pair, glmn, gl11, induced_gl11,
                               neg_mult, neg_rep, neg_skew, neg_ternary_mult,
                               random_even_invertible)
from homnambu.graded import (GradedMap, identity_map, parity_law_violations,
                             skew_basis)
from homnambu.linalg import (InputError, Matrix, PreconditionError, invert,
                             is_zero_vec, vec_add, vec_scale)
from homnambu.report import Report, fmt_scalar, fmt_vec
from homnambu.reps import (Representation, trace_functional,
                           verify_representation)
from homnambu.ternary import (TernaryHomLieSuper, induce_ternary,
                              verify_induced_homomorphism,
                              verify_ternary_multiplicative)


def skew_oracle(a):
    rep = Report("verify_skew")
    sp = a.space
    for i in range(sp.dim):
        for j in range(i, sp.dim):
            sign = 1 if (sp.parities[i] and sp.parities[j]) else -1
            resid = vec_add(a.bracket.value(i, j),
                            vec_scale(-sign, a.bracket.value(j, i)))
            if not is_zero_vec(resid):
                rep.fail("skew", witness=(sp.names[i], sp.names[j]),
                         residual=tuple(fmt_vec(resid)))
            want = (sp.parities[i] + sp.parities[j]) % 2
            bad = parity_law_violations(sp, a.bracket.value(i, j), want)
            if bad:
                rep.fail("parity-law", witness=(sp.names[i], sp.names[j]),
                         detail=f"output hits {bad}")
    rep.metrics["pairs_checked"] = sp.dim * (sp.dim + 1) // 2
    return rep


def multiplicative_oracle(a):
    rep = Report("verify_multiplicative")
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = a.alpha.apply(a.bracket.value(i, j))
            rhs = a.bracket.eval_vectors(a.alpha.column(i), a.alpha.column(j))
            resid = vec_add(lhs, vec_scale(-1, rhs))
            if not is_zero_vec(resid):
                rep.fail("multiplicative",
                         witness=(a.space.names[i], a.space.names[j]),
                         residual=tuple(fmt_vec(resid)))
    return rep


def morphism_oracle(f, a, b):
    rep = Report("verify_morphism")
    if f.domain != a.space or f.codomain != b.space:
        raise InputError("morphism endpoints do not match the algebras")
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = f.apply(a.bracket.value(i, j))
            rhs = b.bracket.eval_vectors(f.column(i), f.column(j))
            resid = vec_add(lhs, vec_scale(-1, rhs))
            if not is_zero_vec(resid):
                rep.fail("bracket-compat",
                         witness=(a.space.names[i], a.space.names[j]),
                         residual=tuple(fmt_vec(resid)))
    lhs = f.matrix.mul(a.alpha.matrix)
    rhs = b.alpha.matrix.mul(f.matrix)
    if lhs != rhs:
        for j in range(a.dim):
            resid = vec_add(lhs.col(j), vec_scale(-1, rhs.col(j)))
            if not is_zero_vec(resid):
                rep.fail("twist-compat", witness=(a.space.names[j],),
                         residual=tuple(fmt_vec(resid)))
    return rep


def yau_precondition_oracle(lie, morphism):
    """The message yau_twist raised for a non-morphism, or None."""
    for i in range(lie.dim):
        for j in range(lie.dim):
            lhs = morphism.apply(lie.bracket.value(i, j))
            rhs = lie.bracket.eval_vectors(morphism.column(i), morphism.column(j))
            if lhs != rhs:
                return (f"twisting map is not a morphism at "
                        f"({lie.space.names[i]},{lie.space.names[j]})")
    return None


def ternary_multiplicative_oracle(t):
    rep = Report("verify_ternary_multiplicative")
    a = t.alpha1
    for key in skew_basis(3, t.space).tuples:
        i, j, k = key
        lhs = a.apply(t.bracket.value(i, j, k))
        rhs = t.bracket.eval_vectors(a.column(i), a.column(j), a.column(k))
        resid = vec_add(lhs, vec_scale(-1, rhs))
        if not is_zero_vec(resid):
            rep.fail("ternary-multiplicative",
                     witness=(t.space.names[i], t.space.names[j], t.space.names[k]),
                     residual=tuple(fmt_vec(resid)))
    return rep


def ternary_compat_oracle(f, g1, t1, t2):
    """The ternary-bracket-compat loop of verify_induced_homomorphism."""
    rep = Report("verify_induced_homomorphism")
    for key in skew_basis(3, g1.space).tuples:
        i, j, k = key
        lhs = f.apply(t1.bracket.value(i, j, k))
        rhs = t2.bracket.eval_vectors(f.column(i), f.column(j), f.column(k))
        resid = vec_add(lhs, vec_scale(-1, rhs))
        if not is_zero_vec(resid):
            rep.fail("ternary-bracket-compat",
                     witness=(g1.space.names[i], g1.space.names[j], g1.space.names[k]),
                     residual=tuple(fmt_vec(resid)))
    return rep


def representation_oracle(r):
    rep = Report("verify_representation")
    g = r.algebra
    beta = r.beta.matrix

    def sub(a, b):
        return a.add(b.scale(-1))

    def cells(m):
        return tuple(fmt_scalar(x) for i in range(m.rows) for x in m.row(i))

    for i in range(g.dim):
        lhs = r.rho_of_vector(g.alpha.column(i)).mul(beta)
        rhs = beta.mul(r.rho_matrix(i))
        diff = sub(lhs, rhs)
        if not diff.is_zero():
            rep.fail("axiom-1", witness=(g.space.names[i],), residual=cells(diff))
    p = g.space.parities
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = r.rho_of_vector(g.bracket.value(i, j)).mul(beta)
            sign = -1 if (p[i] and p[j]) else 1
            rhs = sub(r.rho_of_vector(g.alpha.column(i)).mul(r.rho_matrix(j)),
                      r.rho_of_vector(g.alpha.column(j)).mul(r.rho_matrix(i)).scale(sign))
            diff = sub(lhs, rhs)
            if not diff.is_zero():
                rep.fail("axiom-2", witness=(g.space.names[i], g.space.names[j]),
                         residual=cells(diff))
    rep.metrics["module_dim"] = r.module_space.dim
    return rep


def random_maps(space, seed, count):
    rng = random.Random(seed)
    return [GradedMap(space, space, random_even_invertible(rng, space))
            for _ in range(count)]


def stale_binary_mirrors():
    """Raw with_entry patches of gl(1|1) with denominators: [h1,q] given a
    mirror of twice its size, [q,p] a stale mirror, and [h1,p] an even
    component that breaks the parity law."""
    g, _ = gl11()
    half = Fraction(1, 2)
    b = g.bracket.with_entry(0, 2, (0, 0, Fraction(1, 3), 0))
    b = b.with_entry(2, 0, (0, 0, Fraction(2, 3), 0))
    b = b.with_entry(2, 3, (half, half, 0, 0))
    b = b.with_entry(0, 3, (Fraction(1, 5), 0, 0, -1))
    return HomLieSuper(g.space, b, g.alpha)


def test_skew_matches_old_loop():
    lie, _ = glmn(2, 1)
    checks = set()
    for a, fails in ((neg_skew(), True), (stale_binary_mirrors(), True),
                     (lie, False)):
        want = skew_oracle(a)
        assert want.ok != fails
        assert verify_skew(a) == want
        checks.update(x.check for x in want.findings)
    assert checks == {"skew", "parity-law"}


def test_multiplicative_matches_old_loop():
    lie, _ = glmn(2, 1)
    cases = [neg_mult()] + [HomLieSuper(lie.space, lie.bracket, a)
                            for a in random_maps(lie.space, 40, 3)]
    for a in cases:
        want = multiplicative_oracle(a)
        assert want.verdict == "fail"
        assert verify_multiplicative(a) == want


def test_morphism_matches_old_loop():
    g, _ = gl11()
    m, _ = glmn(2, 1)
    swap = neg_mult().alpha
    proj = GradedMap(g.space, g.space, Matrix.build(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
    twisted = HomLieSuper(g.space, g.bracket, swap)
    cases = [(swap, g, g), (proj, g, g), (identity_map(g.space), g, twisted),
             (swap, twisted, g)]
    cases += [(f, g, g) for f in random_maps(g.space, 41, 4)]
    cases += [(f, m, m) for f in random_maps(m.space, 42, 2)]
    # denominators in the map and in both brackets: e'_j = s e_j carries
    # the conjugate onto gl(1|1) and s^-1 back, each up to the scalar
    s = random_even_invertible(random.Random(48), g.space)
    conj, _ = conjugate_pair(g, gl11()[1], s)
    cases += [(GradedMap(g.space, g.space, s.scale(Fraction(1, 2))), conj, g),
              (GradedMap(g.space, g.space, invert(s).scale(Fraction(2, 3))),
               g, conj)]
    checks = set()
    for f, a, b in cases:
        want = morphism_oracle(f, a, b)
        assert want.verdict == "fail"
        assert verify_morphism(f, a, b) == want
        checks.update(x.check for x in want.findings)
    assert checks == {"bracket-compat", "twist-compat"}


def test_yau_twist_refuses_a_non_morphism_with_the_old_message():
    g, _ = gl11()
    m, _ = glmn(2, 1)
    cases = [(g, neg_mult().alpha)] + [(g, f) for f in random_maps(g.space, 43, 4)]
    cases += [(m, f) for f in random_maps(m.space, 44, 2)]
    for lie, f in cases:
        want = yau_precondition_oracle(lie, f)
        assert want is not None
        with pytest.raises(PreconditionError) as err:
            yau_twist(lie, f)
        assert str(err.value) == want


def test_ternary_multiplicative_matches_old_loop():
    lie, rep = glmn(2, 1)
    t = induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)
    cases = [neg_ternary_mult()] + [
        TernaryHomLieSuper(t.space, t.bracket, a, a)
        for a in random_maps(t.space, 45, 2)]
    # a fractional twist on the induced bracket of a conjugate (D = 192)
    conj = conjugate_pair(lie, rep, random_even_invertible(random.Random(49),
                                                           lie.space))
    tc = induce_ternary(conj[0], trace_functional(conj[1]), lie.alpha, lie.alpha)
    cases += [TernaryHomLieSuper(tc.space, tc.bracket, a, a)
              for a in (GradedMap(tc.space, tc.space, m.matrix.scale(
                  Fraction(1, 3))) for m in random_maps(tc.space, 50, 1))]
    for tt in cases:
        want = ternary_multiplicative_oracle(tt)
        assert want.verdict == "fail"
        assert verify_ternary_multiplicative(tt) == want


def test_induced_homomorphism_reports_a_perturbed_target_bracket():
    """The only way past the binary, trace and twist checks to the
    ternary-bracket-compat loop: the same binary side, a different target
    ternary bracket."""
    g, rep = gl11()
    tau = trace_functional(rep)
    t = induced_gl11()
    m, mrep = glmn(2, 1)
    mtau = trace_functional(mrep)
    mt = induce_ternary(m, mtau, m.alpha, m.alpha)
    cases = [(g, tau, t, t.bracket.with_canonical((0, 2, 3), (2, 2, 0, 0))),
             (g, tau, t, t.bracket.with_entry(0, 2, 3, (1, 0, 0, 0))),
             (m, mtau, mt, mt.bracket.with_canonical(
                 min(mt.bracket.canonical_coeffs()), (0,) * m.dim))]
    for lie, tv, t1, bracket in cases:
        f = identity_map(lie.space)
        t2 = TernaryHomLieSuper(t1.space, bracket, t1.alpha1, t1.alpha2)
        want = ternary_compat_oracle(f, lie, t1, t2)
        assert want.verdict == "fail"
        got = verify_induced_homomorphism(f, lie, tv, t1, lie, tv, t2)
        assert got == want


def test_representation_matches_old_loop():
    g, rep = gl11()
    m, mrep = glmn(2, 1)
    cases = [neg_rep()]
    for lie, r, seed in ((g, rep, 46), (m, mrep, 47)):
        for beta in random_maps(r.module_space, seed, 2):
            cases.append(Representation(lie, r.module_space, r.matrices, beta))
        for alpha in random_maps(lie.space, seed + 10, 1):
            twisted = HomLieSuper(lie.space, lie.bracket, alpha)
            cases.append(Representation(twisted, r.module_space, r.matrices,
                                        r.beta))
    checks = set()
    for r in cases:
        want = representation_oracle(r)
        assert want.verdict == "fail"
        assert verify_representation(r) == want
        checks.update(x.check for x in want.findings)
    assert checks == {"axiom-1", "axiom-2"}
