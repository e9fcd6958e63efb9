"""graded.compat_residuals, the one residual of f[e_I] = [f e_i1, ..., f e_in],
against the five loops it replaced; verify_representation, verify_skew,
the induced bracket and induce_cocycle against their former loops.

The oracles below, and oracles.skew_oracle, are those loops, kept as
they were: each evaluates in Fractions, and the compat loops read every
column of the map inside the loop.  The findings of the package's checks
must equal theirs in full (check names, witnesses in order, residuals),
yau_twist must raise the same message, on failing inputs, and the
integer induction must build the same brackets and cochains, entry for
entry and in the same order.
"""

import random
from fractions import Fraction

import pytest

from itertools import permutations, product

from homnambu.binary import (HomLieSuper, verify_morphism,
                             verify_multiplicative, verify_skew, yau_twist)
from homnambu.cohomology import (binary_pair_eval, cochain_keys,
                                 cochain_length, cocycles, induce_cocycle,
                                 make_cochain)
from homnambu.fixtures import (a0, aff1, conjugate_gl11, conjugate_pair, glmn,
                               gl11, gl11t, induced_gl11, matrix_units,
                               neg_mult, neg_rep, neg_skew, neg_ternary_mult,
                               random_even_invertible)
from homnambu.graded import GradedMap, canonicalize, identity_map, skew_basis
from homnambu.linalg import (InputError, Matrix, PreconditionError, invert,
                             is_zero_vec, vec, vec_add, vec_scale)
from homnambu.report import Report, fmt_scalar, fmt_vec
from homnambu.reps import (Representation, adjoint_representation,
                           trace_functional, verify_representation)
from homnambu.ternary import (SuperBracket3, TernaryHomLieSuper,
                              induce_ternary, verify_induced_homomorphism,
                              verify_ternary_multiplicative)

from oracles import parity_law_violations, rho_of_vector, skew_oracle


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
        lhs = rho_of_vector(r, g.alpha.column(i)).mul(beta)
        rhs = beta.mul(r.rho_matrix(i))
        diff = sub(lhs, rhs)
        if not diff.is_zero():
            rep.fail("axiom-1", witness=(g.space.names[i],), residual=cells(diff))
    p = g.space.parities
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = rho_of_vector(r, g.bracket.value(i, j)).mul(beta)
            sign = -1 if (p[i] and p[j]) else 1
            rhs = sub(rho_of_vector(r, g.alpha.column(i)).mul(r.rho_matrix(j)),
                      rho_of_vector(r, g.alpha.column(j)).mul(r.rho_matrix(i)).scale(sign))
            diff = sub(lhs, rhs)
            if not diff.is_zero():
                rep.fail("axiom-2", witness=(g.space.names[i], g.space.names[j]),
                         residual=cells(diff))
    rep.metrics["module_dim"] = r.module_space.dim
    return rep


def fraction_induce(tau, phi, keys):
    """The tau-combination TraceFunctional.induce summed in Fractions, phi
    returning dense vectors; {key: value} for the nonzero values."""
    p = tau.algebra.space.parities
    tv = tau.values
    out = {}
    for key in keys:
        x1, x2, k = key
        s12 = -1 if (p[x1] and p[x2]) else 1
        s3 = -1 if (p[k] and (p[x1] ^ p[x2])) else 1
        v = None
        for c, i, j in ((tv[x1], x2, k), (-s12 * tv[x2], x1, k),
                        (s3 * tv[k], x1, x2)):
            if c:
                w = vec_scale(c, phi(i, j))
                v = w if v is None else vec_add(v, w)
        if v is not None and not is_zero_vec(v):
            out[key] = v
    return out


def fraction_fill_vectors(space, coeffs):
    """Every ordering of each nonzero canonical vector, with its
    canonicalize sign, filled in in Fractions as from_canonical did before
    it read integers: {ordered key: vector}."""
    p = space.parities
    entries = {}
    for key, value in coeffs.items():
        v = vec(value)
        if is_zero_vec(v):
            continue
        neg = tuple(-c for c in v)
        for order in dict.fromkeys(permutations(key)):
            entries[order] = v if canonicalize(order, p)[1] == 1 else neg
    return entries


def fraction_fill(space, coeffs, cls=SuperBracket3):
    """The raw bracket of fraction_fill_vectors, through from_vectors."""
    return cls.from_vectors(space, fraction_fill_vectors(space, coeffs))


def fraction_induced_bracket(lie, tau):
    return fraction_fill(lie.space, fraction_induce(
        tau, lie.bracket.value, skew_basis(3, lie.space).tuples))


def induce_cocycle_oracle(g, tau, phi):
    """The induced cochain as induce_cocycle built it in Fractions."""
    scalar = phi.complex == "binary-scalar"
    out_cx = "ternary-scalar" if scalar else "ternary-adjoint"

    def ev(i, j):
        v = binary_pair_eval(phi, i, j)
        return (v,) if scalar else v

    keys = cochain_keys(out_cx, 2, g.space)
    rho = fraction_induce(tau, ev, ((x1, x2, k) for (x1, x2), k in keys))
    values = {((x1, x2), k): v[0] if scalar else v
              for (x1, x2, k), v in rho.items()}
    return make_cochain(out_cx, 2, g.space, values, parity=phi.parity)


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


def diagonal_twist_gl21():
    """gl(2|1) Yau-twisted by E_ij -> (d_i / d_j) E_ij, d = (2, 3, 5), so
    alpha has denominators, and the diagonal D = diag(d) on the module."""
    lie, rep = glmn(2, 1)
    d = (2, 3, 5)
    alpha = GradedMap(lie.space, lie.space, Matrix.build(
        [[Fraction(d[i], d[j]) if r == c else 0 for c in range(lie.dim)]
         for r, (i, j) in enumerate(matrix_units(2, 1))]))
    diag = GradedMap(rep.module_space, rep.module_space, Matrix.build(
        [[d[r] if r == c else 0 for c in range(3)] for r in range(3)]))
    return yau_twist(lie, alpha), rep, diag


def doubled_beta(r, k=0):
    """r with beta doubled on module basis vector k."""
    n = r.module_space.dim
    double = Matrix.build([[(2 if i == k else 1) if i == j else 0
                            for j in range(n)] for i in range(n)])
    beta = GradedMap(r.module_space, r.module_space, r.beta.matrix.mul(double))
    return Representation(r.algebra, r.module_space, r.matrices, beta)


def test_representation_matches_old_loop_at_gl22_and_with_denominators(
        gl22_conjugate):
    """Both verdicts, on the dense gl(2|2) conjugate, gl(2|1) twisted by
    an alpha with denominators, and adjoint representations."""
    lie, rep, _ = gl22_conjugate
    twisted, trep, diag = diagonal_twist_gl21()
    conj21 = conjugate_pair(*glmn(2, 1), random_even_invertible(
        random.Random(51), glmn(2, 1)[0].space))
    cases = [rep, doubled_beta(rep),
             Representation(twisted, trep.module_space, trep.matrices, diag),
             doubled_beta(Representation(twisted, trep.module_space,
                                         trep.matrices, diag), 2),
             adjoint_representation(twisted),
             doubled_beta(adjoint_representation(twisted), 3),
             adjoint_representation(conj21[0]),
             adjoint_representation(conjugate_gl11(random.Random(52))[0])]
    verdicts = []
    for r in cases:
        want = representation_oracle(r)
        assert verify_representation(r) == want
        verdicts.append(want.verdict)
    assert verdicts == ["pass", "fail", "fail", "fail", "pass", "fail",
                        "pass", "pass"]


def induction_cases(gl22_conjugate):
    """(name, lie, tau): every shipped algebra, conjugates of gl(1|1) and
    gl(2|1), gl(2|1), gl(2|2) and the dense gl(2|2) conjugate."""
    cases = [(name, *ctor()) for name, ctor in (
        ("a0", a0), ("aff1", aff1), ("gl11", gl11), ("gl11t", gl11t),
        ("gl11-conj", lambda: conjugate_gl11(random.Random(53))),
        ("gl21", lambda: glmn(2, 1)),
        ("gl21-conj", lambda: conjugate_pair(*glmn(2, 1), random_even_invertible(
            random.Random(54), glmn(2, 1)[0].space))),
        ("gl22", lambda: glmn(2, 2)))]
    cases.append(("gl22-conj", *gl22_conjugate[:2]))
    return [(name, lie, trace_functional(rep)) for name, lie, rep in cases]


def test_induced_bracket_matches_fraction_induction(gl22_conjugate):
    """The bracket, its integer view and the view's order, against the
    Fraction induction and fill."""
    for name, lie, tau in induction_cases(gl22_conjugate):
        got = induce_ternary(lie, tau, lie.alpha, lie.alpha).bracket
        want = fraction_induced_bracket(lie, tau)
        assert got == want, name
        assert got.integer[0] == want.integer[0], name
        assert list(got.integer[1].items()) == list(want.integer[1].items())


def assert_values_match_fill(bracket, vectors, name):
    """value() at every ordered key and the nested table against the
    Fraction vectors of a fill."""
    dim = bracket.space.dim
    zero = (Fraction(0),) * dim
    table = bracket.table
    for idx in product(range(dim), repeat=bracket.arity):
        want = vectors.get(idx, zero)
        assert bracket.value(*idx) == want, (name, idx)
        cell = table
        for i in idx:
            cell = cell[i]
        assert cell == want, (name, idx)


def test_values_and_table_match_the_fraction_fill(gl22_conjugate):
    """value() and table read off the integer view give the vectors the
    Fraction fill stores: the binary bracket from its canonical
    coefficients, the induced one from the Fraction induction."""
    for name, lie, tau in induction_cases(gl22_conjugate):
        assert_values_match_fill(lie.bracket, fraction_fill_vectors(
            lie.space, lie.bracket.canonical_coeffs()), name)
        t = induce_ternary(lie, tau, lie.alpha, lie.alpha)
        assert_values_match_fill(t.bracket, fraction_fill_vectors(
            lie.space, fraction_induce(tau, lie.bracket.value,
                                       skew_basis(3, lie.space).tuples)), name)


def test_constructors_agree_on_the_least_view():
    """from_canonical, from_vectors and from_integer on the same values,
    with denominators, a common factor to cancel and a zero value, compare
    equal and hold the same integer view, D least."""
    rng = random.Random(55)
    sp = gl11()[0].space
    p = sp.parities
    coeffs = {key: tuple(Fraction(2 * rng.randint(-3, 3), rng.choice((1, 3, 9)))
                         if p[o] == sum(p[i] for i in key) % 2 else 0
                         for o in range(sp.dim))
              for key in skew_basis(3, sp).tuples}
    coeffs[(0, 1, 2)] = (0, 0, 0, 0)
    got = SuperBracket3.from_canonical(sp, coeffs)
    want = fraction_fill(sp, coeffs)
    d = 2 * want.integer[0]  # not least: from_integer must reduce it
    ints = {key: tuple((m, int(d * x)) for m, x in enumerate(vec(v)) if x)
            for key, v in coeffs.items()}
    assert ints[(0, 1, 2)] == ()
    made = SuperBracket3.from_integer(sp, d, ints)
    for b in (got, made):
        assert b == want and b.integer[0] == want.integer[0] == 9
        assert list(b.integer[1].items()) == list(want.integer[1].items())
    # d = 6 is not the least denominator of 4/6, 2/6: D = 3
    b = SuperBracket3.from_integer(sp, 6, {(0, 2, 3): ((0, 4), (1, 2))})
    assert b.integer == (3, {(0, 2, 3): ((0, 2), (1, 1)),
                             (0, 3, 2): ((0, 2), (1, 1)),
                             (2, 0, 3): ((0, -2), (1, -1)),
                             (2, 3, 0): ((0, 2), (1, 1)),
                             (3, 0, 2): ((0, -2), (1, -1)),
                             (3, 2, 0): ((0, 2), (1, 1))})
    assert b.value(0, 2, 3) == (Fraction(2, 3), Fraction(1, 3), 0, 0)
    value = {(0, 2, 3): (Fraction(2, 3), Fraction(1, 3), 0, 0)}
    for other in (SuperBracket3.from_canonical(sp, value),
                  fraction_fill(sp, value)):
        assert other == b and other.integer == b.integer
    # a zero value, whichever way it comes, is the zero bracket
    zeros = (SuperBracket3.from_integer(sp, 6, {(0, 1, 2): ()}),
             SuperBracket3.from_canonical(sp, {(0, 1, 2): (0, 0, 0, 0)}),
             fraction_fill(sp, {(0, 1, 2): (0, 0, 0, 0)}))
    for z in zeros:
        assert z.integer == (1, {}) and z.is_zero() and z == zeros[0]
    with pytest.raises(InputError, match="not canonical"):
        SuperBracket3.from_integer(sp, 1, {(2, 0, 3): ((0, 1),)})
    with pytest.raises(InputError, match="parity law"):
        SuperBracket3.from_integer(sp, 1, {(0, 2, 3): ((2, 1),)})


@pytest.mark.parametrize("case", ["gl11", "conj"])
def test_induce_cocycle_matches_fraction_induction(case):
    """Random cocycle combinations with denominators, scalar and adjoint,
    both parities, on gl(1|1) and a conjugate (tau with denominators)."""
    lie, rep = gl11() if case == "gl11" else conjugate_gl11(random.Random(56))
    tau = trace_functional(rep)
    t = induce_ternary(lie, tau, lie.alpha, lie.alpha)
    rng = random.Random(57)
    seen = set()
    for cx in ("binary-scalar", "binary-adjoint"):
        n = cochain_length(cx, 2, lie.space)
        for parity in (0, 1):
            basis = cocycles(lie, cx, 2, parity)
            for _ in range(3 if basis else 0):
                coords = [Fraction(0)] * n
                for v in basis:
                    c = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5)))
                    coords = [a + c * x for a, x in zip(coords, v)]
                phi = make_cochain(cx, 2, lie.space, dict(zip(
                    cochain_keys(cx, 2, lie.space),
                    coords if cx == "binary-scalar" else
                    zip(*[iter(coords)] * lie.dim))), parity=parity)
                got, = induce_cocycle(lie, tau, [phi], t)
                assert got == induce_cocycle_oracle(lie, tau, phi)
                seen.add((cx, parity, got.is_zero()))
    assert ("binary-scalar", 0, False) in seen
    assert ("binary-adjoint", 1, False) in seen
