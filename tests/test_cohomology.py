"""Cochain complexes, coboundaries, and cocycle transfer to the induced side."""

import gc
import hashlib
import json
import random
import weakref
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from homnambu import cohomology, linalg
from homnambu.binary import HomLieSuper, yau_twist
from homnambu.cohomology import (_BUILDERS, _DEGREES, MAX_COBOUNDARY_ROWS,
                                 Cochain, _apply, _block_labels, _blocks,
                                 _first_nonzero, _grading, _row_count,
                                 _row_keys, _served, _walk, _weight_basis,
                                 apply_coboundary,
                                 binary_adjoint_cocycle_space,
                                 binary_pair_eval,
                                 bracket_cochain, coboundary_matrix,
                                 cochain_keys, cochain_length, cocycles,
                                 cohomology_dims, coordinate_parities,
                                 induce_cocycle, infer_parity,
                                 is_binary_cocycle, make_cochain,
                                 parity_support, verify_1cocycle_transfer,
                                 verify_class_transfer,
                                 verify_lemma_identity)
from homnambu.fixtures import (conjugate_gl11, conjugate_pair, gl11, gl11_tau,
                               gl11t, glmn, induced_gl11, matrix_units,
                               random_even_invertible)
from homnambu.formats import load_cochain, read_document
from homnambu.graded import (GradedMap, canonicalize, graded_space, skew_basis,
                             tuple_parity)
from homnambu.linalg import (InputError, Matrix, PreconditionError, Subspace,
                             image, integer_terms, is_zero_vec, kernel,
                             subspace_intersection, unit_vec, vec_scale)
from homnambu.reps import TraceFunctional, trace_functional
from homnambu.ternary import (SuperBracket3, TernaryHomLieSuper, induce_ternary,
                              verify_hom_nambu)

import ci_documents
from oracles import (key_parts, parity_cocycles, read_blocks, select,
                     verify_bracket_cocycle)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def induced(lie, rep):
    tau = trace_functional(rep)
    return tau, induce_ternary(lie, tau, lie.alpha, lie.alpha)


def kernel_combination(rng, vecs, n):
    cs = [Fraction(rng.randint(-3, 3)) for _ in vecs]
    return tuple(sum((c * v[i] for c, v in zip(cs, vecs)), Fraction(0))
                 for i in range(n))


def random_cochain(rng, cx, degree, space, parity):
    sel = parity_support(cx, degree, space, parity)
    n = cochain_length(cx, degree, space)
    coords = [Fraction(0)] * n
    for pos in sel:
        coords[pos] = Fraction(rng.randint(-3, 3))
    return Cochain(cx, degree, parity, space, tuple(coords))


def test_scalar_coboundary_shapes(g11):
    for p, shape in ((1, (8, 4)), (2, (12, 8)), (3, (16, 12))):
        m = coboundary_matrix(g11, "binary-scalar", p)
        assert (m.rows, m.cols) == shape


def test_ds1_matches_direct_formula(all_binary):
    rng = random.Random(71)
    for name, lie, rep in all_binary:
        sb2 = skew_basis(2, lie.space)
        for parity in (0, 1):
            f = random_cochain(rng, "binary-scalar", 1, lie.space, parity)
            out = coboundary_matrix(lie, "binary-scalar", 1).apply(f.coords)
            for pos, (i, j) in enumerate(sb2.tuples):
                direct = -sum(c * fc for c, fc in
                              zip(lie.bracket.value(i, j), f.coords))
                assert out[pos] == direct, (name, i, j)


def test_scalar_complex_squares_to_zero(all_binary):
    for name, lie, rep in all_binary:
        d1, d2, d3 = (coboundary_matrix(lie, "binary-scalar", p)
                      for p in (1, 2, 3))
        assert d2.mul(d1).is_zero(), name
        assert d3.mul(d2).is_zero(), name


def parity_block(m, cx, deg_in, space, parity, parities_fn=parity_support):
    sel_out = parities_fn(cx, deg_in + 1, space, parity)
    sel_in = parities_fn(cx, deg_in, space, parity)
    return select(m, sel_out, sel_in)


def gl21_family():
    """(name, lie, tau, t) for gl(2|1), its diagonal Yau twist and a dense
    conjugate, each with its supertrace functional and induced algebra."""
    lie, rep = glmn(2, 1)
    yield "gl21", lie, *induced(lie, rep)
    twisted = diagonal_twist(lie, 2, 1)
    tau = TraceFunctional(twisted, trace_functional(rep).values)
    yield "gl21t", twisted, tau, induce_ternary(twisted, tau, twisted.alpha,
                                                twisted.alpha)
    lie, rep = conjugate_pair(lie, rep, random_even_invertible(
        random.Random(1), lie.space))
    yield "gl21c", lie, *induced(lie, rep)


def test_ternary_complexes_square_to_zero(all_binary):
    # the assembled matrices on the small algebras, delta3 delta2 too; on
    # the gl(2|1) family (whose delta3 has 576,000 rows) delta2 delta1 on
    # each unit cochain of each parity, streamed in ints by _apply
    algebras = [(name, lie, *induced(lie, rep))
                for name, lie, rep in all_binary]
    for name, lie, tau, t in algebras + list(gl21_family()):
        sp = lie.space
        for cx in ("ternary-scalar", "ternary-adjoint"):
            if sp.dim < 9:
                d1 = coboundary_matrix(t, cx, 1)
                d2 = coboundary_matrix(t, cx, 2)
                assert d2.mul(d1).is_zero(), (name, cx)
                for parity in (0, 1):
                    b2 = parity_block(d2, cx, 2, sp, parity)
                    b1 = parity_block(d1, cx, 1, sp, parity)
                    assert b2.mul(b1).is_zero(), (name, cx, parity)
            n1, n2 = (cochain_length(cx, p, sp) for p in (1, 2))
            for parity in (0, 1):
                units = [unit_vec(n1, i)
                         for i in parity_support(cx, 1, sp, parity)]
                images = [tuple(d.get(i, Fraction(0)) for i in range(n2))
                          for d in _apply(t, cx, 1, units)]
                assert sp.dim < 9 or any(map(any, images)), (name, cx, parity)
                assert not any(_apply(t, cx, 2, images)), (name, cx, parity)
        if sp.dim < 9:
            d2, d3 = (coboundary_matrix(t, "ternary-scalar", p)
                      for p in (2, 3))
            assert d3.mul(d2).is_zero(), name


def test_odd_adjoint_cocycles_of_gl21_transfer():
    # every odd g-valued 2-cocycle of gl(2|1) induces a ternary-adjoint
    # 2-cocycle; induce_cocycle checks the delta2 of all 36 in one walk
    lie, rep = glmn(2, 1)
    tau, t = induced(lie, rep)
    vecs = binary_adjoint_cocycle_space(lie, 1).vectors()
    assert len(vecs) == 36
    phis = [Cochain("binary-adjoint", 2, 1, lie.space, v) for v in vecs]
    psis = induce_cocycle(lie, tau, phis, t)
    assert [psi.parity for psi in psis] == [1] * 36
    assert not any(psi.is_zero() for psi in psis)
    assert not any(_apply(t, "ternary-adjoint", 2,
                          [psi.coords for psi in psis]))


def test_cohomology_dimension_table(g11, t11):
    assert cohomology_dims(g11, "binary-scalar", 1) == (1, 0, 1)
    assert cohomology_dims(g11, "binary-scalar", 2) == (1, 1, 0)
    assert cohomology_dims(t11, "ternary-scalar", 1) == (1, 0, 1)
    assert cohomology_dims(t11, "ternary-scalar", 2) == (7, 1, 6)
    assert cohomology_dims(t11, "ternary-adjoint", 1) == (6, 0, 6)
    assert cohomology_dims(t11, "ternary-adjoint", 2) == (30, 2, 28)


def test_adjoint_dims_by_output_parity_match_lifted_elimination():
    # cohomology_dims eliminates the value-free rows once per key parity;
    # eliminating the even block of the whole lifted matrix must agree
    cx = "ternary-adjoint"
    for name, lie, rep in oracle_algebras():
        tau, t = induced(lie, rep)
        for degree in (1, 2):
            z = kernel(parity_block(coboundary_matrix(t, cx, degree), cx,
                                    degree, lie.space, 0))
            if degree == 1:
                b = Subspace.zero(z.ambient_dim)
            else:
                b = image(parity_block(coboundary_matrix(t, cx, 1), cx, 1,
                                       lie.space, 0))
            want = (z.dim, b.dim, z.dim - b.dim)
            assert cohomology_dims(t, cx, degree) == want, (name, degree)


def test_bracket_is_cyclic_cocycle(all_binary):
    for name, lie, rep in all_binary:
        r = verify_bracket_cocycle(lie)
        assert r.verdict == "pass", name
    for parity in (0, 1):
        space = binary_adjoint_cocycle_space(all_binary[2][1], parity)
        assert space.dim == 6, parity


def test_binary_adjoint_cocycle_space_matches_lifted_kernel():
    # oracle: the kernel of the whole lifted cyclic operator, intersected
    # with the coordinate axes of the parity
    for name, (lie, rep) in (("gl11", gl11()), ("gl11t", gl11t()),
                             ("conj", conjugate_gl11(random.Random(5)))):
        n = cochain_length("binary-adjoint", 2, lie.space)
        ker = kernel(coboundary_matrix(lie, "binary-adjoint", 2))
        for parity in (0, 1):
            axes = [unit_vec(n, s) for s in
                    parity_support("binary-adjoint", 2, lie.space, parity)]
            want = subspace_intersection(ker, Subspace.from_vectors(n, axes))
            assert binary_adjoint_cocycle_space(lie, parity) == want, \
                (name, parity)


def test_adjoint_d1_lands_in_cyclic_kernel(g11):
    m = coboundary_matrix(g11, "binary-adjoint", 2)
    assert m.mul(coboundary_matrix(g11, "binary-adjoint", 1)).is_zero()


def test_binary_adjoint_d1_completes_the_complex(g11):
    # d^1 is d_s^1 per output: it gives degree 2 its coboundaries, and the
    # shipped adjoint 2-cocycle goes to the zero 3-cochain
    path = Path(__file__).resolve().parent.parent / "fixtures" / "phi_ad.json"
    phi = load_cochain(json.loads(path.read_text("utf-8")), g11.space)
    out = apply_coboundary(g11, phi)
    assert (out.degree, out.is_zero()) == (3, True)
    for lie, dims in ((g11, (6, 6, 0)), (gl11t()[0], (6, 6, 0)),
                      (glmn(2, 1)[0], (36, 36, 0))):
        assert cohomology_dims(lie, "binary-adjoint", 2) == dims


def test_coboundary_matrix_dispatch(g11, t11):
    assert coboundary_matrix(g11, "binary-scalar", 2).entries == \
        coboundary_matrix(g11, "binary-scalar", 2).entries
    assert coboundary_matrix(t11, "ternary-scalar", 1).entries == \
        coboundary_matrix(t11, "ternary-scalar", 1).entries
    with pytest.raises(InputError):
        coboundary_matrix(g11, "ternary-scalar", 1)
    for obj, cx, degree in ((g11, "binary-scalar", 4),
                            (t11, "ternary-scalar", 4),
                            (t11, "ternary-adjoint", 3),
                            (g11, "binary-adjoint", 3)):
        with pytest.raises(InputError):
            coboundary_matrix(obj, cx, degree)


def test_apply_coboundary_round(g11, t11):
    rng = random.Random(72)
    f = random_cochain(rng, "binary-scalar", 1, g11.space, 0)
    out = apply_coboundary(g11, f)
    assert out.degree == 2 and out.parity == 0
    assert out.coords == \
        coboundary_matrix(g11, "binary-scalar", 1).apply(f.coords)
    h = random_cochain(rng, "ternary-adjoint", 2, t11.space, 1)
    out = apply_coboundary(t11, h)
    assert out.coords == \
        coboundary_matrix(t11, "ternary-adjoint", 2).apply(h.coords)


def test_slice_apply_matches_lifted_matrix():
    # coboundaries of given cochains apply the integer value-free rows, per
    # output, to the cochain's cleared coordinates; the lifted Fraction
    # coboundary matrix is the oracle, entry types included: _apply returns
    # exactly its nonzero entries, apply_coboundary all of them.  The
    # coordinates have denominators, so the clearing is exercised.
    rng = random.Random(81)
    for name, lie, rep in oracle_algebras():
        _, t = induced(lie, rep)
        for cx, degree in _BUILDERS:
            obj = t if cx.startswith("ternary") else lie
            for parity in (0, 1):
                c = random_cochain(rng, cx, degree, obj.space, parity)
                c = Cochain(cx, degree, parity, obj.space, tuple(
                    x / rng.choice((1, 2, 3, 4, 6)) for x in c.coords))
                want = coboundary_matrix(obj, cx, degree).apply(c.coords)
                got, = _apply(obj, cx, degree, [c.coords])
                assert got == {i: x for i, x in enumerate(want) if x}, \
                    (name, cx, degree, parity)
                assert [type(x) for x in got.values()] == \
                    [type(want[i]) for i in got]
                dense = apply_coboundary(obj, c).coords
                assert dense == want
                assert [type(x) for x in dense] == [type(x) for x in want]
                if cx.startswith("binary") and degree == 2:
                    assert is_binary_cocycle(obj, c) == is_zero_vec(want)
                # raw coordinates of both parities at once, as solve()
                # output or a sum of cocycles of two parities may be
                raw = tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                     rng.choice((1, 2, 3))) for _ in c.coords)
                cps = coordinate_parities(cx, degree, obj.space)
                assert {cps[i] for i, x in enumerate(raw) if x} == {0, 1}
                want = coboundary_matrix(obj, cx, degree).apply(raw)
                assert _apply(obj, cx, degree, [raw]) == \
                    [{i: x for i, x in enumerate(want) if x}], \
                    (name, cx, degree, parity)
        assert is_binary_cocycle(lie, bracket_cochain(lie))


def test_batched_apply_matches_one_application_per_cochain():
    """_apply on a batch against coboundary_matrix(...).apply one cochain
    at a time, on every _BUILDERS entry of gl(1|1), gl(2|1) and a dense
    gl(2|1) conjugate, but the gl(2|1) delta3s, whose matrices assemble to
    1.8M Fractions, and the conjugate's ternary-adjoint delta2, whose
    lifted matrix takes 6 s to assemble and 4 s per application:
    cochains of both parities mixed, as no walk reads the parity, each
    with its own denominators, a zero cochain among them; an empty batch
    is [] and a wrong-length tuple an input error."""
    rng = random.Random(82)
    lie21, rep21 = glmn(2, 1)
    conj = conjugate_pair(lie21, rep21, random_even_invertible(
        random.Random(1), lie21.space))
    for name, (lie, rep) in (("gl11", gl11()), ("gl21", (lie21, rep21)),
                             ("conj", conj)):
        _, t = induced(lie, rep)
        for cx, degree in _BUILDERS:
            if name != "gl11" and degree == 3 or (
                    name, cx, degree) == ("conj", "ternary-adjoint", 2):
                continue
            obj = t if cx.startswith("ternary") else lie
            batch = [tuple(x / rng.choice((1, 2, 3, 5)) for x in
                           random_cochain(rng, cx, degree, obj.space,
                                          p).coords)
                     for p in (0, 1, 0, 1)]
            batch.insert(1, Cochain.zero(cx, degree, obj.space).coords)
            m = coboundary_matrix(obj, cx, degree)
            want = [{i: x for i, x in enumerate(m.apply(c)) if x}
                    for c in batch]
            assert _apply(obj, cx, degree, batch) == want, \
                (name, cx, degree)
            assert want[1] == {} and any(want), (name, cx, degree)
            assert _apply(obj, cx, degree, []) == []
            with pytest.raises(InputError, match="length mismatch"):
                _apply(obj, cx, degree, [batch[0], batch[0][1:]])


def test_cochain_parity_support_enforced(g11):
    n = cochain_length("binary-scalar", 2, g11.space)
    odd_pos = parity_support("binary-scalar", 2, g11.space, 1)[0]
    coords = [Fraction(0)] * n
    coords[odd_pos] = Fraction(1)
    with pytest.raises(InputError):
        Cochain("binary-scalar", 2, 0, g11.space, tuple(coords))
    assert infer_parity("binary-scalar", 2, g11.space, tuple(coords)) == 1


@pytest.mark.parametrize("bad", [0.5, "1", None])
def test_cochain_rejects_a_coordinate_that_is_not_an_exact_rational(g11, bad):
    # by linalg.frac's rule, at construction rather than in apply_coboundary
    with pytest.raises(InputError, match="coordinate 0 is not an exact"):
        Cochain("binary-scalar", 1, 0, g11.space, (bad, 0, 0, 0))
    c = Cochain("binary-scalar", 1, 0, g11.space, (Fraction(1, 2), 1, 0, 0))
    assert apply_coboundary(g11, c).degree == 2


def test_make_cochain_keys(g11):
    c = make_cochain("binary-scalar", 2, g11.space, {(2, 3): Fraction(1)},
                     parity=0)
    assert binary_pair_eval(c, 2, 3) == 1
    assert binary_pair_eval(c, 3, 2) == 1    # (q,p) mirrors with a plus sign
    assert binary_pair_eval(c, 0, 0) == 0


def test_scalar_cocycle_transfer_all_fixtures(all_binary):
    for name, lie, rep in all_binary:
        tau, t = induced(lie, rep)
        r = verify_1cocycle_transfer(lie, tau, t)
        assert r.verdict == "pass", name


def test_scalar_cocycle_transfer_fails_off_the_induced_bracket():
    # a negative control: [h1, q, p] = h1 on induced gl(1|1) is no induced
    # triple, and the scalar 1-cocycle of gl(1|1) does not annihilate it
    lie, tau = gl11_tau()
    t = induced_gl11()
    broken = TernaryHomLieSuper(t.space, t.bracket.with_canonical(
        (0, 2, 3), (1, 0, 0, 0)), t.alpha1, t.alpha2)
    r = verify_1cocycle_transfer(lie, tau, broken)
    assert [(f.check, f.witness, f.residual) for f in r.findings] == [
        ("induced-1cocycle", ("h1", "q", "p"), ("1",))]
    assert r.metrics["triples_checked"] == 12


def test_induce_cocycle_scalar_oracle(g11, tau11, t11):
    # the q,p dual is a binary cocycle; its transfer must hit exactly the
    # triples whose tau-weighted pair collapses onto (q,p)
    phi = make_cochain("binary-scalar", 2, g11.space, {(2, 3): Fraction(1)},
                       parity=0)
    assert is_binary_cocycle(g11, phi)
    out, = induce_cocycle(g11, tau11, [phi], t11)
    sb2 = skew_basis(2, g11.space)
    tauv = tau11.values
    p = g11.space.parities
    for pos, pair in enumerate(sb2.tuples):
        x1, x2 = pair
        s12 = -1 if (p[x1] and p[x2]) else 1
        for k in range(g11.dim):
            s3 = -1 if (p[k] and (p[x1] ^ p[x2])) else 1
            want = (tauv[x1] * binary_pair_eval(phi, x2, k)
                    - s12 * tauv[x2] * binary_pair_eval(phi, x1, k)
                    + s3 * tauv[k] * binary_pair_eval(phi, x1, x2))
            assert out.coords[pos * g11.dim + k] == want


@pytest.mark.parametrize("case", ["gl11t", "conj"])
def test_induce_cocycle_adjoint_oracle(case):
    """Every coordinate of a transferred g-valued cocycle, both parities,
    against the tau-combination written out one output index at a time."""
    lie, rep = gl11t() if case == "gl11t" else conjugate_gl11(random.Random(8))
    tau, t = induced(lie, rep)
    rng = random.Random(76)
    n = cochain_length("binary-adjoint", 2, lie.space)
    p = lie.space.parities
    tv = tau.values
    for parity in (0, 1):
        vecs = binary_adjoint_cocycle_space(lie, parity).vectors()
        assert vecs, (case, parity)
        phi = Cochain("binary-adjoint", 2, parity, lie.space,
                      kernel_combination(rng, vecs, n))
        out, = induce_cocycle(lie, tau, [phi], t)
        assert out.complex == "ternary-adjoint" and out.parity == parity
        assert not out.is_zero(), (case, parity)
        pos = 0
        for (x1, x2), k in cochain_keys("ternary-adjoint", 2, lie.space):
            s12 = -1 if (p[x1] and p[x2]) else 1
            s3 = -1 if (p[k] and (p[x1] ^ p[x2])) else 1
            for m in range(lie.dim):
                want = (tv[x1] * binary_pair_eval(phi, x2, k)[m]
                        - s12 * tv[x2] * binary_pair_eval(phi, x1, k)[m]
                        + s3 * tv[k] * binary_pair_eval(phi, x1, x2)[m])
                assert out.coords[pos] == want, (case, parity, x1, x2, k, m)
                pos += 1
        assert pos == len(out.coords)


def test_induce_cocycle_rejects_non_cocycle(g11, tau11, t11):
    bad = random_cochain(random.Random(73), "binary-scalar", 2, g11.space, 0)
    assert not is_binary_cocycle(g11, bad)
    with pytest.raises(PreconditionError):
        induce_cocycle(g11, tau11, [bad], t11)


def test_induce_cocycle_raises_for_the_first_cochain_that_fails(g11, tau11,
                                                                t11):
    # a batch checks its cochains as one call each would, in order: the
    # cocycle passes every check and the non-cocycle raises its own
    good = Cochain("binary-scalar", 2, 0, g11.space,
                   cocycles(g11, "binary-scalar", 2, 0)[0])
    bad = random_cochain(random.Random(73), "binary-scalar", 2, g11.space, 0)
    assert induce_cocycle(g11, tau11, [good], t11)
    with pytest.raises(PreconditionError, match="expects a 2-cocycle"):
        induce_cocycle(g11, tau11, [good, bad], t11)
    assert induce_cocycle(g11, tau11, [], t11) == []


def test_adjoint_cocycles_transfer(g11, tau11, t11):
    # twisted 2-cocycles with values in the algebra keep satisfying the
    # cocycle identity after induction; the constructor re-checks the
    # delta2; one call takes the cochains of both parities, interleaved,
    # with a scalar cocycle among them
    rng = random.Random(74)
    n = cochain_length("binary-adjoint", 2, g11.space)
    vecs = {parity: binary_adjoint_cocycle_space(g11, parity).vectors()
            for parity in (0, 1)}
    assert [len(v) for v in vecs.values()] == [6, 6]
    phis = [Cochain("binary-adjoint", 2, parity, g11.space,
                    kernel_combination(rng, vecs[parity], n))
            for _ in range(10) for parity in (0, 1)]
    phis.insert(3, Cochain("binary-scalar", 2, 0, g11.space,
                           cocycles(g11, "binary-scalar", 2, 0)[0]))
    outs = induce_cocycle(g11, tau11, phis, t11)
    assert len(outs) == len(phis)
    for phi, out in zip(phis, outs):
        assert out.complex == phi.complex.replace("binary", "ternary")
        assert out.parity == phi.parity
        assert out == induce_cocycle(g11, tau11, [phi], t11)[0]
        resid = coboundary_matrix(t11, out.complex, 2).apply(out.coords)
        assert is_zero_vec(resid)


def test_cocycle_checks_take_both_adjoint_parities_in_one_walk(
        t11, monkeypatch):
    # no builder reads the cochain parity, so a batch of both parities is
    # one application: an even and an odd cocycle pass, and the first
    # non-cocycle is found wherever it stands
    even, odd = (cocycles(t11, "ternary-adjoint", 2, parity)[0]
                 for parity in (0, 1))
    batch = [Cochain("ternary-adjoint", 2, 0, t11.space, even),
             Cochain("ternary-adjoint", 2, 1, t11.space, odd)]
    walks = []
    blocks = cohomology._blocks
    monkeypatch.setattr(cohomology, "_blocks",
                        lambda *args: walks.append(args[1:]) or blocks(*args))
    assert _first_nonzero(t11, batch) == 2
    assert walks == [("ternary-adjoint", 2)]
    batch.append(random_cochain(random.Random(70), "ternary-adjoint", 2,
                                t11.space, 1))
    assert _first_nonzero(t11, batch) == 2
    assert _first_nonzero(t11, batch[::-1]) == 0


def test_lemma_identity_random(g11, tau11, t11):
    rng = random.Random(75)
    for parity in (0, 1):
        for _ in range(10):
            om = random_cochain(rng, "binary-scalar", 1, g11.space, parity)
            r, = verify_lemma_identity(g11, tau11, [om], t11)
            assert r.verdict == "pass"


def test_class_transfer_random(g11, tau11, t11):
    rng = random.Random(76)
    n = cochain_length("binary-scalar", 2, g11.space)
    sel_in = parity_support("binary-scalar", 2, g11.space, 0)
    sel_out = parity_support("binary-scalar", 3, g11.space, 0)
    zblock = select(coboundary_matrix(g11, "binary-scalar", 2), sel_out,
                    sel_in)
    from homnambu.linalg import kernel
    lifted = []
    for v in kernel(zblock).vectors():
        full = [Fraction(0)] * n
        for pos, x in zip(sel_in, v):
            full[pos] = x
        lifted.append(tuple(full))
    m1 = coboundary_matrix(g11, "binary-scalar", 1)
    for _ in range(10):
        phi1 = Cochain("binary-scalar", 2, 0, g11.space,
                       kernel_combination(rng, lifted, n))
        eta = random_cochain(rng, "binary-scalar", 1, g11.space, 0)
        shift = m1.apply(eta.coords)
        phi2 = Cochain("binary-scalar", 2, 0, g11.space,
                       tuple(a + b for a, b in zip(phi1.coords, shift)))
        r, = verify_class_transfer(g11, tau11, [(phi1, phi2)], t11)
        assert r.verdict == "pass"


def test_class_transfer_demands_cohomologous_pair(all_binary, g11, tau11):
    a0 = next(lie for name, lie, rep in all_binary if name == "a0")
    rep0 = next(rep for name, lie, rep in all_binary if name == "a0")
    tau0, t0 = induced(a0, rep0)
    sel = parity_support("binary-scalar", 2, a0.space, 0)
    n = cochain_length("binary-scalar", 2, a0.space)
    coords = [Fraction(0)] * n
    coords[sel[0]] = Fraction(1)
    nontrivial = Cochain("binary-scalar", 2, 0, a0.space, tuple(coords))
    zero = Cochain.zero("binary-scalar", 2, a0.space)
    with pytest.raises(PreconditionError, match="not cohomologous"):
        verify_class_transfer(a0, tau0, [(zero, nontrivial)], t0)
    # a batch raises for its first failing pair, after the pairs before it
    assert verify_class_transfer(a0, tau0, [(zero, zero)], t0)[0].ok
    with pytest.raises(PreconditionError, match="not cohomologous"):
        verify_class_transfer(a0, tau0, [(zero, zero), (zero, nontrivial),
                                         (zero, Cochain.zero(
                                             "binary-scalar", 1, a0.space))],
                              t0)


def test_class_transfer_witnesses_name_every_mismatch(g11, tau11, t11):
    # doubling the induced bracket keeps the induced cocycles cocycles (delta2
    # is linear in the bracket) but doubles delta1, so a shift by d_s eta
    # with eta = e_h1* no longer transfers
    coeffs = {k: vec_scale(2, v)
              for k, v in t11.bracket.canonical_coeffs().items()}
    doubled = TernaryHomLieSuper(t11.space,
                                 SuperBracket3.from_canonical(t11.space, coeffs),
                                 t11.alpha1, t11.alpha2)
    phi1 = Cochain("binary-scalar", 2, 0, g11.space,
                   cocycles(g11, "binary-scalar", 2, 0)[0])
    eta = make_cochain("binary-scalar", 1, g11.space, {(0,): 1})
    phi2 = phi1.add(apply_coboundary(g11, eta))
    assert verify_class_transfer(g11, tau11, [(phi1, phi2)],
                                 t11)[0].verdict == "pass"
    r, = verify_class_transfer(g11, tau11, [(phi1, phi2)], doubled)
    assert r.verdict == "fail"
    names = set(g11.space.names)
    assert len(r.findings) > 1
    for f in r.findings:
        assert f.check == "class-transfer"
        assert len(f.witness) == 3 and set(f.witness) <= names, f.witness
    assert r.findings[0].witness == ("h1", "q", "p")


def test_coboundary_blocks_live_as_long_as_their_walk():
    # every walk streams the same blocks and nothing keeps them: after
    # the whole-operator form and every application, the memo holds the
    # grading alone
    lie, rep = gl11()
    tau, t = induced(lie, rep)
    for obj, cx in ((t, "ternary-scalar"), (lie, "binary-scalar")):
        labels = block_labels(obj, cx, 2)
        assert read_blocks(obj, cx, 2, labels) == \
            read_blocks(obj, cx, 2, labels)
        coboundary_matrix(obj, cx, 2)
        apply_coboundary(obj, random_cochain(random.Random(71), cx, 2,
                                             obj.space, 0))
        assert set(obj.memo) == {"grading"}, cx
    # the ternary-adjoint delta2 walks the scalar rows, label by
    # label, at twice the multiplier
    labels = block_labels(t, "ternary-scalar", 2)
    for d2, adjoint in zip(read_blocks(t, "ternary-scalar", 2, labels),
                           read_blocks(t, "ternary-adjoint", 2, labels)):
        assert adjoint[:3] == d2[:3]
        assert adjoint[3] == 2 * d2[3]
    # a block still being read keeps nothing alive once dropped
    rows = _blocks(t, "ternary-scalar", 2)[2](labels[0])[3]
    next(rows)
    # the memo is no part of the value: an equal algebra with nothing
    # cached compares equal and prints the same
    fresh_lie, _ = gl11()
    assert fresh_lie == lie and repr(fresh_lie) == repr(lie)
    refs = [weakref.ref(lie), weakref.ref(t)]
    del lie, rep, tau, t, obj, rows
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_apply_builds_only_the_blocks_its_coordinates_touch(monkeypatch):
    # on induced gl(2|1), delta1 and delta2 applied to a cochain supported
    # on the keys of one (q, w) label build the rows of that label's block
    # alone, every one of them once, and the memo keeps none of them
    lie, rep = glmn(2, 1)
    _, t = induced(lie, rep)
    weights = _grading(t)[1]
    built = built_rows(monkeypatch)
    for degree in (1, 2):
        keys = cochain_keys("ternary-scalar", degree, t.space)
        labels = [key_label(key, t.space, weights) for key in keys]
        # the most populous label off weight 0
        label = max(sorted(set(labels) - {(0, 0), (1, 0)}), key=labels.count)
        coords = tuple(Fraction(n % 5 - 2, 3) if x == label else Fraction(0)
                       for n, x in enumerate(labels))
        built.clear()
        got, = _apply(t, "ternary-scalar", degree, [coords])
        assert got, degree
        rkeys = cochain_keys("ternary-scalar", degree + 1, t.space)
        assert sorted(i for _, _, i, _ in built) == [
            i for i, key in enumerate(rkeys)
            if key_label(key, t.space, weights) == label], degree
        assert set(t.memo) == {"grading"}
        fresh = induced(lie, rep)[1]
        want = coboundary_matrix(fresh, "ternary-scalar", degree).apply(coords)
        assert got == {i: x for i, x in enumerate(want) if x}


# --- the coordinate layout ---------------------------------------------------

ALL_SHAPES = ([("binary-scalar", d) for d in (1, 2, 3, 4)]
              + [("binary-adjoint", d) for d in (1, 2, 3)]
              + [(cx, d) for cx in ("ternary-scalar", "ternary-adjoint")
                 for d in (1, 2, 3)])


def test_cochain_keys_layout(g11):
    sp = g11.space
    pairs = skew_basis(2, sp).tuples
    assert cochain_keys("binary-scalar", 3, sp) == skew_basis(3, sp).tuples
    assert cochain_keys("binary-adjoint", 2, sp) == pairs
    assert cochain_keys("ternary-scalar", 1, sp) == (0, 1, 2, 3)
    assert cochain_keys("ternary-adjoint", 2, sp) == tuple(
        (pair, k) for pair in pairs for k in range(4))
    assert cochain_keys("ternary-scalar", 3, sp) == tuple(
        (x, y, k) for x in pairs for y in pairs for k in range(4))
    assert cochain_keys("ternary-scalar", 4, sp) == tuple(
        product(pairs, pairs, pairs, range(4)))
    for cx, d in ALL_SHAPES:
        width = 4 if cx.endswith("adjoint") else 1
        assert cochain_length(cx, d, sp) == len(cochain_keys(cx, d, sp)) * width
    for cx, d in (("binary-adjoint", 4), ("ternary-scalar", 5),
                  ("ternary-adjoint", 4), ("binary-scalar", True), ("nope", 1)):
        with pytest.raises(InputError):
            cochain_keys(cx, d, sp)


def test_coordinate_parities_are_the_parities_of_the_key_parts():
    # the naive oracle of the key parities: tuple_parity of each key of
    # cochain_keys, flattened to its basis indices, plus the output's
    # parity on the adjoint complexes, on every shape of gl(1|1), gl(2|1)
    # and a gl(2|1) conjugate
    lie21, rep21 = glmn(2, 1)
    conj = conjugate_pair(lie21, rep21, random_even_invertible(
        random.Random(1), lie21.space))[0]
    for lie in (gl11()[0], lie21, conj):
        p = lie.space.parities
        for cx, d in ALL_SHAPES:
            keyp = [tuple_parity(key_parts(key), p)
                    for key in cochain_keys(cx, d, lie.space)]
            want = (keyp if not cx.endswith("adjoint") else
                    [(kp + po) % 2 for kp in keyp for po in p])
            assert coordinate_parities(cx, d, lie.space) == tuple(want), \
                (lie.dim, cx, d)


def test_adjoint_coordinates_are_key_major(g11):
    # the value at key i fills the dim coordinates after the first i*dim
    sp = g11.space
    values = {((2, 3), 0): (1, 2, 0, 0), ((0, 2), 2): (5, 0, 0, 0)}
    c = make_cochain("ternary-adjoint", 2, sp, values)
    keys = cochain_keys("ternary-adjoint", 2, sp)
    for key, v in values.items():
        start = keys.index(key) * 4
        assert c.coords[start:start + 4] == v
    assert sum(1 for x in c.coords if x != 0) == 3


def test_cochain_values_invert_make_cochain(all_binary):
    rng = random.Random(77)
    for name, lie, rep in all_binary:
        for cx, d in ALL_SHAPES:
            for parity in (0, 1):
                c = random_cochain(rng, cx, d, lie.space, parity)
                back = make_cochain(cx, d, lie.space, c.values, c.parity)
                assert back == c, (name, cx, d, parity)
                assert list(c.values) == list(cochain_keys(cx, d, lie.space))


def test_cochain_add_refuses_a_cochain_on_another_space(all_binary):
    # a0 and aff1 both have two basis elements, so their scalar
    # 1-cochains have the same length; gl(1|1)'s have another
    spaces = {name: lie.space for name, lie, _ in all_binary}
    zero = Cochain.zero("binary-scalar", 1, spaces["a0"])
    for other in ("aff1", "gl11"):
        with pytest.raises(InputError, match="shape mismatch"):
            zero.add(Cochain.zero("binary-scalar", 1, spaces[other]))
    assert zero.add(zero) == zero


def test_make_cochain_rejects_malformed_keys_and_values(g11):
    sp = g11.space
    bad = [
        ("ternary-scalar", 2, {((0, 1), 4): 1}),   # element 4 of a 4-dim space
        ("ternary-scalar", 2, {((3, 2), 0): 1}),   # non-canonical pair
        ("ternary-scalar", 1, {-1: 1}),
        ("ternary-scalar", 1, {7: 1}),
        ("ternary-adjoint", 1, {4: (0, 0, 0, 0)}),
        ("binary-scalar", 2, {(3, 2): 1}),
        ("binary-adjoint", 2, {(0, 1): (1, 0, 0)}),          # short value
        # a long value would spill into the next key, here within parity
        ("binary-adjoint", 2, {(0, 1): (0, 0, 1, 0, 1)}),
        ("binary-adjoint", 2, {(0, 1): 1}),
    ]
    for cx, d, values in bad:
        with pytest.raises(InputError):
            make_cochain(cx, d, sp, values)


def test_scalar_delta2_walked_once_per_call(monkeypatch):
    # the lemma identity on cochains of both parities walks the scalar
    # delta2 once, for the induced cochains of both, and a whole-operator
    # form builds each row once per call, whatever the cochain parity:
    # one block per label of the columns, none of them kept
    lie, rep = gl11()
    tau, t = induced(lie, rep)
    rng = random.Random(78)
    oms = [random_cochain(rng, "binary-scalar", 1, lie.space, parity)
           for parity in (0, 1)]
    walks = walked(monkeypatch)
    reports = verify_lemma_identity(lie, tau, oms, t)
    assert [r.verdict for r in reports] == ["pass", "pass"]
    assert walks.count(("ternary-scalar", 2)) == 1
    monkeypatch.undo()
    built = built_rows(monkeypatch)
    whole = [coboundary_matrix(t, "ternary-scalar", 2) for _ in range(3)]
    assert whole[0] == whole[1] == whole[2]
    counts = Counter(i for _, _, i, _ in built)
    assert counts and set(counts.values()) == {3}
    assert set(t.memo) == {"grading"}


def test_an_adjoint_operator_is_walked_once(monkeypatch):
    # an adjoint complex has its scalar complex's builder, walked once as
    # itself: the ternary-adjoint (Z, B, H) on induced gl(2|1) walks
    # delta2 and delta1 once each, and a binary-adjoint cocycle basis
    # walks d^2 once
    lie, rep = glmn(2, 1)
    _, t = induced(lie, rep)
    walks = walked(monkeypatch)
    assert cohomology_dims(t, "ternary-adjoint", 2) == (41, 36, 5)
    assert walks == [("ternary-adjoint", 2), ("ternary-adjoint", 1)]
    walks.clear()
    assert len(cocycles(lie, "binary-adjoint", 2, 0)) == 36
    assert walks == [("binary-adjoint", 2)]


def test_cohomology_groups_each_degree_once(monkeypatch):
    # the degree-p keys are the upper coboundary's columns and the lower
    # one's rows: one _weight_groups per degree, and one walk per operator
    lie, _ = glmn(2, 2)
    _, t = induced(*glmn(2, 1))
    groups = Counter()
    weight_groups = cohomology._weight_groups

    def spy(cx, degree, space, weights):
        groups[degree] += 1
        return weight_groups(cx, degree, space, weights)

    for obj, cx, want in ((lie, "binary-scalar", (7, 7, 0)),
                          (t, "ternary-scalar", (5, 4, 1))):
        walks = walked(monkeypatch)
        monkeypatch.setattr(cohomology, "_weight_groups", spy)
        groups.clear()
        assert cohomology_dims(obj, cx, 2) == want
        assert groups == {1: 1, 2: 1, 3: 1}, cx
        assert walks == [(cx, 2), (cx, 1)]
        monkeypatch.undo()


def adaptation_cases():
    """(name, t) of induced algebras for the adapted basis: those the
    cohomology-ladder workload queries, gl(3|1) and gl(4|0), the diagonal
    Yau twist of each gl(m|n), dense gl(2|1) and gl(1|1) conjugates, and
    gl(2|2) with alpha = central_twist(2, 2)."""
    for m, n in ((1, 1), (2, 1), (2, 2), (3, 1), (4, 0)):
        lie, rep = glmn(m, n)
        yield f"gl{m}{n}", induced(lie, rep)[1]
        twisted = diagonal_twist(lie, m, n)
        tau = TraceFunctional(twisted, trace_functional(rep).values)
        yield f"gl{m}{n}t", induce_ternary(twisted, tau, twisted.alpha,
                                           twisted.alpha)
    for seed in (1, 2):
        yield f"gl11c{seed}", induced(*conjugate_gl11(random.Random(seed)))[1]
    lie, rep = glmn(2, 1)
    yield "gl21c", induced(*conjugate_pair(lie, rep, random_even_invertible(
        random.Random(1), lie.space)))[1]
    yield "gl22central", central_twisted(2, 2)[1]


def central_twisted(m, n):
    """(lie, t) of tools/ci_documents.py's central-twist document:
    gl(m|n) with alpha = central_twist(m, n), not multiplicative, and the
    algebra it induces with alpha1 = alpha2 = alpha."""
    doc = ci_documents.central(m, n)
    return doc.lie, doc.ternary


def test_adapted_cohomology_matches_the_document_basis(monkeypatch):
    # dims do not change under an even change of basis: ts2 and ta2 in the
    # adapted basis against the document basis.  Every algebra is moved
    # but the gl(1|1) ones, whose bracket's image is a line, not a
    # hyperplane, and the central twist, which sends e_u out of span(e_u)
    adapted = cohomology._adapted
    for name, t in adaptation_cases():
        kept = name.startswith("gl11") or name == "gl22central"
        assert (adapted(t) is t) == kept, name
        got = [cohomology_dims(t, cx, 2)
               for cx in ("ternary-scalar", "ternary-adjoint")]
        monkeypatch.setattr(cohomology, "_adapted", lambda obj: obj)
        want = [cohomology_dims(t, cx, 2)
                for cx in ("ternary-scalar", "ternary-adjoint")]
        monkeypatch.undo()
        assert got == want, name


def test_the_adapted_basis_grades_the_induced_bracket_once_more():
    # moved, induced gl(2|1) and gl(2|2) hold u once in every stored key,
    # so [K, K, K] = 0 and [u, u, .] = 0, and their grading rank goes from
    # 2 and 3 to 3 and 4; each algebra's memo holds its own grading
    for (m, n), ranks in (((2, 1), (2, 3)), ((2, 2), (3, 4))):
        _, t = induced(*glmn(m, n))
        moved = cohomology._adapted(t)
        keys = list(moved.bracket.integer[1])
        u, = set.intersection(*map(set, keys))
        assert all(key.count(u) == 1 for key in keys)
        assert (len(_weight_basis(t)), len(_weight_basis(moved))) == ranks
        assert set(t.memo) == set(moved.memo) == {"grading"}


def transports(monkeypatch):
    """Spy on cohomology.change_of_basis: a list that gets each algebra
    it moves."""
    moves = []
    transport = cohomology.change_of_basis

    def spy(obj, s):
        moves.append(obj)
        return transport(obj, s)

    monkeypatch.setattr(cohomology, "change_of_basis", spy)
    return moves


def test_the_document_is_checked_before_any_transport(monkeypatch):
    # the twist, row cap and parity law checks run on the document with
    # their own messages, and no basis is moved for an algebra they refuse
    moves = transports(monkeypatch)
    two = read_document(FIXTURES / "gl11_two_twists.json").ternary
    with pytest.raises(PreconditionError, match="needs alpha1 = alpha2"):
        cohomology_dims(two, "ternary-scalar", 2)
    _, t22 = induced(*glmn(2, 2))
    with pytest.raises(InputError, match="33554432 rows"):
        cohomology_dims(t22, "ternary-scalar", 3)
    _, t21 = induced(*glmn(2, 1))
    p = t21.space.parities
    evens = [i for i, q in enumerate(p) if not q][:3]
    broken = TernaryHomLieSuper(t21.space, t21.bracket.with_entry(
        *evens, unit_vec(t21.dim, p.index(1))), t21.alpha1, t21.alpha2)
    with pytest.raises(PreconditionError, match="parity law"):
        cohomology_dims(broken, "ternary-scalar", 2)
    assert not moves and not (two.memo or t22.memo or broken.memo)
    assert cohomology_dims(t21, "ternary-scalar", 2) == (5, 4, 1)
    assert moves == [t21]


def test_a_twist_off_the_adapted_split_builds_no_copy(monkeypatch):
    # every twist must keep span(e_u) and ker phi, both read off the
    # document before any transport.  central_twist(2, 2) sends e_u = E0_0
    # to E0_0 + I, out of span(e_u): ts2 and ta2 are plain gl(2|2)'s, and
    # no basis is moved.  A twist of induced gl(2|1) that fixes e_u but
    # sends E0_1 to E0_1 + E0_0 leaves ker phi, so nothing moves either
    moves = transports(monkeypatch)
    _, t = central_twisted(2, 2)
    assert cohomology_dims(t, "ternary-scalar", 2) == (10, 7, 3)
    assert cohomology_dims(t, "ternary-adjoint", 2) == (144, 120, 24)
    assert not moves and set(t.memo) == {"grading"}
    _, t21 = induced(*glmn(2, 1))
    u, k = t21.space.index("E0_0"), t21.space.index("E0_1")
    shear = GradedMap(t21.space, t21.space, Matrix.build(
        [[int(r == c or (r, c) == (u, k)) for c in range(t21.dim)]
         for r in range(t21.dim)]))
    sheared = TernaryHomLieSuper(t21.space, t21.bracket, shear, shear)
    assert cohomology._adapted(sheared) is sheared and not moves
    assert cohomology._adapted(t21) is not t21 and moves == [t21]


def test_each_grading_is_solved_once_in_its_own_memo(monkeypatch):
    # ts1, ts2, ta1 and ta2 on induced gl(2|1) in one session: the
    # document's weight basis is solved once, by ts1, and each adapted
    # copy's once (the copy is not kept between calls), each grading
    # staying in its own algebra's memo
    _, t = induced(*glmn(2, 1))
    solved = []
    weight_basis = cohomology._weight_basis

    def spy(obj):
        solved.append(obj)
        return weight_basis(obj)

    monkeypatch.setattr(cohomology, "_weight_basis", spy)
    assert [cohomology_dims(t, cx, degree)
            for cx in ("ternary-scalar", "ternary-adjoint")
            for degree in (1, 2)] == [(1, 0, 1), (5, 4, 1), (5, 0, 5),
                                      (41, 36, 5)]
    assert len(solved) == 3 and solved[0] is t
    assert t not in solved[1:] and solved[1] is not solved[2]
    assert all(set(obj.memo) == {"grading"} for obj in solved)


def test_an_escaped_coboundary_names_the_identity_the_algebra_breaks(
        monkeypatch):
    # alpha = central_twist(m, n) is not multiplicative, and on gl(2|1)
    # tau o alpha != tau, so the induced bracket breaks Hom-Nambu: d^2 !=
    # 0, B leaves Z, and the error names the first identity the verifiers
    # find broken (Hom-Jacobi or Hom-Nambu first, then multiplicativity)
    # with its first witness.  They run on this path alone: gl(1|1)'s bs3,
    # whose d^2 vanishes, calls none of them
    lie21, t21 = central_twisted(2, 1)
    lie22, _ = central_twisted(2, 2)
    lie11, _ = central_twisted(1, 1)
    multiplicative = "multiplicative at (E0_0, E0_1)"
    nambu = "hom-nambu at (E0_0, E1_1, E0_0, E2_2, E0_1)"
    for obj, cx, degree, broken in ((lie21, "binary-scalar", 3, multiplicative),
                                    (t21, "ternary-scalar", 2, nambu),
                                    (t21, "ternary-adjoint", 2, nambu),
                                    (lie22, "binary-scalar", 3, multiplicative)):
        with pytest.raises(PreconditionError) as caught:
            cohomology_dims(obj, cx, degree)
        assert str(caught.value) == ("coboundary escaped the cocycle space: "
                                     f"the algebra breaks {broken}"), cx
    verified = []
    for name in ("verify_hom_jacobi", "verify_multiplicative",
                 "verify_hom_nambu", "verify_ternary_multiplicative"):
        monkeypatch.setattr(cohomology, name, verified.append)
    assert cohomology_dims(lie11, "binary-scalar", 3) == (3, 3, 0)
    assert not verified


def test_no_key_has_more_parts_than_a_grading_slot_sums():
    # _grading's slots hold a sum of up to eight weights, one per part of
    # a key, so that two keys' packed weights agree exactly when their
    # weights do.  The keys of every degree _DEGREES lists, row keys
    # included, have at most eight parts (a ternary degree-4 key has
    # seven), so a coboundary of a higher degree fails here
    space = gl11()[0].space
    parts = {(cx, d): len(key_parts(cochain_keys(cx, d, space)[0]))
             for cx, degrees in _DEGREES.items() for d in degrees}
    assert parts["ternary-scalar", 4] == 7
    assert max(parts.values()) <= 8, parts


def walked(monkeypatch):
    """Spy on every walk: a list that gets (complex, degree) for each."""
    walks = []
    walk = cohomology._walk

    def spy(obj, cx, degree):
        walks.append((cx, degree))
        return walk(obj, cx, degree)

    monkeypatch.setattr(cohomology, "_walk", spy)
    return walks


def built_rows(monkeypatch):
    """Spy on every walk: a list that gets (complex, degree, key, row) for
    each row a builder yields, key its position among the row keys."""
    built = []
    walk = cohomology._walk

    def spy(obj, cx, degree):
        multiplier, rows = walk(obj, cx, degree)

        def spied(row_keys, col_keys):
            row_keys = list(row_keys)
            for i, row in zip(row_keys, rows(row_keys, col_keys)):
                built.append((cx, degree, i, row))
                yield row
        return multiplier, spied

    monkeypatch.setattr(cohomology, "_walk", spy)
    return built


def test_scalar_cohomology_builds_only_the_blocks_it_eliminates(monkeypatch):
    # a scalar (Z, B, H) in degree p eliminates the even (q, w) blocks of
    # the degree-p and degree-(p - 1) coboundaries alone, so no odd row
    # and no row of another degree is built; the adjoint lift reads both
    # key parities, and cocycles the one degree it is asked for.  Rows go
    # to rref as they are built and are not kept: the memo holds the
    # grading alone
    lie, rep = gl11()
    _, t = induced(lie, rep)
    built = built_rows(monkeypatch)

    def blocks(obj):
        """The (degree, key parity) of every row built since last asked."""
        parities = {}
        for cx, degree, _, _ in built:
            if degree not in parities:
                parities[degree] = coordinate_parities(
                    cx.replace("adjoint", "scalar"), degree + 1, obj.space)
        out = {(degree, parities[degree][i]) for _, degree, i, _ in built}
        built.clear()
        return out

    assert cohomology_dims(t, "ternary-scalar", 2) == (7, 1, 6)
    assert blocks(t) == {(1, 0), (2, 0)} and set(t.memo) == {"grading"}
    assert cohomology_dims(t, "ternary-adjoint", 2) == (30, 2, 28)
    assert blocks(t) == {(1, 0), (1, 1), (2, 0), (2, 1)}
    assert set(t.memo) == {"grading"}
    assert cohomology_dims(lie, "binary-scalar", 2) == (1, 1, 0)
    assert blocks(lie) == {(1, 0), (2, 0)} and set(lie.memo) == {"grading"}
    cocycles(lie, "binary-scalar", 2, 1)
    assert blocks(lie) == {(2, 1)}


def test_coboundaries_need_the_parity_law():
    # the blocks split by key parity, which a bracket breaking the parity
    # law does not keep, so no coboundary of it is built
    lie, _ = gl11()
    broken = HomLieSuper(lie.space, lie.bracket.with_entry(0, 1, (0, 0, 1, 0)),
                         lie.alpha)
    assert not broken.bracket.super_skew
    for call in (lambda: coboundary_matrix(broken, "binary-scalar", 2),
                 lambda: cohomology_dims(broken, "binary-scalar", 2),
                 lambda: is_binary_cocycle(broken, Cochain.zero(
                     "binary-scalar", 2, lie.space))):
        with pytest.raises(PreconditionError, match="parity law"):
            call()
    assert not broken.memo


# --- direct-evaluation oracles ----------------------------------------------
# Each one evaluates the displayed formula per coordinate, on cochains laid
# out by hand (keys in order, an adjoint value's dim entries after its key),
# so a shared mistake in cochain_keys and the builders shows up here.


def oracle_algebras():
    lie, rep = gl11()
    yield "gl11", lie, rep
    lie, rep = gl11t()
    yield "gl11t", lie, rep
    lie, rep = conjugate_gl11(random.Random(79))
    yield "conj", lie, rep
    lie, rep = gl11t()
    yield "conjt", *conjugate_pair(lie, rep, random_even_invertible(
        random.Random(1), lie.space))


def test_oracle_algebras_tell_the_integer_scales_apart():
    # the builders divide by D_W D_alpha^k; gl11t has D_W = D_alpha = 2,
    # where D_W^2 D_alpha and D_W D_alpha^2 agree, so conjt is there to
    # have D_alpha > 1 and D_W != D_alpha on both the binary bracket and
    # the induced ternary one
    lie, rep = next((l, r) for name, l, r in oracle_algebras()
                    if name == "conjt")
    _, t = induced(lie, rep)
    da = integer_terms(lie.alpha.matrix.entries)[0]
    assert da > 1
    assert lie.bracket.integer[0] != da and t.bracket.integer[0] != da


def rand_entry(rng, live):
    return Fraction(rng.randint(-3, 3)) if live else Fraction(0)


def test_delta1_matches_direct_formula():
    # delta1 f(X, z) = -f(X.z), X.z = [x1, x2, z], on both ternary complexes
    rng = random.Random(80)
    for name, lie, rep in oracle_algebras():
        tau, t = induced(lie, rep)
        p, dim = lie.space.parities, lie.dim
        for parity in (0, 1):
            fs = [rand_entry(rng, p[k] == parity) for k in range(dim)]
            fa = [[rand_entry(rng, (p[k] + p[o]) % 2 == parity)
                   for o in range(dim)] for k in range(dim)]
            want_s, want_a = [], []
            for x1, x2 in skew_basis(2, lie.space).tuples:
                for z in range(dim):
                    act = t.bracket.value(x1, x2, z)
                    want_s.append(-sum(c * fs[m] for m, c in enumerate(act)))
                    want_a.extend(-sum(c * fa[m][o] for m, c in enumerate(act))
                                  for o in range(dim))
            f_adj = tuple(x for row in fa for x in row)
            Cochain("ternary-adjoint", 1, parity, lie.space, f_adj)  # legal
            d1s = coboundary_matrix(t, "ternary-scalar", 1)
            d1a = coboundary_matrix(t, "ternary-adjoint", 1)
            assert d1s.apply(tuple(fs)) == tuple(want_s), (name, parity)
            assert d1a.apply(f_adj) == tuple(want_a), (name, parity)


def pair_value(phi, i, j, parities, zero):
    """phi(e_i, e_j) from its canonical-pair values, by super-skewness."""
    if i == j and not parities[i]:
        return zero
    if i <= j:
        return phi[(i, j)]
    s = 1 if parities[i] and parities[j] else -1
    return tuple(s * c for c in phi[(j, i)])


def test_binary_adjoint_d1_matches_direct_formula():
    # (d psi)(x, y) = -psi([x, y]) for a map psi: g -> g, per output index
    rng = random.Random(84)
    for name, lie, rep in oracle_algebras():
        p, dim = lie.space.parities, lie.dim
        for parity in (0, 1):
            psi = [[rand_entry(rng, (p[m] + p[o]) % 2 == parity)
                    for o in range(dim)] for m in range(dim)]
            want = []
            for x, y in skew_basis(2, lie.space).tuples:
                br = lie.bracket.value(x, y)
                want.extend(-sum(c * psi[m][o] for m, c in enumerate(br))
                            for o in range(dim))
            coords = tuple(c for row in psi for c in row)
            got = coboundary_matrix(lie, "binary-adjoint", 1).apply(coords)
            assert got == tuple(want), (name, parity)


def test_binary_adjoint_cocycle_matrix_matches_direct_formula():
    # (d phi)(x, y, z) = phi(a x, [y, z]) + (-1)^{|x|(|y|+|z|)} phi(a y, [z, x])
    #                    + (-1)^{|z|(|x|+|y|)} phi(a z, [x, y])
    # on every ordered triple equals the sorting sign times the matrix's
    # value on the sorted triple (its rows run over canonical triples, then
    # the output index), and zero when an even index repeats; gl(2|1) has
    # ordered triples of three distinct even indices, which gl(1|1) lacks
    rng = random.Random(81)
    for name, lie, rep in (*oracle_algebras(), ("gl21", *glmn(2, 1))):
        sp = lie.space
        p, dim = sp.parities, lie.dim
        zero = (Fraction(0),) * dim

        def ev(phi, u, v):
            out = list(zero)
            for i, ui in enumerate(u):
                for j, vj in enumerate(v):
                    if ui and vj:
                        val = pair_value(phi, i, j, p, zero)
                        for o in range(dim):
                            out[o] += ui * vj * val[o]
            return out

        for parity in (0, 1):
            pairs = skew_basis(2, sp).tuples
            phi = {(i, j): tuple(rand_entry(rng, (p[i] + p[j] + p[o]) % 2 == parity)
                                 for o in range(dim)) for i, j in pairs}
            coords = tuple(x for key in pairs for x in phi[key])
            Cochain("binary-adjoint", 2, parity, sp, coords)  # legal
            got = coboundary_matrix(lie, "binary-adjoint", 2).apply(coords)
            triples = skew_basis(3, sp).tuples
            assert len(got) == len(triples) * dim, name
            by_triple = {key: got[n * dim:(n + 1) * dim]
                         for n, key in enumerate(triples)}
            for x, y, z in product(range(dim), repeat=3):
                sa = -1 if p[x] and (p[y] ^ p[z]) else 1
                sb = -1 if p[z] and (p[x] ^ p[y]) else 1
                terms = (ev(phi, lie.alpha.column(x), lie.bracket.value(y, z)),
                         ev(phi, lie.alpha.column(y), lie.bracket.value(z, x)),
                         ev(phi, lie.alpha.column(z), lie.bracket.value(x, y)))
                want = [a + sa * b + sb * c for a, b, c in zip(*terms)]
                key, sign, repeats = canonicalize((x, y, z), p)
                row = zero if repeats else tuple(sign * c
                                                 for c in by_triple[key])
                assert tuple(want) == row, (name, parity, (x, y, z))


def skew_value(f, idx, p):
    """f(e_idx) for a super-skew f given on canonical tuples: swapping
    neighbours a, b costs -(-1)^{|a||b|}, and an even index twice gives 0.
    f maps a canonical tuple to a scalar or a vector."""
    idx, sign = list(idx), 1
    for n in range(len(idx)):
        for j in range(len(idx) - 1 - n):
            a, b = idx[j], idx[j + 1]
            if a > b:
                idx[j], idx[j + 1] = b, a
                sign *= 1 if p[a] and p[b] else -1
    if any(a == b and not p[a] for a, b in zip(idx, idx[1:])):
        return None
    v = f(tuple(idx))
    return sign * v if not isinstance(v, tuple) else tuple(sign * c for c in v)


def multilinear(f, vectors, p, zero):
    """f(v_1, ..., v_r), expanded over the nonzero coordinates."""
    total = zero
    for idx in product(*[[i for i, c in enumerate(v) if c] for v in vectors]):
        val = skew_value(f, idx, p)
        if val is None:
            continue
        coef = Fraction(1)
        for v, i in zip(vectors, idx):
            coef *= v[i]
        total = (total + coef * val if not isinstance(val, tuple)
                 else tuple(x + coef * y for x, y in zip(total, val)))
    return total


def test_ds_matches_direct_formula_in_degrees_2_and_3():
    # (d f)(x_0, ..., x_p) = sum_{i<j} (-1)^{i+j} eps_ij
    #                        f([x_i, x_j], a x_0, ..., ^i, ^j, ..., a x_p),
    # eps_ij the sign of moving x_i, then x_j, to the front
    rng = random.Random(82)
    for name, lie, rep in oracle_algebras():
        sp = lie.space
        p = sp.parities
        cols = [lie.alpha.column(i) for i in range(lie.dim)]
        for degree in (2, 3):
            for parity in (0, 1):
                keys = skew_basis(degree, sp).tuples
                fv = {key: rand_entry(rng, sum(p[i] for i in key) % 2 == parity)
                      for key in keys}
                coords = tuple(fv[key] for key in keys)
                Cochain("binary-scalar", degree, parity, sp, coords)  # legal
                want = []
                for X in skew_basis(degree + 1, sp).tuples:
                    total = Fraction(0)
                    for i in range(degree + 1):
                        for j in range(i + 1, degree + 1):
                            moved = (p[X[i]] * sum(p[X[t]] for t in range(i))
                                     + p[X[j]] * sum(p[X[t]] for t in range(j)
                                                     if t != i))
                            sign = (-1) ** (i + j + moved)
                            args = [lie.bracket.value(X[i], X[j])] + [
                                cols[X[t]] for t in range(degree + 1)
                                if t not in (i, j)]
                            total += sign * multilinear(fv.__getitem__, args, p,
                                                        Fraction(0))
                    want.append(total)
                got = coboundary_matrix(lie, "binary-scalar",
                                        degree).apply(coords)
                assert got == tuple(want), (name, degree, parity)


def test_delta2_matches_direct_formula_on_both_complexes():
    # scalar:  -f([X,Y]_a, a z) - (-1)^{|X||Y|} f(aY, X.z) + f(aX, Y.z),
    #   [X,Y]_a = X.y1 ^ a y2 + (-1)^{|X||y1|} a y1 ^ X.y2;
    # adjoint adds each scalar term again times (-1)^{|f| e}, e = 0 on
    #   every term: no value passes an argument, so either parity |f| sees
    #   the scalar terms twice.
    # f(u ^ v, w) is read as a form in three vector slots, super-skew in the
    # first two; rows run over pairs X, Y and the element z, then the output.
    rng = random.Random(83)
    for name, lie, rep in oracle_algebras():
        tau, t = induced(lie, rep)
        sp = lie.space
        p, dim = sp.parities, lie.dim
        pairs = skew_basis(2, sp).tuples
        a = [lie.alpha.column(i) for i in range(dim)]

        def act(x1, x2, z):
            return t.bracket.value(x1, x2, z)

        for parity in (0, 1):
            fs = {(pair, m): rand_entry(rng, (p[pair[0]] + p[pair[1]] + p[m])
                                        % 2 == parity)
                  for pair in pairs for m in range(dim)}
            fa = {(pair, m): tuple(rand_entry(rng, (p[pair[0]] + p[pair[1]]
                                                    + p[m] + p[o]) % 2 == parity)
                                   for o in range(dim))
                  for pair in pairs for m in range(dim)}
            for cx, f, zero in (("ternary-scalar", fs, Fraction(0)),
                                ("ternary-adjoint", fa, (Fraction(0),) * dim)):
                def F(u, v, w):
                    total = zero
                    for m, wm in enumerate(w):
                        if wm:
                            part = multilinear(lambda pair: f[(pair, m)],
                                               [u, v], p, zero)
                            total = (total + wm * part if cx == "ternary-scalar"
                                     else tuple(x + wm * y
                                                for x, y in zip(total, part)))
                    return total

                def comb(terms):
                    out = zero
                    for c, v in terms:
                        out = (out + c * v if cx == "ternary-scalar"
                               else tuple(x + c * y for x, y in zip(out, v)))
                    return out

                coords = tuple(c for key in (
                    (pair, m) for pair in pairs for m in range(dim))
                    for c in ((f[key],) if cx == "ternary-scalar" else f[key]))
                Cochain(cx, 2, parity, sp, coords)  # legal
                want = []
                for x1, x2 in pairs:
                    px = (p[x1] + p[x2]) % 2
                    for y1, y2 in pairs:
                        py = (p[y1] + p[y2]) % 2
                        sy1 = (-1) ** (px * p[y1])
                        for z in range(dim):
                            terms = [
                                (-1, F(act(x1, x2, y1), a[y2], a[z])),
                                (-sy1, F(a[y1], act(x1, x2, y2), a[z])),
                                (-(-1) ** (px * py), F(a[y1], a[y2],
                                                       act(x1, x2, z))),
                                (1, F(a[x1], a[x2], act(y1, y2, z)))]
                            if cx == "ternary-adjoint":
                                terms += terms
                            val = comb(terms)
                            want.extend((val,) if cx == "ternary-scalar" else val)
                got = coboundary_matrix(t, cx, 2).apply(coords)
                assert got == tuple(want), (name, cx, parity)


def lift(m, dim):
    """Value-free rows applied once per output: column j of output o at
    j * dim + o."""
    return Matrix(m.rows * dim, m.cols * dim, tuple(
        tuple((j * dim + o, x) for j, x in row)
        for row in m.entries for o in range(dim)))


def test_adjoint_complexes_read_the_scalar_rows():
    """The adjoint coboundaries are the scalar ones, read per output:

    - the ternary-adjoint delta1 is the lifted scalar delta1;
    - the ternary-adjoint delta2, on cochains of either parity, is twice
      the lifted scalar delta2;
    - the binary-adjoint coboundary is the lifted d_s^2: on every ordered
      triple (x, y, z), the cyclic operator's row is the d_s^2 row of the
      sorted triple times the sorting sign, and zero when an even index
      repeats.

    No cochain value enters a bracket.  Adding the rho(alpha X) . f action
    terms of representation-valued cohomology would change every one of
    these on purpose.
    """
    for name, lie, rep in (*oracle_algebras(), ("gl21", *glmn(2, 1))):
        _, t = induced(lie, rep)
        dim, p = lie.dim, lie.space.parities
        assert coboundary_matrix(t, "ternary-adjoint", 1) == lift(
            coboundary_matrix(t, "ternary-scalar", 1), dim), name
        assert coboundary_matrix(t, "ternary-adjoint", 2) == lift(
            coboundary_matrix(t, "ternary-scalar", 2), dim).scale(2), name
        ds2 = coboundary_matrix(lie, "binary-scalar", 2)
        position = skew_basis(3, lie.space).index
        for xyz in product(range(dim), repeat=3):
            key, sign, zero = canonicalize(xyz, p)
            want = {} if zero else {c: sign * x
                                    for c, x in ds2.entries[position[key]]}
            assert cyclic_row(lie, xyz) == want, (name, xyz)
        assert coboundary_matrix(lie, "binary-adjoint", 2) == lift(ds2, dim), \
            name


def cyclic_row(lie, xyz):
    """The coefficient of phi on each canonical pair, by position, in
    phi(a x, [y, z]) + (-1)^{|x|(|y|+|z|)} phi(a y, [z, x])
    + (-1)^{|z|(|x|+|y|)} phi(a z, [x, y]), zeros left out."""
    p = lie.space.parities
    position = skew_basis(2, lie.space).index
    x, y, z = xyz
    sa = -1 if p[x] and (p[y] ^ p[z]) else 1
    sb = -1 if p[z] and (p[x] ^ p[y]) else 1
    row = {}
    for s, u, v, w in ((1, x, y, z), (sa, y, z, x), (sb, z, x, y)):
        for i, ai in enumerate(lie.alpha.column(u)):
            for j, bj in enumerate(lie.bracket.value(v, w)):
                key, sign, zero = canonicalize((i, j), p)
                if ai and bj and not zero:
                    c = position[key]
                    row[c] = row.get(c, 0) + s * sign * ai * bj
    return {c: x for c, x in row.items() if x}


# --- degree 3 and the one Leibniz builder -------------------------------------


def wedge2(u, v, p):
    """u ^ v on canonical pairs, {pair: coefficient}, by skew_value's signs."""
    out = {}
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            s = skew_value(lambda key: Fraction(1), (i, j), p)
            if ui and vj and s is not None:
                key = tuple(sorted((i, j)))
                out[key] = out.get(key, 0) + s * ui * vj
    return out


def test_leibniz_coboundary_matches_direct_formula_in_degrees_1_to_3():
    # delta f(X_1, .., X_p, z), i counted from 1, is
    #   sum_{i<j} (-1)^i (-1)^{|X_i|(|X_i+1| + .. + |X_j-1|)}
    #             f(aX_1, .., ^i, .., [X_i,X_j]_a in slot j, .., aX_p, a z)
    # + sum_i (-1)^i (-1)^{|X_i|(|X_i+1| + .. + |X_p|)}
    #             f(aX_1, .., ^i, .., aX_p, X_i.z),
    # aX = a x1 ^ a x2, [X,Y]_a = X.y1 ^ a y2 + (-1)^{|X||y1|} a y1 ^ X.y2;
    # each pair slot is read as a form super-skew in its two vectors
    rng = random.Random(85)
    for name, lie, rep in oracle_algebras():
        tau, t = induced(lie, rep)
        sp = lie.space
        p, dim = sp.parities, lie.dim
        a = [lie.alpha.column(i) for i in range(dim)]

        def act(X, y):
            return t.bracket.value(X[0], X[1], y)

        def pp(X):
            return (p[X[0]] + p[X[1]]) % 2

        @lru_cache(maxsize=None)
        def ax(X):
            return wedge2(a[X[0]], a[X[1]], p)

        @lru_cache(maxsize=None)
        def br(X, Y):
            out = wedge2(act(X, Y[0]), a[Y[1]], p)
            s = (-1) ** (pp(X) * p[Y[0]])
            for key, c in wedge2(a[Y[0]], act(X, Y[1]), p).items():
                out[key] = out.get(key, 0) + s * c
            return out

        for degree in (1, 2, 3):
            keys = cochain_keys("ternary-scalar", degree, sp)
            for parity in (0, 1):
                f = {key: rand_entry(rng, sum(
                    pp(part) if isinstance(part, tuple) else p[part]
                    for part in (key if degree > 1 else (key,))) % 2 == parity)
                    for key in keys}

                def F(slots, w):
                    total = Fraction(0)
                    for parts in product(*[s.items() for s in slots]):
                        prefix = tuple(P for P, _ in parts)
                        inner = sum(wm * f[(*prefix, m) if slots else m]
                                    for m, wm in enumerate(w) if wm)
                        for _, x in parts:
                            inner *= x
                        total += inner
                    return total

                want = []
                for *X, z in cochain_keys("ternary-scalar", degree + 1, sp):
                    total = Fraction(0)
                    for i in range(1, degree + 1):
                        others = [ax(X[k - 1]) for k in range(1, degree + 1)
                                  if k != i]
                        tail = sum(pp(Y) for Y in X[i:])
                        total += ((-1) ** (i + pp(X[i - 1]) * tail)
                                  * F(others, act(X[i - 1], z)))
                        for j in range(i + 1, degree + 1):
                            slots = [br(X[i - 1], X[j - 1]) if k == j
                                     else ax(X[k - 1])
                                     for k in range(1, degree + 1) if k != i]
                            between = sum(pp(Y) for Y in X[i:j - 1])
                            total += ((-1) ** (i + pp(X[i - 1]) * between)
                                      * F(slots, a[z]))
                    want.append(total)
                coords = tuple(f[key] for key in keys)
                Cochain("ternary-scalar", degree, parity, sp, coords)  # legal
                got = coboundary_matrix(t, "ternary-scalar",
                                        degree).apply(coords)
                assert got == tuple(want), (name, degree, parity)


def test_degree_3_cohomology_on_gl11_its_twist_and_conjugates():
    for name, lie, rep in oracle_algebras():
        _, t = induced(lie, rep)
        assert cohomology_dims(t, "ternary-scalar", 3) == (38, 9, 29), name
        assert cohomology_dims(lie, "binary-scalar", 3) == (3, 3, 0), name


def _parts_parity(key, p) -> int:
    """A cochain key's parity from its parts: every index of every pair,
    and the element."""
    if isinstance(key, tuple):
        return sum(_parts_parity(part, p) for part in key) % 2
    return p[key]


def key_positions(cx, degree, space, q) -> list:
    """The positions of the keys of parity q among cochain_keys, from
    their parts."""
    return [n for n, key in enumerate(cochain_keys(cx, degree, space))
            if _parts_parity(key, space.parities) == q]


def test_coboundary_rows_keep_key_parity_and_blocks_match_select():
    """Every (q, w) block one walk streams, of every _BUILDERS entry, on
    gl(1|1), its twist, a conjugate and gl(2|1), has one row per row key
    of its label and one column per column key, every entry column an int
    among them (a builder raises on a term outside them, see
    test_builders_raise_on_a_term_off_their_key_parity).  The blocks put
    back into key order, in ints, cover each row key at most once, and
    are an operator whose rows read only columns of the row's key parity.
    Each block, times its multiplier, is also the select of the assembled
    coboundary_matrix at an even and an odd output, but on gl(2|1)
    delta3, which assembles to 1.8M Fractions.  The blocks are checked
    against the walk in test_weight_blocks_are_the_select_of_their_parity_block."""
    algebras = [(name, lie, rep) for name, lie, rep in oracle_algebras()
                if name != "conjt"]
    algebras.append(("gl21", *glmn(2, 1)))
    for name, lie, rep in algebras:
        _, t = induced(lie, rep)
        for cx, degree in _BUILDERS:
            obj = t if cx.startswith("ternary") else lie
            p = obj.space.parities
            dim = obj.dim if cx.endswith("adjoint") else 1
            # one even and one odd output: the lift is checked per output
            # in test_adjoint_complexes_read_the_scalar_rows
            outputs = [p.index(e) for e in (0, 1)] if dim > 1 else [0]
            rkeys = cochain_keys(cx.replace("adjoint", "scalar"), degree + 1,
                                 obj.space)
            ckeys = cochain_keys(cx, degree, obj.space)
            rowp = [_parts_parity(key, p) for key in rkeys]
            colp = [_parts_parity(key, p) for key in ckeys]
            labels = block_labels(obj, cx, degree)
            blocks = read_blocks(obj, cx, degree, labels)
            whole = [()] * len(rkeys)
            for row_keys, col_keys, m, _ in blocks:
                assert (m.rows, m.cols) == (len(row_keys), len(col_keys))
                assert all(type(c) is int and 0 <= c < m.cols
                           for row in m.entries for c, _ in row), \
                    (name, cx, degree)
                for i, row in zip(row_keys, m.entries):
                    assert whole[i] == ()
                    whole[i] = tuple((col_keys[c], x) for c, x in row)
            for i, row in enumerate(whole):
                assert all(colp[c] == rowp[i] for c, _ in row), \
                    (name, cx, degree)
            if (name, degree) == ("gl21", 3):
                continue
            full = coboundary_matrix(obj, cx, degree)
            assert (full.rows, full.cols) == (len(rkeys) * dim,
                                              len(ckeys) * dim)
            for i, row in enumerate(full.entries):
                assert all(colp[c // dim] == rowp[i // dim]
                           for c, _ in row), (name, cx, degree)
            assert all(full.entries[i * dim + o] == () for o in
                       range(dim) for i, row in enumerate(whole) if not row)
            for row_keys, col_keys, m, multiplier in blocks:
                want = m.scale(multiplier)
                for o in outputs:
                    assert want == select(
                        full, [i * dim + o for i in row_keys],
                        [j * dim + o for j in col_keys]), \
                        (name, cx, degree, o)


def test_builders_raise_on_a_term_off_their_key_parity():
    # called past the operator check, on brackets that break the parity
    # law, each builder raises on the first term outside its key parity
    # instead of dropping it or keeping it under no column
    lie, rep = gl11()
    _, t = induced(lie, rep)
    broken = HomLieSuper(lie.space, lie.bracket.with_entry(0, 1, (0, 0, 1, 0)),
                         lie.alpha)
    tbroken = TernaryHomLieSuper(
        t.space, t.bracket.with_entry(0, 2, 3, (0, 0, 1, 0)), t.alpha1,
        t.alpha2)
    for obj, cx, degree in ((broken, "binary-scalar", 1),
                            (broken, "binary-scalar", 2),
                            (tbroken, "ternary-scalar", 1),
                            (tbroken, "ternary-scalar", 2)):
        rows = _BUILDERS[cx, degree](obj, cx, degree)[1]
        with pytest.raises(PreconditionError, match="parity law"):
            for q in (0, 1):
                list(rows(key_positions(cx, degree + 1, obj.space, q),
                          key_positions(cx, degree, obj.space, q)))
    assert not broken.memo and not tbroken.memo


def diagonal_twist(lie, m, n):
    """The Yau twist of gl(m|n) along E_ij -> (d_i / d_j) E_ij, d_i = i + 1:
    a diagonal twist, so it keeps the torus of gl(m|n)."""
    scale = [Fraction(i + 1, j + 1) for i, j in matrix_units(m, n)]
    alpha = Matrix.build([[scale[r] if r == c else 0 for c in range(lie.dim)]
                          for r in range(lie.dim)])
    return yau_twist(lie, GradedMap(lie.space, lie.space, alpha))


def homogeneity_equations(obj) -> set:
    """The distinct homogeneity equations of obj's document, as (k, sorted
    slots), read in Fractions: w_k = the sum of the slot weights for each
    nonzero structure constant, and w_m = w_i, as (m, (i,)), for each
    nonzero off-diagonal twist entry."""
    equations = {(m, (i,)) for a in obj.twists for m, row in
                 enumerate(a.matrix.entries) for i, x in row if x and m != i}
    for key in product(range(obj.dim), repeat=obj.bracket.arity):
        for k, x in enumerate(obj.bracket.value(*key)):
            if x:
                equations.add((k, tuple(sorted(key))))
    return equations


def homogeneity_breaks(obj, v) -> list:
    """The equations of obj's document that the weights v break."""
    return sorted((k, slots) for k, slots in homogeneity_equations(obj)
                  if v[k] != sum(v[i] for i in slots))


def test_torus_grading_is_the_kernel_of_the_homogeneity_equations():
    # rank 2 on gl(2|1) and 3 on gl(2|2) and its diagonal twist, the torus
    # of diagonal units; none on a dense conjugate, whose one weight class
    # gives back the parity blocks.  Every weight returned keeps every
    # equation, and the packed grading adds up as the weights do
    lie21, rep21 = glmn(2, 1)
    lie22, rep22 = glmn(2, 2)
    s = random_even_invertible(random.Random(1), lie22.space)
    conj = conjugate_pair(lie22, rep22, s)
    cases = [(lie21, rep21, 2), (lie22, rep22, 3),
             (diagonal_twist(lie22, 2, 2), None, 3), (*conj, 0)]
    for lie, rep, rank in cases:
        objs = [lie]
        if rep is not None:
            objs.append(induced(lie, rep)[1])
        for obj in objs:
            basis = _weight_basis(obj)
            assert len(basis) == rank, (lie.dim, type(obj).__name__)
            assert Subspace.from_vectors(obj.dim, basis).dim == rank
            for v in basis:
                assert homogeneity_breaks(obj, v) == []
            grading = _grading(obj)
            assert obj.memo["grading"] is grading and grading[0] == rank
            weights = grading[1]
            assert (set(weights) == {0}) == (rank == 0)
            if rank:
                # the packed sums tell weights apart exactly as the vectors
                pairs = list(product(range(obj.dim), repeat=2))
                packed = {key: weights[key[0]] + weights[key[1]]
                          for key in pairs}
                vecs = {key: tuple(v[key[0]] + v[key[1]] for v in basis)
                        for key in pairs}
                for x, y in product(pairs, repeat=2):
                    assert (packed[x] == packed[y]) == (vecs[x] == vecs[y])
    # a twist entry off the diagonal ties the two weights
    lie, _ = glmn(2, 1)
    # E1_0 in alpha(E0_1): the weights e0 - e1 and e1 - e0 agree, so 0
    assert lie.space.names[3:5] == ("E0_1", "E1_0")
    alpha = Matrix.build([[1 if r == c or (r, c) == (4, 3) else 0
                           for c in range(lie.dim)] for r in range(lie.dim)])
    tied = HomLieSuper(lie.space, lie.bracket,
                       GradedMap(lie.space, lie.space, alpha))
    (v,) = _weight_basis(tied)
    assert homogeneity_breaks(tied, v) == [] and v[3] == v[4] == 0


def test_weight_blocks_partition_each_operator_as_the_torus_does(
        monkeypatch, gl22_conjugate):
    # how many (q, w) blocks of _blocks even cochains live on (_served),
    # which does not depend on the ints that name a weight; the dense
    # conjugate keeps no torus, so its even blocks are one.  Listing the
    # labels builds no row
    lie21, rep21 = glmn(2, 1)
    lie22, rep22 = glmn(2, 2)
    t21, t22 = induced(lie21, rep21)[1], induced(lie22, rep22)[1]
    conj, _, tconj = gl22_conjugate
    built = built_rows(monkeypatch)
    for obj, cx, degree, count in ((t21, "ternary-scalar", 2, 15),
                                   (t21, "ternary-scalar", 3, 41),
                                   (lie22, "binary-scalar", 2, 27),
                                   (t22, "ternary-scalar", 1, 5),
                                   (t22, "ternary-scalar", 2, 63),
                                   (t22, "ternary-adjoint", 2, 143),
                                   (conj, "binary-scalar", 2, 1),
                                   (tconj, "ternary-scalar", 2, 1)):
        served = _served(cx, obj.space, 0)
        labels = _block_labels(_blocks(obj, cx, degree)[1])
        assert sum(q in served for q, _ in labels) == count, (
            obj.dim, cx, degree)
    assert built == []
    for obj in (t21, lie22, t22):
        assert list(obj.memo) == ["grading"]


def test_grading_stops_reading_equations_at_full_column_rank(
        monkeypatch, gl22_conjugate):
    # the grading is linalg.kernel of the distinct homogeneity equations,
    # streamed to rref, each constant's first coordinate first: on the
    # dense conjugate and its induced bracket the kernel is 0, so rref
    # stops within the first 128 of the 1,024 and 4,544 distinct
    # equations (94 and 79); on plain gl(2|2) it reads each distinct
    # equation once, a repeat never
    reads = []
    rref = linalg.rref

    def spy(m):
        reads.append(0)

        def counted():
            for row in m.entries:
                reads[-1] += 1
                yield row
        return rref(Matrix(m.rows, m.cols, counted()))

    monkeypatch.setattr(linalg, "rref", spy)
    lie, rep = glmn(2, 2)
    conj, _, tconj = gl22_conjugate
    for obj, rank, distinct in ((conj, 0, 1024), (tconj, 0, 4544),
                                (lie, 3, 60), (induced(lie, rep)[1], 3, 196)):
        assert len(homogeneity_equations(obj)) == distinct
        reads.clear()
        assert len(_weight_basis(obj)) == rank
        if rank:
            assert reads[0] == distinct
        else:
            assert reads[0] <= 128


def key_label(key, space, weights) -> tuple:
    """(q, w) of a cochain key from its parts, the oracle of the labels
    the blocks are cut by."""
    parts = key_parts(key)
    return (sum(space.parities[i] for i in parts) % 2,
            sum(weights[i] for i in parts))


def block_labels(obj, cx, degree) -> list:
    """The labels of the cx degree-cochain keys on obj, sorted: one
    block each."""
    return sorted({key_label(key, obj.space, _grading(obj)[1])
                   for key in cochain_keys(cx, degree, obj.space)})


def test_weight_blocks_are_the_select_of_their_parity_block():
    """On gl(1|1), its twist, a conjugate and gl(2|1): every row of every
    key-parity block, built whole by the walk, reads only columns of its
    own label (q, w), so no row crosses weights, and a row of a label no
    column has is zero.  Each parity block, times the multiplier, is the
    select of coboundary_matrix at output 0.  Each (q, w) block _blocks
    streams has its label's row count and keys in key order, is the
    select of its parity block there and is what read_blocks reads."""
    algebras = [(name, lie, rep) for name, lie, rep in oracle_algebras()
                if name != "conjt"]
    algebras.append(("gl21", *glmn(2, 1)))
    for name, lie, rep in algebras:
        _, t = induced(lie, rep)
        for cx, degree in _BUILDERS:
            obj = t if cx.startswith("ternary") else lie
            if (name, cx, degree) == ("gl21", "ternary-scalar", 3):
                continue  # 576,000 rows: too slow to list here
            space, weights = obj.space, _grading(obj)[1]
            dim = obj.dim if cx.endswith("adjoint") else 1
            scalar = cx.replace("adjoint", "scalar")
            rlabels = [key_label(key, space, weights)
                       for key in cochain_keys(scalar, degree + 1, space)]
            clabels = [key_label(key, space, weights)
                       for key in cochain_keys(cx, degree, space)]
            multiplier, rows = _walk(obj, cx, degree)[:2]
            full = coboundary_matrix(obj, cx, degree)
            parity_blocks = {}
            for q in (0, 1):
                prows = key_positions(scalar, degree + 1, space, q)
                pcols = key_positions(cx, degree, space, q)
                m = Matrix(len(prows), len(pcols),
                           tuple(rows(prows, pcols)))
                labels = {clabels[j] for j in pcols}
                for i, row in zip(prows, m.entries):
                    assert all(clabels[pcols[c]] == rlabels[i]
                               for c, _ in row), (name, cx)
                    assert row == () or rlabels[i] in labels, (name, cx)
                assert m.scale(multiplier) == select(
                    full, [i * dim for i in prows],
                    [j * dim for j in pcols]), (name, cx, degree, q)
                parity_blocks[q] = (
                    m, {i: n for n, i in enumerate(prows)},
                    {j: n for n, j in enumerate(pcols)})
            _, groups, blocks = _blocks(obj, cx, degree)
            for label in _block_labels(groups):
                m, rpos, pos = parity_blocks[label[0]]
                count, row_keys, col_keys, built = blocks(label)
                row_keys = list(row_keys)
                assert count == len(row_keys)
                assert row_keys == sorted(row_keys)
                assert list(col_keys) == [
                    j for j, x in enumerate(clabels) if x == label]
                assert row_keys == [
                    i for i, x in enumerate(rlabels) if x == label]
                block = Matrix(count, len(col_keys), tuple(built))
                assert block == select(
                    m, [rpos[i] for i in row_keys],
                    [pos[j] for j in col_keys]), (name, cx, label)
                assert read_blocks(obj, cx, degree, [label]) == [
                    (row_keys, col_keys, block, multiplier)]


def test_builders_raise_on_a_term_off_their_weight_block():
    # the blocks of one weight read no column of another: given the rows
    # of one (q, w) block and the columns of another of the same parity, a
    # builder raises on the first term outside them
    lie, rep = glmn(2, 1)
    _, t = induced(lie, rep)
    for obj, cx, degree in ((lie, "binary-scalar", 2),
                            (t, "ternary-scalar", 1),
                            (t, "ternary-scalar", 2)):
        _, groups, block = _blocks(obj, cx, degree)
        even = [block(label) for label in _block_labels(groups)
                if label[0] == 0]
        (a_rows, _), (_, b_cols) = [
            (list(row_keys), col_keys)
            for _, row_keys, col_keys, rows in even if any(rows)][:2]
        rows = _walk(obj, cx, degree)[1]
        with pytest.raises(PreconditionError, match="parity law"):
            list(rows(a_rows, b_cols))


def test_a_block_of_full_column_rank_stops_building_rows(monkeypatch):
    # gl(2|1) ternary-scalar delta2: rref stops a (q, w) block at full
    # column rank, so such a block builds fewer rows than it has, and the
    # whole even operator far fewer; (Z, B, H) is unchanged
    lie, rep = glmn(2, 1)
    _, t = induced(lie, rep)
    _, groups, block = _blocks(t, "ternary-scalar", 2)
    blocks = {label: block(label)[0] for label in _block_labels(groups)
              if label[0] == 0}
    built = built_rows(monkeypatch)
    assert cohomology_dims(t, "ternary-scalar", 2) == (5, 4, 1)
    labels = {}
    weights = _grading(t)[1]
    rkeys = cochain_keys("ternary-scalar", 3, t.space)
    for cx, degree, i, _ in built:
        if degree == 2:
            label = key_label(rkeys[i], t.space, weights)
            labels[label] = labels.get(label, 0) + 1
    assert set(labels) == set(blocks)
    assert all(labels[label] <= blocks[label] for label in blocks)
    assert any(labels[label] < blocks[label] for label in blocks)
    assert 2 * sum(labels.values()) < sum(blocks.values())
    assert len(parity_support("ternary-scalar", 3, t.space, 0)) == 7200


def test_cocycles_match_the_parity_block_reference():
    # the union of the (q, w) blocks' RREF kernel bases, sorted by lead
    # column, is the parity block's: vectors and order, as the parity-only
    # reference builds them, on gl(1|1), gl(2|1), their diagonal twists and
    # conjugates, and on their induced brackets
    rng = random.Random(25)
    cases = []
    for m, n in ((1, 1), (2, 1)):
        lie, rep = glmn(m, n)
        cases += [(lie, rep), (diagonal_twist(lie, m, n), None),
                  conjugate_pair(lie, rep,
                                 random_even_invertible(rng, lie.space))]
    for lie, rep in cases:
        shapes = [(lie, cx, d) for cx in ("binary-scalar", "binary-adjoint")
                  for d in (1, 2)]
        if rep is not None:
            t = induced(lie, rep)[1]
            shapes += [(t, "ternary-scalar", 1), (t, "ternary-adjoint", 1)]
            if lie.dim == 4:
                shapes += [(t, "ternary-scalar", 2), (t, "ternary-adjoint", 2)]
        for obj, cx, degree in shapes:
            for parity in (0, 1):
                assert cocycles(obj, cx, degree, parity) == parity_cocycles(
                    obj, cx, degree, parity), (lie.dim, cx, degree, parity)


def test_gl22_degree_2_ternary_cohomology():
    # the north-star dimension's degree-2 ternary cohomology, which only
    # the weight blocks make cheap enough to pin here
    lie, rep = glmn(2, 2)
    _, t = induced(lie, rep)
    assert cohomology_dims(t, "ternary-scalar", 2) == (10, 7, 3)
    assert cohomology_dims(t, "ternary-adjoint", 2) == (144, 120, 24)


@pytest.mark.parametrize("m, n, bs2, ts2, ta2", [
    (3, 1, (9, 9, 0), (10, 9, 1), (136, 126, 10)),
    (1, 3, (9, 9, 0), (10, 9, 1), (136, 126, 10)),
    (4, 0, (15, 15, 0), (16, 15, 1), (256, 240, 16))])
def test_other_dimension_16_splits(m, n, bs2, ts2, ta2):
    # the 16-dimensional gl(m|n) besides gl(2|2), where str(I) != 0
    lie, rep = glmn(m, n)
    _, t = induced(lie, rep)
    assert verify_hom_nambu(t).verdict == "pass"
    assert cohomology_dims(lie, "binary-scalar", 2) == bs2
    assert cohomology_dims(t, "ternary-scalar", 2) == ts2
    assert cohomology_dims(t, "ternary-adjoint", 2) == ta2


def test_row_count_is_the_number_of_row_keys():
    # the cap counts rows from the key shapes, without listing the keys
    spaces = [graded_space(["a", "b", "c"], ps)
              for ps in ((0, 0, 0), (1, 1, 1), (0, 1, 1))]
    for sp in spaces:
        for degree in (1, 2, 3):
            assert _row_count("binary-scalar", degree, sp) == len(
                cochain_keys("binary-scalar", degree + 1, sp)), (sp, degree)
    for name, lie, rep in (*oracle_algebras(), ("gl21", *glmn(2, 1))):
        for cx, degree in _BUILDERS:
            assert _row_count(cx, degree, lie.space) == len(
                _row_keys(cx, degree, lie.space)), (name, cx, degree)


def test_unbuilt_degrees_are_input_errors(g11, t11):
    for obj, cx, degree in ((t11, "ternary-adjoint", 3),
                            (g11, "binary-adjoint", 3),
                            (t11, "ternary-scalar", 4),
                            (g11, "binary-scalar", 4),
                            (t11, "ternary-scalar", 0),
                            (t11, "ternary-scalar", True),
                            (t11, "nope", 2)):
        with pytest.raises(InputError):
            cohomology_dims(obj, cx, degree)


def test_coboundary_rows_are_capped_before_building():
    lie, rep = glmn(2, 2)
    _, t = induced(lie, rep)
    for call in (coboundary_matrix, cohomology_dims):
        with pytest.raises(InputError, match="33554432 rows"):
            call(t, "ternary-scalar", 3)
        assert not t.memo
    # gl(2|2) delta2 has 128^2 * 16 rows and gl(2|1) delta3 40^3 * 9
    assert 128 ** 2 * 16 <= 40 ** 3 * 9 <= MAX_COBOUNDARY_ROWS < 128 ** 3 * 16


# sha256 of repr(coboundary_matrix(t, cx, degree)), taken from the separate
# delta1 and delta2 builders the Leibniz builder replaced, for even
# cochains: every matrix, Fraction entries and their order, is unchanged,
# and the ternary-adjoint delta2 of odd cochains is now the even one
PINNED_MATRIX_SHA256 = {
    ("gl11", "ternary-scalar", 1):
        "28c953d415ca120120230901e215b2087687f458aa5212e2f24757465773dbe9",
    ("gl11", "ternary-scalar", 2):
        "7d0c4fb0c90570f88900f0e04e5dc163ea037282b28c957d19d25f6249610431",
    ("gl11", "ternary-adjoint", 1):
        "b49cb56bff78bd43524591a9ef4c385cfed81d3158418ebb9438ec7a2a80120b",
    ("gl11", "ternary-adjoint", 2):
        "d6961ea83df52cda42e934beb5bb4332249030378e1873cc5d80dc3d5b4932c4",
    ("gl11t", "ternary-scalar", 1):
        "02e2f29ccce2e46064211e6e6794bbc94035fb24f29ef0eb19946a4ad65c33aa",
    ("gl11t", "ternary-scalar", 2):
        "3afdf80b23836aecbd1d61512fb0beb50cde05f0ffe579e6a1744cc610a73240",
    ("gl11t", "ternary-adjoint", 1):
        "f4da0b2de4c4a81f90617688b5595868bc3d41a7fc67421461eb0ba81f659844",
    ("gl11t", "ternary-adjoint", 2):
        "e1449e9a41767af0dc8dd27df9e6aa0d554147633c2d911f4a7feb44ac46db21",
    ("conj", "ternary-scalar", 1):
        "f617a718fc142e699eb278e6e4778d0f4085def9f7e9a37fa796bcc0730c668e",
    ("conj", "ternary-scalar", 2):
        "25219008202a47f1be8b0a160d291d642e1a3e3fbfb5e946f5f0ec7ebb4c1ac8",
    ("conj", "ternary-adjoint", 1):
        "562db8f24f52fdfca71e44f50fc5eab7212362c793acb3e0593f950a4c4cb73d",
    ("conj", "ternary-adjoint", 2):
        "eb134ab0a62e7884372ee4a09efadd96d83f24167d444e81b84307d90da9a8a3",
    ("conjt", "ternary-scalar", 1):
        "d08d5e252e67ac36807fde17a57b0e68c6827730a518ba38d6b2ec423e1a384a",
    ("conjt", "ternary-scalar", 2):
        "c892cc166a788a67dc8740b6534aedb49a9366ec2f668ea43c792c732bb09787",
    ("conjt", "ternary-adjoint", 1):
        "48fa0f3234029446d084f8f21809ab2ac1db4e3997ff7811fe99089b8e674753",
    ("conjt", "ternary-adjoint", 2):
        "6483e429b50a58992075940543cc4fff5c8f1ddd275d74302272cc84db5240de",
    ("gl21", "ternary-scalar", 1):
        "05efc9087e467b4ae8d946377fe9a017129bc2a79b010d88c96f5df440641f47",
    ("gl21", "ternary-scalar", 2):
        "a0f9b3c1ab07190aa211ff317b69f5e46dc8117b91a97b723ca15702681c8e7f",
    ("gl21", "ternary-adjoint", 1):
        "275cdc3e50f1845ae9571270e35de8bfafc3c514d4577bc04cbc76ebbbbb47eb",
    ("gl21", "ternary-adjoint", 2):
        "6e35c49d38ddc316823ddfea7db1bd897a746b64beb9da670c61408d166298ef",
}


def test_delta1_and_delta2_matrices_are_pinned():
    algebras = (*oracle_algebras(), ("gl21", *glmn(2, 1)))
    for name, lie, rep in algebras:
        _, t = induced(lie, rep)
        for cx in ("ternary-scalar", "ternary-adjoint"):
            for degree in (1, 2):
                text = repr(coboundary_matrix(t, cx, degree))
                digest = hashlib.sha256(text.encode()).hexdigest()
                assert digest == PINNED_MATRIX_SHA256[name, cx, degree], \
                    (name, cx, degree)


# sha256 of repr(coboundary_matrix(lie, cx, degree)) on the binary
# complexes, taken from the whole-operator builders
# that the key-parity block builders replaced: the assembly of the blocks
# back into key order is checked against these bytes
PINNED_BINARY_SHA256 = {
    ("gl11", "binary-scalar", 1):
        "6336a94458fbaa424bced81e2485cefc098b3e8b8068482fd8dc903ec0323436",
    ("gl11", "binary-scalar", 2):
        "844c4820aaad2ce925b8d332c0c9b977e84ecedab81f3cafdfd949efd2de48b4",
    ("gl11", "binary-scalar", 3):
        "bf138e7316353be4b006b75b3e4778cc54bdaecb3a5adfbd1010c697985ff5e4",
    ("gl11", "binary-adjoint", 1):
        "7ffc90596b67cda3dc5d911c3413d8a07b1a800a1153f387a8b58671612b4a9c",
    ("gl11", "binary-adjoint", 2):
        "92c1d5503f4889bfc750bbef0fd8a3d0f872b64e2913e7730e5c87d8ff5ec53e",
    ("gl11t", "binary-scalar", 1):
        "a3b336af58eaee24527565225232afbe97897bf189ff40bb9d8747636b4f5433",
    ("gl11t", "binary-scalar", 2):
        "648fb4e45a9a317150786861a436c9a0e51c9115f2f5f1893da731e0a28d0f26",
    ("gl11t", "binary-scalar", 3):
        "e091638eff17f8cd2bf81c5e5add73d7f59a0aff51c899d2b589e683cbe4440f",
    ("gl11t", "binary-adjoint", 1):
        "fe34a675c5a785b5028059402060d95e23024343c97976ee608b560666a1fbbf",
    ("gl11t", "binary-adjoint", 2):
        "f98f6b019e0ed12fa0c73998c90e85e9114dee095e54df2b2ef01deb525a46f8",
    ("conj", "binary-scalar", 1):
        "74ec3ee364b2e3ce2abc6308fb4168e18a72c10cd7de29e3f99c69b6f189d9fc",
    ("conj", "binary-scalar", 2):
        "c6d41f7ac59c9eb1a304040cf6138112da864deb27e671affa73025745f220c4",
    ("conj", "binary-scalar", 3):
        "d82a8de55a373da260fafeb5e50cb46f637f015abcea184b7f0f6347952f0749",
    ("conj", "binary-adjoint", 1):
        "d9c54f3e0390593ae62738c627a301d110957cb6442d4414629c4259ac202d3a",
    ("conj", "binary-adjoint", 2):
        "0c9c29cc289bc30d6e6b8e2502b410dc58ce2161bb279730548cdc37ff658da0",
    ("conjt", "binary-scalar", 1):
        "1363308cd847ddf957fa257aae5fb947123ce8b5bb6122452f4c6b418e7b0cbe",
    ("conjt", "binary-scalar", 2):
        "a6fe285fb1f4f66b6a0ab69dd592c538c393fe69485c7563cba256e8eb28c74d",
    ("conjt", "binary-scalar", 3):
        "12d356d5b77ae6311fd18c9b1fe43418e0c26630c6e9c7a7e9151c9a99a20ddc",
    ("conjt", "binary-adjoint", 1):
        "ecf7456d59ade11524788a6cc0adf0acc7f51a80ca165d4b2155f264153d741b",
    ("conjt", "binary-adjoint", 2):
        "2240719533687b63162f2329d9f2ddd8e13acf2aba7c912185ebde9aa65a6824",
    ("gl21", "binary-scalar", 1):
        "31e3cf167d09985be9981f209dfbb255d35df9e30bb05317c4832fec26d25b7a",
    ("gl21", "binary-scalar", 2):
        "2fae38431b2d415753bf31ebeef79b5a9adbbe5a1cee6b51589d56223d81fcab",
    ("gl21", "binary-scalar", 3):
        "b560a4f9d0e4ff8f76b72957ff8edf7996955ff0358036175fb48adc2a0343f5",
    ("gl21", "binary-adjoint", 1):
        "4ec3dc8243a58faaefe7b8e6d33537cdccd91e1bda4dadee8e6d890903635791",
    ("gl21", "binary-adjoint", 2):
        "1c62dd642eb149eb679edb939dd2b4d155a20eb321ad862a3eb243601becb296",
}


def test_binary_coboundary_matrices_are_pinned():
    for name, lie, rep in (*oracle_algebras(), ("gl21", *glmn(2, 1))):
        for cx, degrees in (("binary-scalar", (1, 2, 3)),
                            ("binary-adjoint", (1, 2))):
            for degree in degrees:
                text = repr(coboundary_matrix(lie, cx, degree))
                digest = hashlib.sha256(text.encode()).hexdigest()
                assert digest == PINNED_BINARY_SHA256[name, cx, degree], \
                    (name, cx, degree)
