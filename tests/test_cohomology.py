"""Cochain complexes, coboundaries, and cocycle transfer to the induced side."""

import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from homnambu import cohomology
from homnambu.binary import HomLieSuper, yau_twist
from homnambu.cohomology import (_BUILDERS, MAX_COBOUNDARY_ROWS, Cochain,
                                 _apply, _grading, _key_blocks,
                                 _key_parities, _parity_keys, _row_count,
                                 _row_keys, _rows, _walk, _weight_basis,
                                 apply_coboundary,
                                 binary_adjoint_cocycle_space,
                                 binary_pair_eval,
                                 bracket_cochain, coboundary_matrix,
                                 cochain_keys, cochain_length, cocycles,
                                 cohomology_dims, coordinate_parities,
                                 induce_cocycle, infer_parity,
                                 is_binary_cocycle, make_cochain,
                                 parity_support, verify_1cocycle_transfer,
                                 verify_bracket_cocycle, verify_class_transfer,
                                 verify_lemma_identity)
from homnambu.fixtures import (conjugate_gl11, conjugate_pair, gl11, gl11t,
                               glmn, matrix_units, random_even_invertible)
from homnambu.formats import load_cochain
from homnambu.graded import GradedMap, canonicalize, graded_space, skew_basis
from homnambu.linalg import (InputError, Matrix, PreconditionError, Subspace,
                             image, integer_terms, is_zero_vec, kernel,
                             subspace_intersection, unit_vec, vec_scale)
from homnambu.reps import trace_functional
from homnambu.ternary import SuperBracket3, TernaryHomLieSuper, induce_ternary

from oracles import key_parts, parity_cocycles, select


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


def test_ternary_complexes_square_to_zero(all_binary):
    for name, lie, rep in all_binary:
        tau, t = induced(lie, rep)
        sp = lie.space
        d2, d3 = (coboundary_matrix(t, "ternary-scalar", p) for p in (2, 3))
        assert d3.mul(d2).is_zero(), name
        for cx in ("ternary-scalar", "ternary-adjoint"):
            d1 = coboundary_matrix(t, cx, 1)
            assert coboundary_matrix(t, cx, 2, 0).mul(d1).is_zero(), (name, cx)
            for parity in (0, 1):
                b2 = parity_block(coboundary_matrix(t, cx, 2, parity), cx, 2,
                                  sp, parity)
                b1 = parity_block(d1, cx, 1, sp, parity)
                assert b2.mul(b1).is_zero(), (name, cx, parity)


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
        coboundary_matrix(t11, "ternary-adjoint", 2, 1).apply(h.coords)


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
                want = coboundary_matrix(obj, cx, degree,
                                         parity).apply(c.coords)
                got = _apply(obj, cx, degree, parity, c.coords)
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
                want = coboundary_matrix(obj, cx, degree, parity).apply(raw)
                assert _apply(obj, cx, degree, parity, raw) == \
                    {i: x for i, x in enumerate(want) if x}, \
                    (name, cx, degree, parity)
        assert is_binary_cocycle(lie, bracket_cochain(lie))


def test_cochain_parity_support_enforced(g11):
    n = cochain_length("binary-scalar", 2, g11.space)
    odd_pos = parity_support("binary-scalar", 2, g11.space, 1)[0]
    coords = [Fraction(0)] * n
    coords[odd_pos] = Fraction(1)
    with pytest.raises(InputError):
        Cochain("binary-scalar", 2, 0, g11.space, tuple(coords))
    assert infer_parity("binary-scalar", 2, g11.space, tuple(coords)) == 1


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


def test_induce_cocycle_scalar_oracle(g11, tau11, t11):
    # the q,p dual is a binary cocycle; its transfer must hit exactly the
    # triples whose tau-weighted pair collapses onto (q,p)
    phi = make_cochain("binary-scalar", 2, g11.space, {(2, 3): Fraction(1)},
                       parity=0)
    assert is_binary_cocycle(g11, phi)
    out = induce_cocycle(g11, tau11, phi, t11)
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
        out = induce_cocycle(lie, tau, phi, t)
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
        induce_cocycle(g11, tau11, bad, t11)


def test_adjoint_cocycles_transfer(g11, tau11, t11):
    # twisted 2-cocycles with values in the algebra keep satisfying the
    # cocycle identity after induction; the constructor re-checks delta2
    rng = random.Random(74)
    n = cochain_length("binary-adjoint", 2, g11.space)
    for parity in (0, 1):
        vecs = binary_adjoint_cocycle_space(g11, parity).vectors()
        assert len(vecs) == 6
        for _ in range(10):
            coords = kernel_combination(rng, vecs, n)
            phi = Cochain("binary-adjoint", 2, parity, g11.space, coords)
            out = induce_cocycle(g11, tau11, phi, t11)
            assert out.complex == "ternary-adjoint"
            resid = coboundary_matrix(t11, "ternary-adjoint", 2,
                                      parity).apply(out.coords)
            assert is_zero_vec(resid)


def test_lemma_identity_random(g11, tau11, t11):
    rng = random.Random(75)
    for parity in (0, 1):
        for _ in range(10):
            om = random_cochain(rng, "binary-scalar", 1, g11.space, parity)
            r = verify_lemma_identity(g11, tau11, om, t11)
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
        r = verify_class_transfer(g11, tau11, phi1, phi2, t11)
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
    with pytest.raises(PreconditionError):
        verify_class_transfer(a0, tau0, zero, nontrivial, t0)


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
    assert verify_class_transfer(g11, tau11, phi1, phi2, t11).verdict == "pass"
    r = verify_class_transfer(g11, tau11, phi1, phi2, doubled)
    assert r.verdict == "fail"
    names = set(g11.space.names)
    assert len(r.findings) > 1
    for f in r.findings:
        assert f.check == "class-transfer"
        assert len(f.witness) == 3 and set(f.witness) <= names, f.witness
    assert r.findings[0].witness == ("h1", "q", "p")


def test_coboundary_matrices_live_as_long_as_their_algebra():
    lie, rep = gl11()
    tau, t = induced(lie, rep)
    for q in (0, 1):
        d2 = _rows(t, "ternary-scalar", 2, 0, q)
        assert _rows(t, "ternary-scalar", 2, 0, q) is d2
        assert _rows(lie, "binary-scalar", 2, 0, q) is \
            _rows(lie, "binary-scalar", 2, 0, q)
        # the even ternary-adjoint delta2 is the scalar rows, not a copy,
        # block by block
        assert _rows(t, "ternary-adjoint", 2, 0, q)[0] is d2[0]
    # the memo is no part of the value: an equal algebra with nothing
    # cached compares equal and prints the same
    fresh_lie, _ = gl11()
    assert fresh_lie == lie and repr(fresh_lie) == repr(lie)
    refs = [weakref.ref(lie), weakref.ref(t)]
    del lie, rep, tau, t
    gc.collect()
    assert [r() for r in refs] == [None, None]


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


def test_scalar_delta2_built_once_per_algebra():
    lie, rep = gl11()
    tau, t = induced(lie, rep)
    rng = random.Random(78)
    for parity in (0, 1):
        om = random_cochain(rng, "binary-scalar", 1, lie.space, parity)
        assert verify_lemma_identity(lie, tau, om, t).verdict == "pass"
    coboundary_matrix(t, "ternary-scalar", 2, 0)
    coboundary_matrix(t, "ternary-scalar", 2, 1)
    coboundary_matrix(t, "ternary-scalar", 2)
    coboundary_matrix(t, "ternary-scalar", 2)
    # the memo keys value-free rows on (complex, degree, parity, key
    # parity): one block per key parity, each under cochain parity 0
    built = [key for key in t.memo if key[:2] == ("ternary-scalar", 2)]
    assert sorted(built) == [("ternary-scalar", 2, 0, 0),
                             ("ternary-scalar", 2, 0, 1)]


def built_rows(monkeypatch):
    """Spy on every walk: a list that gets (complex, degree, key, row) for
    each row a builder yields, key its position among the row keys."""
    built = []
    walk = cohomology._walk

    def spy(obj, cx, degree, parity):
        multiplier, rows, source = walk(obj, cx, degree, parity)

        def spied(row_keys, col_keys):
            row_keys = list(row_keys)
            for i, row in zip(row_keys, rows(row_keys, col_keys)):
                built.append((cx, degree, i, row))
                yield row
        return multiplier, spied, source

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
        out = {(degree, _key_parities(cx.replace("adjoint", "scalar"),
                                      degree + 1, obj.space)[i])
               for cx, degree, i, _ in built}
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
    # adjoint adds - f(X.y1 ^ a y2, a z) - (-1)^{(|f|+|X|)|y1|} f(a y1 ^ X.y2, a z)
    #   - (-1)^{|Y|(|X|+|f|)} f(aY, X.z) + (-1)^{|X||f|} f(aX, Y.z).
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
                                terms += [
                                    (-1, F(act(x1, x2, y1), a[y2], a[z])),
                                    (-(-1) ** ((parity + px) * p[y1]),
                                     F(a[y1], act(x1, x2, y2), a[z])),
                                    (-(-1) ** (py * (px + parity)),
                                     F(a[y1], a[y2], act(x1, x2, z))),
                                    ((-1) ** (px * parity),
                                     F(a[x1], a[x2], act(y1, y2, z)))]
                            val = comb(terms)
                            want.extend((val,) if cx == "ternary-scalar" else val)
                got = coboundary_matrix(t, cx, 2, parity).apply(coords)
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
    - the ternary-adjoint delta2 on even cochains is twice the lifted
      scalar delta2;
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
        assert coboundary_matrix(t, "ternary-adjoint", 2, 0) == lift(
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


def test_coboundary_rows_keep_key_parity_and_blocks_match_select():
    """Every block of every _BUILDERS entry, on gl(1|1), its twist, a
    conjugate and gl(2|1), has one row per row key of its key parity and
    one column per such column key, every entry column an int among them
    (a builder raises on a term outside them, see
    test_builders_raise_on_a_term_off_their_key_parity).  The blocks put
    back into key order, in ints, are an operator whose rows read only
    columns of the row's key parity and whose select on a key parity is
    that parity's block.  The memoized block, times its multiplier, is
    also the select of the assembled coboundary_matrix at an even and an
    odd output, but on gl(2|1) delta3, which assembles to 1.8M Fractions.
    The (q, w) blocks are checked against these in
    test_weight_blocks_are_the_select_of_their_parity_block."""
    algebras = [(name, lie, rep) for name, lie, rep in oracle_algebras()
                if name != "conjt"]
    algebras.append(("gl21", *glmn(2, 1)))
    for name, lie, rep in algebras:
        _, t = induced(lie, rep)
        for cx, degree in _BUILDERS:
            obj = t if cx.startswith("ternary") else lie
            dim = obj.dim if cx.endswith("adjoint") else 1
            # one even and one odd output: the lift is checked per output
            # in test_adjoint_complexes_read_the_scalar_rows
            outputs = ([obj.space.parities.index(e) for e in (0, 1)]
                       if dim > 1 else [0])
            colp = _key_parities(cx, degree, obj.space)
            assert colp == [_parts_parity(key, obj.space.parities) for key
                            in cochain_keys(cx, degree, obj.space)]
            rowp = _key_parities(cx.replace("adjoint", "scalar"), degree + 1,
                                 obj.space)
            rows = [[i for i, rp in enumerate(rowp) if rp == q]
                    for q in (0, 1)]
            cols = [[j for j, kp in enumerate(colp) if kp == q]
                    for q in (0, 1)]
            for parity in (0, 1):
                # the other entries keep one operator under parity 0
                if parity and (cx, degree) != ("ternary-adjoint", 2):
                    for q in (0, 1):
                        assert _rows(obj, cx, degree, parity, q) is \
                            _rows(obj, cx, degree, 0, q)
                    continue
                ms = [_rows(obj, cx, degree, parity, q) for q in (0, 1)]
                whole = [None] * len(rowp)
                for q, (m, _) in enumerate(ms):
                    assert (m.rows, m.cols) == (len(rows[q]), len(cols[q]))
                    assert all(type(c) is int and 0 <= c < m.cols
                               for row in m.entries for c, _ in row), \
                        (name, cx, degree, parity, q)
                    for i, row in zip(rows[q], m.entries):
                        whole[i] = tuple((cols[q][c], x) for c, x in row)
                whole = Matrix(len(rowp), len(colp), tuple(whole))
                for i, row in enumerate(whole.entries):
                    assert all(colp[c] == rowp[i] for c, _ in row), \
                        (name, cx, degree, parity)
                for q, (m, _) in enumerate(ms):
                    assert m == select(whole, rows[q], cols[q]), \
                        (name, cx, degree, parity, q)
                if (name, degree) == ("gl21", 3):
                    continue
                full = coboundary_matrix(obj, cx, degree, parity)
                assert (full.rows, full.cols) == (len(rowp) * dim,
                                                  len(colp) * dim)
                for i, row in enumerate(full.entries):
                    assert all(colp[c // dim] == rowp[i // dim]
                               for c, _ in row), (name, cx, degree, parity)
                for q, (m, multiplier) in enumerate(ms):
                    want = m.scale(multiplier)
                    for o in outputs:
                        assert want == select(
                            full, [i * dim + o for i in rows[q]],
                            [j * dim + o for j in cols[q]]), \
                            (name, cx, degree, parity, q, o)


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
    for obj, cx, degree, parity in ((broken, "binary-scalar", 1, 0),
                                    (broken, "binary-scalar", 2, 0),
                                    (tbroken, "ternary-scalar", 1, 0),
                                    (tbroken, "ternary-scalar", 2, 0),
                                    (tbroken, "ternary-adjoint", 2, 1)):
        rows = _BUILDERS[cx, degree](obj, cx, degree, parity)[1]
        scalar = cx.replace("adjoint", "scalar")
        with pytest.raises(PreconditionError, match="parity law"):
            for q in (0, 1):
                list(rows(_parity_keys(scalar, degree + 1, obj.space, q),
                          _parity_keys(cx, degree, obj.space, q)))
    assert not broken.memo and not tbroken.memo


def diagonal_twist(lie, m, n):
    """The Yau twist of gl(m|n) along E_ij -> (d_i / d_j) E_ij, d_i = i + 1:
    a diagonal twist, so it keeps the torus of gl(m|n)."""
    scale = [Fraction(i + 1, j + 1) for i, j in matrix_units(m, n)]
    alpha = Matrix.build([[scale[r] if r == c else 0 for c in range(lie.dim)]
                          for r in range(lie.dim)])
    return yau_twist(lie, GradedMap(lie.space, lie.space, alpha))


def homogeneity_breaks(obj, v) -> list:
    """The equations of obj's document that the weights v break: w_k = the
    sum of the slot weights for each nonzero structure constant, and w_m =
    w_i for each nonzero off-diagonal twist entry, read in Fractions."""
    twists = ((obj.alpha,) if isinstance(obj, HomLieSuper)
              else (obj.alpha1, obj.alpha2))
    breaks = [("twist", m, i) for a in twists for m, row in
              enumerate(a.matrix.entries) for i, x in row
              if x and m != i and v[m] != v[i]]
    for key in product(range(obj.dim), repeat=obj.bracket.arity):
        for k, x in enumerate(obj.bracket.value(*key)):
            if x and v[k] != sum(v[i] for i in key):
                breaks.append((key, k))
    return breaks


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
            weights = _grading(obj)
            assert obj.memo["grading"] is weights
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


def key_label(key, space, weights) -> tuple:
    """(q, w) of a cochain key from its parts, the oracle of the labels
    the blocks are cut by."""
    parts = key_parts(key)
    return (sum(space.parities[i] for i in parts) % 2,
            sum(weights[i] for i in parts))


def test_weight_blocks_are_the_select_of_their_parity_block():
    """On gl(1|1), its twist, a conjugate and gl(2|1): every row of every
    key-parity block reads only columns of its own label (q, w), so no row
    crosses weights, and a row of a label no column has is zero.  Each
    (q, w) block _key_blocks lists, built whole, has its label's keys in
    key order and is the select of its parity block there."""
    algebras = [(name, lie, rep) for name, lie, rep in oracle_algebras()
                if name != "conjt"]
    algebras.append(("gl21", *glmn(2, 1)))
    for name, lie, rep in algebras:
        _, t = induced(lie, rep)
        for cx, degree in _BUILDERS:
            obj = t if cx.startswith("ternary") else lie
            if (name, cx, degree) == ("gl21", "ternary-scalar", 3):
                continue  # 576,000 rows: too slow to list here
            space, weights = obj.space, _grading(obj)
            scalar = cx.replace("adjoint", "scalar")
            rlabels = [key_label(key, space, weights)
                       for key in cochain_keys(scalar, degree + 1, space)]
            clabels = [key_label(key, space, weights)
                       for key in cochain_keys(cx, degree, space)]
            for parity in (0, 1):
                multiplier, rows = _walk(obj, cx, degree, parity)[:2]
                for q in (0, 1):
                    m, mult = _rows(obj, cx, degree, parity, q)
                    prows = _parity_keys(scalar, degree + 1, space, q)
                    pcols = _parity_keys(cx, degree, space, q)
                    labels = {clabels[j] for j in pcols}
                    for i, row in zip(prows, m.entries):
                        assert all(clabels[pcols[c]] == rlabels[i]
                                   for c, _ in row), (name, cx)
                        assert row == () or rlabels[i] in labels, (name, cx)
                    assert mult == multiplier
                pos = {j: n for q in (0, 1) for n, j
                       in enumerate(_parity_keys(cx, degree, space, q))}
                rpos = {i: n for q in (0, 1) for n, i in enumerate(
                    _parity_keys(scalar, degree + 1, space, q))}
                for label, outputs, count, row_keys, col_keys in _key_blocks(
                        obj, cx, degree, parity):
                    q = label[0]
                    row_keys = list(row_keys)
                    assert count == len(row_keys)
                    assert row_keys == sorted(row_keys)
                    assert list(col_keys) == [
                        j for j, x in enumerate(clabels) if x == label]
                    assert row_keys == [
                        i for i, x in enumerate(rlabels) if x == label]
                    block = Matrix(count, len(col_keys),
                                   tuple(rows(row_keys, col_keys)))
                    assert block == select(
                        _rows(obj, cx, degree, parity, q)[0],
                        [rpos[i] for i in row_keys],
                        [pos[j] for j in col_keys]), (name, cx, label)


def test_builders_raise_on_a_term_off_their_weight_block():
    # the blocks of one weight read no column of another: given the rows
    # of one (q, w) block and the columns of another of the same parity, a
    # builder raises on the first term outside them
    lie, rep = glmn(2, 1)
    _, t = induced(lie, rep)
    for obj, cx, degree in ((lie, "binary-scalar", 2),
                            (t, "ternary-scalar", 1),
                            (t, "ternary-scalar", 2)):
        rows = _walk(obj, cx, degree, 0)[1]
        blocks = [(count, list(row_keys), col_keys) for _, _, count,
                  row_keys, col_keys in _key_blocks(obj, cx, degree, 0)]
        (_, a_rows, a_cols), (_, b_rows, b_cols) = [
            b for b in blocks if any(rows(b[1], b[2]))][:2]
        with pytest.raises(PreconditionError, match="parity law"):
            list(rows(a_rows, b_cols))


def test_a_block_of_full_column_rank_stops_building_rows(monkeypatch):
    # gl(2|1) ternary-scalar delta2: rref stops a (q, w) block at full
    # column rank, so such a block builds fewer rows than it has, and the
    # whole even operator far fewer; (Z, B, H) is unchanged
    lie, rep = glmn(2, 1)
    _, t = induced(lie, rep)
    blocks = {label: count for label, _, count, _, _
              in _key_blocks(t, "ternary-scalar", 2, 0)}
    built = built_rows(monkeypatch)
    assert cohomology_dims(t, "ternary-scalar", 2) == (5, 4, 1)
    labels = {}
    weights = _grading(t)
    rkeys = cochain_keys("ternary-scalar", 3, t.space)
    for cx, degree, i, _ in built:
        if degree == 2:
            label = key_label(rkeys[i], t.space, weights)
            labels[label] = labels.get(label, 0) + 1
    assert set(labels) == set(blocks)
    assert all(labels[label] <= blocks[label] for label in blocks)
    assert any(labels[label] < blocks[label] for label in blocks)
    assert 2 * sum(labels.values()) < sum(blocks.values())
    assert len(_parity_keys("ternary-scalar", 3, t.space, 0)) == 7200


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


# sha256 of repr(coboundary_matrix(t, cx, degree, parity)) for parity 0 and
# 1, taken from the separate delta1 and delta2 builders the Leibniz builder
# replaced: every matrix, Fraction entries and their order, is unchanged
PINNED_MATRIX_SHA256 = {
    ("gl11", "ternary-scalar", 1): (
        "28c953d415ca120120230901e215b2087687f458aa5212e2f24757465773dbe9",
        "28c953d415ca120120230901e215b2087687f458aa5212e2f24757465773dbe9"),
    ("gl11", "ternary-scalar", 2): (
        "7d0c4fb0c90570f88900f0e04e5dc163ea037282b28c957d19d25f6249610431",
        "7d0c4fb0c90570f88900f0e04e5dc163ea037282b28c957d19d25f6249610431"),
    ("gl11", "ternary-adjoint", 1): (
        "b49cb56bff78bd43524591a9ef4c385cfed81d3158418ebb9438ec7a2a80120b",
        "b49cb56bff78bd43524591a9ef4c385cfed81d3158418ebb9438ec7a2a80120b"),
    ("gl11", "ternary-adjoint", 2): (
        "d6961ea83df52cda42e934beb5bb4332249030378e1873cc5d80dc3d5b4932c4",
        "0e93a0fe686c3574fb96f626faeec7d1494de5cc94b1735f5faa4c27a1ad3cb0"),
    ("gl11t", "ternary-scalar", 1): (
        "02e2f29ccce2e46064211e6e6794bbc94035fb24f29ef0eb19946a4ad65c33aa",
        "02e2f29ccce2e46064211e6e6794bbc94035fb24f29ef0eb19946a4ad65c33aa"),
    ("gl11t", "ternary-scalar", 2): (
        "3afdf80b23836aecbd1d61512fb0beb50cde05f0ffe579e6a1744cc610a73240",
        "3afdf80b23836aecbd1d61512fb0beb50cde05f0ffe579e6a1744cc610a73240"),
    ("gl11t", "ternary-adjoint", 1): (
        "f4da0b2de4c4a81f90617688b5595868bc3d41a7fc67421461eb0ba81f659844",
        "f4da0b2de4c4a81f90617688b5595868bc3d41a7fc67421461eb0ba81f659844"),
    ("gl11t", "ternary-adjoint", 2): (
        "e1449e9a41767af0dc8dd27df9e6aa0d554147633c2d911f4a7feb44ac46db21",
        "16a1fe6ed9e4f4274cd1d4cc42aff11613f15191a075627a1f5b7fdc3cab70bc"),
    ("conj", "ternary-scalar", 1): (
        "f617a718fc142e699eb278e6e4778d0f4085def9f7e9a37fa796bcc0730c668e",
        "f617a718fc142e699eb278e6e4778d0f4085def9f7e9a37fa796bcc0730c668e"),
    ("conj", "ternary-scalar", 2): (
        "25219008202a47f1be8b0a160d291d642e1a3e3fbfb5e946f5f0ec7ebb4c1ac8",
        "25219008202a47f1be8b0a160d291d642e1a3e3fbfb5e946f5f0ec7ebb4c1ac8"),
    ("conj", "ternary-adjoint", 1): (
        "562db8f24f52fdfca71e44f50fc5eab7212362c793acb3e0593f950a4c4cb73d",
        "562db8f24f52fdfca71e44f50fc5eab7212362c793acb3e0593f950a4c4cb73d"),
    ("conj", "ternary-adjoint", 2): (
        "eb134ab0a62e7884372ee4a09efadd96d83f24167d444e81b84307d90da9a8a3",
        "6c899fe13196f017dedf1eb74d2f3deb7c7bfec80ec7001b109a7d32f123ff12"),
    ("conjt", "ternary-scalar", 1): (
        "d08d5e252e67ac36807fde17a57b0e68c6827730a518ba38d6b2ec423e1a384a",
        "d08d5e252e67ac36807fde17a57b0e68c6827730a518ba38d6b2ec423e1a384a"),
    ("conjt", "ternary-scalar", 2): (
        "c892cc166a788a67dc8740b6534aedb49a9366ec2f668ea43c792c732bb09787",
        "c892cc166a788a67dc8740b6534aedb49a9366ec2f668ea43c792c732bb09787"),
    ("conjt", "ternary-adjoint", 1): (
        "48fa0f3234029446d084f8f21809ab2ac1db4e3997ff7811fe99089b8e674753",
        "48fa0f3234029446d084f8f21809ab2ac1db4e3997ff7811fe99089b8e674753"),
    ("conjt", "ternary-adjoint", 2): (
        "6483e429b50a58992075940543cc4fff5c8f1ddd275d74302272cc84db5240de",
        "008a5d24c8b6c3852fcdb47c24451fa61699fa23acca69e5eabc6d2ef0f1d4f5"),
    ("gl21", "ternary-scalar", 1): (
        "05efc9087e467b4ae8d946377fe9a017129bc2a79b010d88c96f5df440641f47",
        "05efc9087e467b4ae8d946377fe9a017129bc2a79b010d88c96f5df440641f47"),
    ("gl21", "ternary-scalar", 2): (
        "a0f9b3c1ab07190aa211ff317b69f5e46dc8117b91a97b723ca15702681c8e7f",
        "a0f9b3c1ab07190aa211ff317b69f5e46dc8117b91a97b723ca15702681c8e7f"),
    ("gl21", "ternary-adjoint", 1): (
        "275cdc3e50f1845ae9571270e35de8bfafc3c514d4577bc04cbc76ebbbbb47eb",
        "275cdc3e50f1845ae9571270e35de8bfafc3c514d4577bc04cbc76ebbbbb47eb"),
    ("gl21", "ternary-adjoint", 2): (
        "6e35c49d38ddc316823ddfea7db1bd897a746b64beb9da670c61408d166298ef",
        "97ce2a0545eb3286912b202c303e3b6f27d5139cc671c9e8a45a279fc5cb862a"),
}


def test_delta1_and_delta2_matrices_are_pinned():
    algebras = (*oracle_algebras(), ("gl21", *glmn(2, 1)))
    for name, lie, rep in algebras:
        _, t = induced(lie, rep)
        for cx in ("ternary-scalar", "ternary-adjoint"):
            for degree in (1, 2):
                for parity in (0, 1):
                    text = repr(coboundary_matrix(t, cx, degree, parity))
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    assert digest == PINNED_MATRIX_SHA256[
                        name, cx, degree][parity], (name, cx, degree, parity)


# sha256 of repr(coboundary_matrix(lie, cx, degree, parity)) for parity 0
# and 1 on the binary complexes, taken from the whole-operator builders
# that the key-parity block builders replaced: the assembly of the blocks
# back into key order is checked against these bytes
PINNED_BINARY_SHA256 = {
    ("gl11", "binary-scalar", 1): (
        "6336a94458fbaa424bced81e2485cefc098b3e8b8068482fd8dc903ec0323436",
        "6336a94458fbaa424bced81e2485cefc098b3e8b8068482fd8dc903ec0323436"),
    ("gl11", "binary-scalar", 2): (
        "844c4820aaad2ce925b8d332c0c9b977e84ecedab81f3cafdfd949efd2de48b4",
        "844c4820aaad2ce925b8d332c0c9b977e84ecedab81f3cafdfd949efd2de48b4"),
    ("gl11", "binary-scalar", 3): (
        "bf138e7316353be4b006b75b3e4778cc54bdaecb3a5adfbd1010c697985ff5e4",
        "bf138e7316353be4b006b75b3e4778cc54bdaecb3a5adfbd1010c697985ff5e4"),
    ("gl11", "binary-adjoint", 1): (
        "7ffc90596b67cda3dc5d911c3413d8a07b1a800a1153f387a8b58671612b4a9c",
        "7ffc90596b67cda3dc5d911c3413d8a07b1a800a1153f387a8b58671612b4a9c"),
    ("gl11", "binary-adjoint", 2): (
        "92c1d5503f4889bfc750bbef0fd8a3d0f872b64e2913e7730e5c87d8ff5ec53e",
        "92c1d5503f4889bfc750bbef0fd8a3d0f872b64e2913e7730e5c87d8ff5ec53e"),
    ("gl11t", "binary-scalar", 1): (
        "a3b336af58eaee24527565225232afbe97897bf189ff40bb9d8747636b4f5433",
        "a3b336af58eaee24527565225232afbe97897bf189ff40bb9d8747636b4f5433"),
    ("gl11t", "binary-scalar", 2): (
        "648fb4e45a9a317150786861a436c9a0e51c9115f2f5f1893da731e0a28d0f26",
        "648fb4e45a9a317150786861a436c9a0e51c9115f2f5f1893da731e0a28d0f26"),
    ("gl11t", "binary-scalar", 3): (
        "e091638eff17f8cd2bf81c5e5add73d7f59a0aff51c899d2b589e683cbe4440f",
        "e091638eff17f8cd2bf81c5e5add73d7f59a0aff51c899d2b589e683cbe4440f"),
    ("gl11t", "binary-adjoint", 1): (
        "fe34a675c5a785b5028059402060d95e23024343c97976ee608b560666a1fbbf",
        "fe34a675c5a785b5028059402060d95e23024343c97976ee608b560666a1fbbf"),
    ("gl11t", "binary-adjoint", 2): (
        "f98f6b019e0ed12fa0c73998c90e85e9114dee095e54df2b2ef01deb525a46f8",
        "f98f6b019e0ed12fa0c73998c90e85e9114dee095e54df2b2ef01deb525a46f8"),
    ("conj", "binary-scalar", 1): (
        "74ec3ee364b2e3ce2abc6308fb4168e18a72c10cd7de29e3f99c69b6f189d9fc",
        "74ec3ee364b2e3ce2abc6308fb4168e18a72c10cd7de29e3f99c69b6f189d9fc"),
    ("conj", "binary-scalar", 2): (
        "c6d41f7ac59c9eb1a304040cf6138112da864deb27e671affa73025745f220c4",
        "c6d41f7ac59c9eb1a304040cf6138112da864deb27e671affa73025745f220c4"),
    ("conj", "binary-scalar", 3): (
        "d82a8de55a373da260fafeb5e50cb46f637f015abcea184b7f0f6347952f0749",
        "d82a8de55a373da260fafeb5e50cb46f637f015abcea184b7f0f6347952f0749"),
    ("conj", "binary-adjoint", 1): (
        "d9c54f3e0390593ae62738c627a301d110957cb6442d4414629c4259ac202d3a",
        "d9c54f3e0390593ae62738c627a301d110957cb6442d4414629c4259ac202d3a"),
    ("conj", "binary-adjoint", 2): (
        "0c9c29cc289bc30d6e6b8e2502b410dc58ce2161bb279730548cdc37ff658da0",
        "0c9c29cc289bc30d6e6b8e2502b410dc58ce2161bb279730548cdc37ff658da0"),
    ("conjt", "binary-scalar", 1): (
        "1363308cd847ddf957fa257aae5fb947123ce8b5bb6122452f4c6b418e7b0cbe",
        "1363308cd847ddf957fa257aae5fb947123ce8b5bb6122452f4c6b418e7b0cbe"),
    ("conjt", "binary-scalar", 2): (
        "a6fe285fb1f4f66b6a0ab69dd592c538c393fe69485c7563cba256e8eb28c74d",
        "a6fe285fb1f4f66b6a0ab69dd592c538c393fe69485c7563cba256e8eb28c74d"),
    ("conjt", "binary-scalar", 3): (
        "12d356d5b77ae6311fd18c9b1fe43418e0c26630c6e9c7a7e9151c9a99a20ddc",
        "12d356d5b77ae6311fd18c9b1fe43418e0c26630c6e9c7a7e9151c9a99a20ddc"),
    ("conjt", "binary-adjoint", 1): (
        "ecf7456d59ade11524788a6cc0adf0acc7f51a80ca165d4b2155f264153d741b",
        "ecf7456d59ade11524788a6cc0adf0acc7f51a80ca165d4b2155f264153d741b"),
    ("conjt", "binary-adjoint", 2): (
        "2240719533687b63162f2329d9f2ddd8e13acf2aba7c912185ebde9aa65a6824",
        "2240719533687b63162f2329d9f2ddd8e13acf2aba7c912185ebde9aa65a6824"),
    ("gl21", "binary-scalar", 1): (
        "31e3cf167d09985be9981f209dfbb255d35df9e30bb05317c4832fec26d25b7a",
        "31e3cf167d09985be9981f209dfbb255d35df9e30bb05317c4832fec26d25b7a"),
    ("gl21", "binary-scalar", 2): (
        "2fae38431b2d415753bf31ebeef79b5a9adbbe5a1cee6b51589d56223d81fcab",
        "2fae38431b2d415753bf31ebeef79b5a9adbbe5a1cee6b51589d56223d81fcab"),
    ("gl21", "binary-scalar", 3): (
        "b560a4f9d0e4ff8f76b72957ff8edf7996955ff0358036175fb48adc2a0343f5",
        "b560a4f9d0e4ff8f76b72957ff8edf7996955ff0358036175fb48adc2a0343f5"),
    ("gl21", "binary-adjoint", 1): (
        "4ec3dc8243a58faaefe7b8e6d33537cdccd91e1bda4dadee8e6d890903635791",
        "4ec3dc8243a58faaefe7b8e6d33537cdccd91e1bda4dadee8e6d890903635791"),
    ("gl21", "binary-adjoint", 2): (
        "1c62dd642eb149eb679edb939dd2b4d155a20eb321ad862a3eb243601becb296",
        "1c62dd642eb149eb679edb939dd2b4d155a20eb321ad862a3eb243601becb296"),
}


def test_binary_coboundary_matrices_are_pinned():
    for name, lie, rep in (*oracle_algebras(), ("gl21", *glmn(2, 1))):
        for cx, degrees in (("binary-scalar", (1, 2, 3)),
                            ("binary-adjoint", (1, 2))):
            for degree in degrees:
                for parity in (0, 1):
                    text = repr(coboundary_matrix(lie, cx, degree, parity))
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    assert digest == PINNED_BINARY_SHA256[
                        name, cx, degree][parity], (name, cx, degree, parity)
