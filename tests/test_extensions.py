"""Central extensions by scalar 2-cochains."""

import random
from fractions import Fraction

import pytest

from homnambu.binary import (verify_hom_jacobi, verify_morphism,
                             verify_multiplicative, verify_skew)
from homnambu.cohomology import (Cochain, coboundary_matrix, cochain_length,
                                 parity_support)
from homnambu.extensions import (CentralExtensionData, build_central_extension,
                                 extended_space, extension_isomorphism,
                                 induce_extension, verify_extension)
from homnambu.linalg import InputError, PreconditionError, frac, is_zero_vec, kernel
from homnambu.series import ternary_center

from oracles import select


def even_cochain(g, coords_by_pos):
    n = cochain_length("binary-scalar", 2, g.space)
    coords = [Fraction(0)] * n
    for pos, c in coords_by_pos.items():
        coords[pos] = frac(c)
    return Cochain("binary-scalar", 2, 0, g.space, tuple(coords))


def random_even_cochain(rng, g):
    sel = parity_support("binary-scalar", 2, g.space, 0)
    return even_cochain(g, {pos: rng.randint(-3, 3) for pos in sel})


def even_cocycle_basis(g):
    sel_in = parity_support("binary-scalar", 2, g.space, 0)
    sel_out = parity_support("binary-scalar", 3, g.space, 0)
    d2 = coboundary_matrix(g, "binary-scalar", 2)
    zk = kernel(select(d2, sel_out, sel_in))
    out = []
    for v in zk.vectors():
        n = cochain_length("binary-scalar", 2, g.space)
        coords = [Fraction(0)] * n
        for pos, x in zip(sel_in, v):
            coords[pos] = x
        out.append(Cochain("binary-scalar", 2, 0, g.space, tuple(coords)))
    return out


def test_extended_space_shape(g11):
    sp = extended_space(g11)
    assert sp.names == ("h1", "h2", "q", "p", "c")
    assert sp.parities == (0, 0, 1, 1, 0)


def test_jacobi_iff_cocycle(g11):
    rng = random.Random(61)
    seen_pass = seen_fail = 0
    for _ in range(25):
        om = random_even_cochain(rng, g11)
        data = CentralExtensionData(g11, om)
        ext = build_central_extension(data)
        closed = is_zero_vec(
            coboundary_matrix(g11, "binary-scalar", 2).apply(om.coords))
        assert verify_hom_jacobi(ext).ok == closed
        assert verify_extension(data).verdict == "pass"
        assert verify_skew(ext).verdict == "pass"
        seen_pass += closed
        seen_fail += not closed
    assert seen_fail        # random draws must include non-cocycles


def test_cocycle_extension_full_axioms(g11):
    for om in even_cocycle_basis(g11):
        ext = build_central_extension(CentralExtensionData(g11, om))
        assert verify_skew(ext).verdict == "pass"
        assert verify_hom_jacobi(ext).verdict == "pass"
        assert verify_multiplicative(ext).verdict == "pass"


def test_c_is_central_and_bracket_decomposes(g11):
    om = even_cocycle_basis(g11)[0]
    ext = build_central_extension(CentralExtensionData(g11, om))
    dim = g11.dim
    for j in range(dim + 1):
        assert is_zero_vec(ext.bracket.value(dim, j))
    from homnambu.cohomology import binary_pair_eval
    for i in range(dim):
        for j in range(dim):
            got = ext.bracket.value(i, j)
            base = g11.bracket.value(i, j)
            assert got[:dim] == base
            assert got[dim] == binary_pair_eval(om, i, j)


def test_lambda_shifts_twist_not_bracket(g11):
    om = even_cocycle_basis(g11)[0]
    plain = build_central_extension(CentralExtensionData(g11, om))
    lam = (1, 2, 0, 0, 1)
    shifted = build_central_extension(CentralExtensionData(g11, om, lam))
    assert plain.bracket == shifted.bracket
    assert plain.alpha.matrix != shifted.alpha.matrix
    assert shifted.alpha.column(0)[4] == 1
    assert shifted.alpha.column(4) == (0, 0, 0, 0, 1)


def test_lambda_must_vanish_on_odd(g11):
    om = even_cocycle_basis(g11)[0]
    with pytest.raises(InputError):
        CentralExtensionData(g11, om, (0, 0, 1, 0, 0))


def test_odd_cochain_rejected(g11):
    n = cochain_length("binary-scalar", 2, g11.space)
    sel = parity_support("binary-scalar", 2, g11.space, 1)
    coords = [Fraction(0)] * n
    coords[sel[0]] = Fraction(1)
    om = Cochain("binary-scalar", 2, 1, g11.space, tuple(coords))
    with pytest.raises(InputError):
        CentralExtensionData(g11, om)


def test_isomorphism_for_cohomologous_pair(g11):
    rng = random.Random(62)
    base = even_cocycle_basis(g11)[0]
    m1 = coboundary_matrix(g11, "binary-scalar", 1)
    for _ in range(5):
        sel1 = parity_support("binary-scalar", 1, g11.space, 0)
        n1 = cochain_length("binary-scalar", 1, g11.space)
        eta = [Fraction(0)] * n1
        for pos in sel1:
            eta[pos] = Fraction(rng.randint(-3, 3))
        shift = m1.apply(tuple(eta))
        om2 = Cochain("binary-scalar", 2, 0, g11.space,
                      tuple(a + b for a, b in zip(base.coords, shift)))
        f = extension_isomorphism(base, om2, g11)
        assert f is not None
        e1 = build_central_extension(CentralExtensionData(g11, base))
        e2 = build_central_extension(CentralExtensionData(g11, om2))
        assert verify_morphism(f, e1, e2).verdict == "pass"
        # f fixes c and shifts g by multiples of c only
        assert f.column(4) == (0, 0, 0, 0, 1)
        for j in range(4):
            assert f.column(j)[:4] == tuple(1 if m == j else 0 for m in range(4))


def test_every_gl11_cocycle_is_trivial_class(g11):
    # H^2 of this fixture vanishes, so each cocycle must match the zero class
    zero = Cochain.zero("binary-scalar", 2, g11.space)
    for om in even_cocycle_basis(g11):
        assert extension_isomorphism(zero, om, g11) is not None


def test_isomorphism_refuses_distinct_classes(all_binary):
    # the abelian fixture has no coboundaries, so any nonzero cocycle
    # sits in a class of its own
    a0 = next(lie for name, lie, rep in all_binary if name == "a0")
    nontrivial = even_cochain(a0, {parity_support("binary-scalar", 2,
                                                  a0.space, 0)[0]: 1})
    assert not is_zero_vec(nontrivial.coords)
    assert is_zero_vec(
        coboundary_matrix(a0, "binary-scalar", 2).apply(nontrivial.coords))
    zero = Cochain.zero("binary-scalar", 2, a0.space)
    assert extension_isomorphism(zero, nontrivial, a0) is None


def test_isomorphism_requires_cocycles(g11):
    rng = random.Random(63)
    om = random_even_cochain(rng, g11)
    assert not is_zero_vec(
        coboundary_matrix(g11, "binary-scalar", 2).apply(om.coords))
    zero = Cochain.zero("binary-scalar", 2, g11.space)
    with pytest.raises(PreconditionError):
        extension_isomorphism(zero, om, g11)


def test_induce_extension_decomposition(g11, tau11, t11):
    from homnambu.cohomology import induce_cocycle
    from homnambu.graded import skew_basis
    om = even_cocycle_basis(g11)[0]
    t_ext, om_rho = induce_extension(g11, tau11, CentralExtensionData(g11, om))
    assert om_rho.coords == induce_cocycle(g11, tau11, [om], t11)[0].coords
    # c never leaves the ternary center of the extension
    z = ternary_center(t_ext)
    assert z.contains((0, 0, 0, 0, 1))


def test_induce_extension_rejects_non_cocycle(g11, tau11):
    rng = random.Random(64)
    om = random_even_cochain(rng, g11)
    assert not is_zero_vec(
        coboundary_matrix(g11, "binary-scalar", 2).apply(om.coords))
    with pytest.raises(PreconditionError):
        induce_extension(g11, tau11, CentralExtensionData(g11, om))


def test_transfer_rejects_twist_moving_trace_at_first_basis_element(g11):
    """alpha(h1) = 2 h1 + h2 keeps Hom-Jacobi on gl(1|1) and, for tau = h1*,
    moves tau only at basis index 0; both transfers must refuse it."""
    from homnambu.binary import HomLieSuper
    from homnambu.cohomology import induce_cocycle
    from homnambu.graded import GradedMap
    from homnambu.linalg import Matrix
    from homnambu.reps import TraceFunctional, trace_mismatches
    from homnambu.ternary import induce_ternary
    alpha = GradedMap(g11.space, g11.space, Matrix.build(
        [[2, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    g = HomLieSuper(g11.space, g11.bracket, alpha)
    tau = TraceFunctional(g, (frac(1), frac(0), frac(0), frac(0)))
    assert verify_hom_jacobi(g).ok
    assert trace_mismatches(tau, alpha) == (0,)
    zero = even_cochain(g, {})
    t = induce_ternary(g, tau, alpha, alpha)
    with pytest.raises(PreconditionError, match="twist invariant"):
        induce_cocycle(g, tau, [zero], t)
    # in a batch, each check runs on every cochain before the next check
    # starts, so the first check to fail decides: a cochain of the wrong
    # shape anywhere raises before the twist check, which a batch of
    # 2-cocycles alone reaches
    wrong = Cochain.zero("binary-scalar", 1, g.space)
    with pytest.raises(PreconditionError, match="binary 2-cochain"):
        induce_cocycle(g, tau, [zero, wrong], t)
    with pytest.raises(PreconditionError, match="binary 2-cochain"):
        induce_cocycle(g, tau, [wrong, zero], t)
    with pytest.raises(PreconditionError, match="twist invariant"):
        induce_cocycle(g, tau, [zero, zero], t)
    with pytest.raises(PreconditionError, match="twist invariant"):
        induce_extension(g, tau, CentralExtensionData(g, zero))
