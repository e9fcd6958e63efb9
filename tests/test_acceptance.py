"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single visible
verdict line, so a terminal run shows the full checklist even when
pytest captures regular output.  Everything is exact rational
arithmetic; there are no tolerances anywhere.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from homnambu.binary import (verify_hom_jacobi, verify_morphism,
                             verify_multiplicative, verify_skew)
from homnambu.cohomology import (Cochain, binary_adjoint_cocycle_space,
                                 coboundary_matrix, cochain_length,
                                 cohomology_dims, induce_cocycle,
                                 parity_support, verify_cochain_transfer)
from homnambu.extensions import (CentralExtensionData, build_central_extension,
                                 extension_isomorphism, induce_extension,
                                 verify_extension)
from homnambu.fixtures import (conjugate_gl11, neg_jacobi, neg_mult, neg_rep,
                               neg_skew, neg_ternary_skew)
from homnambu.graded import GradedMap, graded_space, skew_basis, supertrace
from homnambu.linalg import Matrix, Subspace, frac, is_zero_vec, kernel
from homnambu.reps import trace_functional, verify_representation
from homnambu.series import (binary_central_series, central_series,
                             derived_series, ternary_center,
                             verify_center_transfer)
from homnambu.ternary import (induce_ternary, verify_hom_nambu,
                              verify_ternary_multiplicative,
                              verify_ternary_skew)

from oracles import select

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@contextlib.contextmanager
def criterion(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance {num}] {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance {num}] {label}: PASS")


def induced(lie, rep):
    tau = trace_functional(rep)
    return tau, induce_ternary(lie, tau, lie.alpha, lie.alpha)


def lifted_kernel_basis(cx, g):
    """Even cocycle basis vectors, re-embedded in full coordinates."""
    sel_in = parity_support(cx, 2, g.space, 0)
    sel_out = parity_support(cx, 3, g.space, 0)
    block = select(coboundary_matrix(g, "binary-scalar", 2), sel_out, sel_in)
    n = cochain_length(cx, 2, g.space)
    out = []
    for v in kernel(block).vectors():
        full = [Fraction(0)] * n
        for pos, x in zip(sel_in, v):
            full[pos] = x
        out.append(tuple(full))
    return out


def random_even_2cochain(rng, g):
    sel = parity_support("binary-scalar", 2, g.space, 0)
    n = cochain_length("binary-scalar", 2, g.space)
    coords = [Fraction(0)] * n
    for pos in sel:
        coords[pos] = Fraction(rng.randint(-3, 3))
    return Cochain("binary-scalar", 2, 0, g.space, tuple(coords))


def random_1cochain(rng, g, parity):
    sel = parity_support("binary-scalar", 1, g.space, parity)
    n = cochain_length("binary-scalar", 1, g.space)
    coords = [Fraction(0)] * n
    for pos in sel:
        coords[pos] = Fraction(rng.randint(-3, 3))
    return Cochain("binary-scalar", 1, parity, g.space, tuple(coords))


def test_criterion_1_axioms_and_negatives(capsys, all_binary):
    with criterion(capsys, 1, "axiom suite and perturbed negatives"):
        for name, lie, rep in all_binary:
            for check in (verify_skew, verify_hom_jacobi,
                          verify_multiplicative):
                r = check(lie)
                assert r.verdict == "pass" and not r.findings, (name,
                                                                r.command)
            r = verify_representation(rep)
            assert r.verdict == "pass" and not r.findings, name

        r = verify_skew(neg_skew())
        assert r.verdict == "fail"
        assert r.findings[0].witness == ("q", "p")
        assert r.findings[0].residual == ("2", "0", "0", "0")

        r = verify_hom_jacobi(neg_jacobi())
        assert r.verdict == "fail"
        assert r.findings[0].witness == ("q", "q", "p")
        assert r.findings[0].residual == ("0", "0", "2", "0")

        r = verify_multiplicative(neg_mult())
        assert r.verdict == "fail"
        assert r.findings[0].witness == ("h1", "q")

        r = verify_representation(neg_rep())
        assert r.verdict == "fail"
        assert r.findings[0].witness == ("q",)
        assert r.findings[0].residual == ("0", "1", "0", "0")

        r = verify_ternary_skew(neg_ternary_skew())
        assert r.verdict == "fail"
        assert r.findings[0].witness == ("h1", "q", "p")


def test_criterion_2_supertrace_identity(capsys):
    with criterion(capsys, 2, "supertrace kills supercommutators"):
        rng = random.Random(1002)
        for _ in range(1000):
            n = rng.randint(1, 4)
            parities = tuple(rng.randint(0, 1) for _ in range(n))
            sp = graded_space(tuple(f"v{i}" for i in range(n)), parities)

            def rand_homog(par):
                rows = [[frac(rng.randint(-4, 4))
                         if (parities[i] + parities[j]) % 2 == par
                         else frac(0) for j in range(n)] for i in range(n)]
                return Matrix.build(rows), par

            (fm, pf), (gm, pg) = (rand_homog(rng.randint(0, 1)),
                                  rand_homog(rng.randint(0, 1)))
            sgn = -1 if pf and pg else 1
            comm = fm.mul(gm).add(gm.mul(fm).scale(-sgn))
            assert supertrace(GradedMap(sp, sp, comm, (pf + pg) % 2)) == 0


def test_criterion_3_induction_theorem(capsys, g11, r11):
    with criterion(capsys, 3, "induced triple brackets satisfy all axioms"):
        rng = random.Random(1003)
        pairs = [(g11, r11)]
        pairs += [conjugate_gl11(rng) for _ in range(100)]
        for lie, rep in pairs:
            tau, t = induced(lie, rep)
            assert verify_ternary_skew(t).verdict == "pass"
            assert verify_hom_nambu(t).verdict == "pass"
            assert verify_ternary_multiplicative(t).verdict == "pass"


def test_criterion_4_solvability(capsys, t11):
    with criterion(capsys, 4, "induced algebras are solvable of class 2"):
        res = derived_series(t11)
        assert res.dims()[:3] == (4, 1, 0)
        assert res.class_index == 2
        want = Subspace.from_vectors(4, [(frac(1), frac(1), frac(0),
                                          frac(0))])
        assert res.terms[1] == want
        assert res.terms[2].is_zero()

        rng = random.Random(1004)
        for _ in range(100):
            lie, rep = conjugate_gl11(rng)
            tau, t = induced(lie, rep)
            assert derived_series(t).dims()[2] == 0


def test_criterion_5_center_and_transfer(capsys, t11, all_binary):
    with criterion(capsys, 5, "centers line up and transfer"):
        want = Subspace.from_vectors(4, [(frac(1), frac(1), frac(0),
                                          frac(0))])
        assert ternary_center(t11) == want
        for name, lie, rep in all_binary:
            tau, t = induced(lie, rep)
            assert verify_center_transfer(lie, tau, t).verdict == "pass", name
            b = binary_central_series(lie)
            c = central_series(t)
            for k in range(min(len(b.terms), len(c.terms))):
                assert b.terms[k].contains_subspace(c.terms[k]), (name, k)


def test_criterion_6_extension_equivalence(capsys, g11):
    with criterion(capsys, 6, "extension builds track the cocycle identity"):
        rng = random.Random(1006)
        basis = lifted_kernel_basis("binary-scalar", g11)
        d2 = coboundary_matrix(g11, "binary-scalar", 2)
        closed_seen = open_seen = 0
        for k in range(50):
            if k % 3 == 0:
                cs = [Fraction(rng.randint(-3, 3)) for _ in basis]
                coords = tuple(sum((c * v[i] for c, v in zip(cs, basis)),
                                   Fraction(0))
                               for i in range(len(basis[0])))
                om = Cochain("binary-scalar", 2, 0, g11.space, coords)
            else:
                om = random_even_2cochain(rng, g11)
            ext = build_central_extension(CentralExtensionData(g11, om))
            closed = is_zero_vec(d2.apply(om.coords))
            assert verify_hom_jacobi(ext).ok == closed
            assert verify_extension(CentralExtensionData(g11, om)).verdict \
                == "pass"
            closed_seen += closed
            open_seen += not closed
        assert closed_seen and open_seen

        m1 = coboundary_matrix(g11, "binary-scalar", 1)
        for _ in range(10):
            cs = [Fraction(rng.randint(-3, 3)) for _ in basis]
            coords = tuple(sum((c * v[i] for c, v in zip(cs, basis)),
                               Fraction(0)) for i in range(len(basis[0])))
            om1 = Cochain("binary-scalar", 2, 0, g11.space, coords)
            eta = random_1cochain(rng, g11, 0)
            shift = m1.apply(eta.coords)
            om2 = Cochain("binary-scalar", 2, 0, g11.space,
                          tuple(a + b for a, b in zip(om1.coords, shift)))
            f = extension_isomorphism(om1, om2, g11)
            assert f is not None
            e1 = build_central_extension(CentralExtensionData(g11, om1))
            e2 = build_central_extension(CentralExtensionData(g11, om2))
            assert verify_morphism(f, e1, e2).verdict == "pass"


def test_criterion_7_induced_extension(capsys, g11, tau11, t11):
    with criterion(capsys, 7, "induced extension bracket decomposes"):
        rng = random.Random(1007)
        basis = lifted_kernel_basis("binary-scalar", g11)
        m1 = coboundary_matrix(g11, "binary-scalar", 1)
        sb2 = skew_basis(2, g11.space)
        dim = g11.dim
        for _ in range(20):
            cs = [Fraction(rng.randint(-3, 3)) for _ in basis]
            coords = [sum((c * v[i] for c, v in zip(cs, basis)), Fraction(0))
                      for i in range(len(basis[0]))]
            shift = m1.apply(random_1cochain(rng, g11, 0).coords)
            om = Cochain("binary-scalar", 2, 0, g11.space,
                         tuple(a + b for a, b in zip(coords, shift)))
            t_ext, om_rho = induce_extension(g11, tau11,
                                             CentralExtensionData(g11, om))
            assert om_rho.coords == induce_cocycle(g11, tau11, [om],
                                                   t11)[0].coords
            for pos, (x1, x2) in enumerate(sb2.tuples):
                for k in range(dim):
                    v = t_ext.bracket.value(x1, x2, k)
                    assert v[:dim] == t11.bracket.value(x1, x2, k)
                    assert v[dim] == om_rho.coords[pos * dim + k]
            for i in range(dim + 1):
                for j in range(dim + 1):
                    assert is_zero_vec(t_ext.bracket.value(i, j, dim))
                    assert is_zero_vec(t_ext.bracket.value(i, dim, j))
                    assert is_zero_vec(t_ext.bracket.value(dim, i, j))


def test_criterion_8_cohomology(capsys, g11, tau11, t11, all_binary):
    with criterion(capsys, 8, "coboundaries square to zero and transfer"):
        for name, lie, rep in all_binary:
            d1, d2 = (coboundary_matrix(lie, "binary-scalar", p)
                      for p in (1, 2))
            assert d2.mul(d1).is_zero(), name
            tau, t = induced(lie, rep)
            for cx in ("ternary-scalar", "ternary-adjoint"):
                d1 = coboundary_matrix(t, cx, 1)
                d2 = coboundary_matrix(t, cx, 2)
                assert d2.mul(d1).is_zero(), (name, cx)
                for parity in (0, 1):
                    sel1 = parity_support(cx, 1, lie.space, parity)
                    sel2 = parity_support(cx, 2, lie.space, parity)
                    sel3 = parity_support(cx, 3, lie.space, parity)
                    b2 = select(d2, sel3, sel2)
                    b1 = select(d1, sel2, sel1)
                    assert b2.mul(b1).is_zero(), (name, cx, parity)

        assert kernel(coboundary_matrix(g11, "binary-scalar", 1)).dim == 1
        assert cohomology_dims(g11, "binary-scalar", 1)[0] == 1

        rng = random.Random(1008)
        n_ad = cochain_length("binary-adjoint", 2, g11.space)
        for parity in (0, 1):
            vecs = binary_adjoint_cocycle_space(g11, parity).vectors()
            for _ in range(10):
                cs = [Fraction(rng.randint(-3, 3)) for _ in vecs]
                coords = tuple(sum((c * v[i] for c, v in zip(cs, vecs)),
                                   Fraction(0)) for i in range(n_ad))
                phi = Cochain("binary-adjoint", 2, parity, g11.space, coords)
                out, = induce_cocycle(g11, tau11, [phi], t11)
                resid = coboundary_matrix(t11, "ternary-adjoint",
                                          2).apply(out.coords)
                assert is_zero_vec(resid)

        for k in range(20):
            om = random_1cochain(rng, g11, k % 2)
            assert verify_cochain_transfer(g11, tau11, [om], [],
                                           t11)[0][0].verdict == "pass"

        basis = lifted_kernel_basis("binary-scalar", g11)
        m1 = coboundary_matrix(g11, "binary-scalar", 1)
        n2 = cochain_length("binary-scalar", 2, g11.space)
        for _ in range(20):
            cs = [Fraction(rng.randint(-3, 3)) for _ in basis]
            coords = tuple(sum((c * v[i] for c, v in zip(cs, basis)),
                               Fraction(0)) for i in range(n2))
            phi1 = Cochain("binary-scalar", 2, 0, g11.space, coords)
            shift = m1.apply(random_1cochain(rng, g11, 0).coords)
            phi2 = Cochain("binary-scalar", 2, 0, g11.space,
                           tuple(a + b for a, b in zip(phi1.coords, shift)))
            assert verify_cochain_transfer(g11, tau11, [], [(phi1, phi2)],
                                           t11)[1][0].verdict == "pass"


def test_criterion_9_cli_surface(capsys, corpus):
    with criterion(capsys, 9, "command line matches the golden corpus"):
        from regen_fixtures import GOLDEN

        # the corpus fixture ran every call and required its table's code
        for golden, _, _ in GOLDEN:
            want = (FIXTURES / "golden" / golden).read_bytes()
            assert (corpus / "golden" / golden).read_bytes() == want, golden
        assert {code for _, _, code in GOLDEN} == {0, 1, 2}
