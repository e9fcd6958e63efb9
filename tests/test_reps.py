"""Representations, supertrace functionals and their invariance."""

import random
from fractions import Fraction

import pytest

from homnambu.fixtures import gl11, gl11t, neg_rep
from homnambu.graded import GradedMap, graded_space, supertrace
from homnambu.linalg import InputError, Matrix, PreconditionError, frac
from homnambu.reps import (Representation, TraceFunctional,
                           adjoint_representation, check_induction_compatibility,
                           trace_functional, trace_kernel, trace_mismatches,
                           verify_representation, zero_representation)

from oracles import rho_of_vector


def test_fixture_reps_verify(all_binary):
    for name, _, rep in all_binary:
        assert verify_representation(rep).verdict == "pass", name


def test_neg_rep_witness():
    rep = verify_representation(neg_rep())
    assert rep.verdict == "fail"
    assert rep.findings[0].witness == ("q",)
    assert rep.findings[0].residual == ("0", "1", "0", "0")


def test_gl11_trace_functional(r11):
    tau = trace_functional(r11)
    assert tau.values == (1, -1, 0, 0)
    assert trace_kernel(tau).dim == 3


def test_gl11t_trace_functional():
    _, rep = gl11t()
    tau = trace_functional(rep)
    assert tau.values == (Fraction(-3, 2), Fraction(3, 2), 0, 0)


def test_trace_alpha_invariance(all_binary):
    for name, lie, rep in all_binary:
        tau = trace_functional(rep)
        assert trace_mismatches(tau, lie.alpha) == (), name


def test_supertrace_kills_supercommutators():
    """str([f,g]) = 0 for homogeneous endomorphisms of a small graded space."""
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 4)
        parities = tuple(rng.randint(0, 1) for _ in range(n))
        sp = graded_space(tuple(f"b{i}" for i in range(n)), parities)

        def rand_homog(par):
            rows = [[frac(rng.randint(-3, 3))
                     if (parities[i] + parities[j]) % 2 == par else frac(0)
                     for j in range(n)] for i in range(n)]
            return GradedMap(sp, sp, Matrix.build(rows), par)

        pf, pg = rng.randint(0, 1), rng.randint(0, 1)
        f, g = rand_homog(pf), rand_homog(pg)
        fg = f.matrix.mul(g.matrix)
        gf = g.matrix.mul(f.matrix)
        sgn = -1 if pf and pg else 1
        comm = fg.add(gf.scale(-sgn))
        assert supertrace(GradedMap(sp, sp, comm, (pf + pg) % 2)) == 0


def test_adjoint_representation_verifies(all_binary):
    for name, lie, _ in all_binary:
        ad = adjoint_representation(lie)
        assert verify_representation(ad).verdict == "pass", name


def test_zero_representation_verifies(g11):
    assert verify_representation(zero_representation(g11)).verdict == "pass"


def test_rho_of_vector_is_linear(r11):
    rng = random.Random(32)
    for _ in range(10):
        u = tuple(frac(rng.randint(-3, 3)) for _ in range(4))
        v = tuple(frac(rng.randint(-3, 3)) for _ in range(4))
        uv = tuple(a + b for a, b in zip(u, v))
        m = rho_of_vector(r11, uv)
        want = rho_of_vector(r11, u).add(rho_of_vector(r11, v))
        assert m == want


def test_trace_functional_apply(tau11):
    assert tau11.apply((2, 3, 5, 7)) == -1
    assert tau11.values[0] == 1
    assert tau11.values[3] == 0


@pytest.mark.parametrize("bad", [1.0, "1"])
def test_trace_functional_rejects_a_value_that_is_not_an_exact_rational(
        g11, bad):
    # by linalg.frac's rule, at construction rather than in induce_ternary
    with pytest.raises(InputError, match="value 0 is not an exact rational"):
        TraceFunctional(g11, (bad, -1, 0, 0))
    assert TraceFunctional(g11, (Fraction(1), -1, 0, 0)).apply(
        (1, 0, 0, 0)) == 1


def test_induction_compatibility_condition3(g11, r11, tau11):
    rep = check_induction_compatibility(tau11, g11.alpha, g11.alpha)
    assert rep.verdict == "pass"
    notes = [f for f in rep.findings if f.status == "note"]
    assert len(notes) == 2
    # a companion that scales h1 only breaks condition 3
    bad = GradedMap(g11.space, g11.space,
                    Matrix.build([[2, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert check_induction_compatibility(tau11, g11.alpha, bad).verdict == "fail"
