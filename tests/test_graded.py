"""Graded spaces, Koszul signs and the canonical skew basis."""

import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from homnambu.binary import HomLieSuper, SuperBracket2, verify_skew
from homnambu.cohomology import make_cochain
from homnambu.fixtures import (conjugate_gl11, gl11, gl11t, induced_gl11,
                               neg_skew)
from homnambu.graded import (GradedMap, GradedSpace, InputError, SuperBracket,
                             canonicalize, graded_space, identity_map,
                             is_canonical, koszul_sign, skew_basis,
                             supertrace, tuple_parity, wedge_expand,
                             wedge_table)
from homnambu.linalg import Matrix, Subspace, frac, nonzero_terms
from homnambu.reps import trace_functional
from homnambu.ternary import (SuperBracket3, TernaryHomLieSuper,
                              induce_ternary, verify_hom_nambu,
                              verify_ternary_skew)


def bfs_koszul(perm, parities):
    """Reference sign: undo the permutation by adjacent swaps, counting
    odd-odd crossings one at a time."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(len(perm) - 1):
            if perm[j] > perm[j + 1]:
                if parities[perm[j]] and parities[perm[j + 1]]:
                    sign = -sign
                perm[j], perm[j + 1] = perm[j + 1], perm[j]
    return sign


def test_koszul_sign_matches_adjacent_swap_oracle():
    for n in range(1, 5):
        for bits in range(2 ** n):
            parities = tuple((bits >> k) & 1 for k in range(n))
            for perm in permutations(range(n)):
                assert koszul_sign(perm, parities) == bfs_koszul(perm, parities)


def test_koszul_sign_rejects_non_permutations():
    with pytest.raises(InputError):
        koszul_sign((0, 0, 1), (0, 0, 0))


def test_canonicalize_properties():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 5)
        parities = tuple(rng.randint(0, 1) for _ in range(n))
        deg = rng.randint(2, 4)
        idx = tuple(rng.randrange(n) for _ in range(deg))
        out, sign, zero = canonicalize(idx, parities)
        assert sign in (1, -1)
        assert sorted(out) == list(out)
        assert sorted(out) == sorted(idx)
        if any(idx.count(i) > 1 and parities[i] == 0 for i in idx):
            assert zero
        if zero:
            assert any(out[k] == out[k + 1] and parities[out[k]] == 0
                       for k in range(deg - 1))


def test_canonicalize_is_already_canonical_fixed_point():
    parities = (0, 0, 1, 1)
    out, sign, zero = canonicalize((0, 2, 3), parities)
    assert (out, sign, zero) == ((0, 2, 3), 1, False)
    out, sign, zero = canonicalize((2, 2), parities)
    assert (out, sign, zero) == ((2, 2), 1, False)
    out, sign, zero = canonicalize((0, 0), parities)
    assert zero


def test_canonicalize_swap_signs():
    parities = (0, 0, 1, 1)
    # even-odd swap: plain antisymmetry minus
    assert canonicalize((2, 0), parities)[1] == -1
    # odd-odd swap: the two minuses cancel
    assert canonicalize((3, 2), parities)[1] == 1


def test_skew_basis_counts():
    sp = graded_space(("h1", "h2", "q", "p"), (0, 0, 1, 1))
    assert len(skew_basis(1, sp)) == 4
    # 6 strict pairs plus (q,q) and (p,p)
    assert len(skew_basis(2, sp)) == 8
    sb3 = skew_basis(3, sp)
    assert len(sb3) == 12
    for t in sb3.tuples:
        assert list(t) == sorted(t)
        for k in range(2):
            assert t[k] != t[k + 1] or sp.parities[t[k]] == 1


def test_skew_basis_index_roundtrip():
    sp = graded_space(("a", "b", "x"), (0, 0, 1))
    sb = skew_basis(2, sp)
    for k, t in enumerate(sb.tuples):
        assert sb.index[t] == k
    assert (1, 0) not in sb.index


def test_tuple_parity():
    parities = (0, 1, 1)
    assert tuple_parity((0, 1), parities) == 1
    assert tuple_parity((1, 2), parities) == 0


def test_supertrace_signs():
    sp = graded_space(("e", "f"), (0, 1))
    m = GradedMap(sp, sp, Matrix.build([[3, 0], [0, 5]]))
    assert supertrace(m) == Fraction(-2)


def test_supertrace_needs_endomorphism():
    a = graded_space(("e",), (0,))
    b = graded_space(("f", "g"), (0, 1))
    with pytest.raises(InputError):
        supertrace(GradedMap(a, b, Matrix.build([[1], [0]]), 0))


def test_graded_map_parity_enforced():
    sp = graded_space(("e", "x"), (0, 1))
    with pytest.raises(InputError):
        GradedMap(sp, sp, Matrix.build([[0, 1], [1, 0]]), 0)
    GradedMap(sp, sp, Matrix.build([[0, 1], [1, 0]]), 1)


def test_wedge2_expand_against_canonicalize():
    rng = random.Random(12)
    sp = graded_space(("h1", "h2", "q", "p"), (0, 0, 1, 1))
    sb2 = skew_basis(2, sp)
    for _ in range(40):
        a = tuple(frac(rng.randint(-3, 3)) for _ in range(4))
        b = tuple(frac(rng.randint(-3, 3)) for _ in range(4))
        got = wedge_expand([nonzero_terms(a), nonzero_terms(b)],
                           wedge_table(2, sp, sb2.index))
        want = [Fraction(0)] * len(sb2)
        for i in range(4):
            for j in range(4):
                t, sign, zero = canonicalize((i, j), sp.parities)
                if not zero:
                    want[sb2.index[t]] += sign * a[i] * b[j]
        assert got == {k: x for k, x in enumerate(want) if x}


def test_wedge2_super_antisymmetry():
    # b wedge a = -(-1)^{|a||b|} a wedge b for homogeneous arguments
    sp = graded_space(("h1", "h2", "q", "p"), (0, 0, 1, 1))
    sb2 = skew_basis(2, sp)
    rng = random.Random(13)
    for pa in (0, 1):
        for pb in (0, 1):
            idx_a = [i for i in range(4) if sp.parities[i] == pa]
            idx_b = [i for i in range(4) if sp.parities[i] == pb]
            a = tuple(frac(rng.randint(-3, 3)) if i in idx_a else frac(0)
                      for i in range(4))
            b = tuple(frac(rng.randint(-3, 3)) if i in idx_b else frac(0)
                      for i in range(4))
            ra, rb = nonzero_terms(a), nonzero_terms(b)
            table = wedge_table(2, sp, sb2.index)
            lhs = wedge_expand([rb, ra], table)
            sgn = -1 if not (pa and pb) else 1
            rhs = {k: sgn * x
                   for k, x in wedge_expand([ra, rb], table).items()}
            assert lhs == rhs


def test_wedge_expand_degree_3_against_canonicalize():
    rng = random.Random(14)
    sp = graded_space(("h1", "h2", "e", "q", "p"), (0, 0, 0, 1, 1))
    sb3 = skew_basis(3, sp)
    for _ in range(20):
        vs = [tuple(frac(rng.randint(-2, 2)) for _ in range(5))
              for _ in range(3)]
        want = [Fraction(0)] * len(sb3)
        for idx in product(range(5), repeat=3):
            t, sign, zero = canonicalize(idx, sp.parities)
            if not zero:
                want[sb3.index[t]] += (sign * vs[0][idx[0]] * vs[1][idx[1]]
                                          * vs[2][idx[2]])
        rows = [nonzero_terms(v) for v in vs]
        got = wedge_expand(rows, wedge_table(3, sp, sb3.index))
        assert got == {k: x for k, x in enumerate(want) if x}


def test_graded_space_validation():
    with pytest.raises(InputError):
        graded_space(("x", "x"), (0, 0))
    with pytest.raises(InputError):
        graded_space(("x", "y"), (0, 2))
    sp = graded_space(("x", "y"), (0, 1))
    assert sp.index("y") == 1
    with pytest.raises(InputError):
        sp.index("z")
    assert sp.parities == (0, 1)


def rand_vec(rng, n):
    return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(n))


def conjugated_gl11_pair():
    """The binary bracket of a conjugated gl(1|1) and its induced bracket."""
    lie, rep = conjugate_gl11(random.Random(14))
    t = induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)
    return lie.bracket, t.bracket


def test_eval_vectors_is_the_multilinear_sum_of_values():
    rng = random.Random(15)
    for bracket in conjugated_gl11_pair():
        dim = bracket.space.dim
        for _ in range(10):
            args = [rand_vec(rng, dim) for _ in range(bracket.arity)]
            want = [Fraction(0)] * dim
            for idx in product(range(dim), repeat=bracket.arity):
                coeff = Fraction(1)
                for v, i in zip(args, idx):
                    coeff *= v[i]
                for m, c in enumerate(bracket.value(*idx)):
                    want[m] += coeff * c
            assert bracket.eval_vectors(*args) == tuple(want)


def test_from_canonical_drops_zero_vectors():
    sp = graded_space(("h1", "h2", "q", "p"), (0, 0, 1, 1))
    coeffs = {(0, 2): (0, 0, 1, 0), (0, 1): (0, 0, 0, 0), (2, 3): (1, 1, 0, 0)}
    b = SuperBracket2.from_canonical(sp, coeffs)
    assert b.canonical_coeffs() == {(0, 2): (0, 0, 1, 0), (2, 3): (1, 1, 0, 0)}
    assert (0, 1) not in b.integer[1] and (1, 0) not in b.integer[1]
    assert SuperBracket2.from_canonical(sp, {(0, 1): (0, 0, 0, 0)}).is_zero()


def test_brackets_from_the_same_coefficients_compare_equal():
    t = induced_gl11()
    coeffs = dict(t.bracket.canonical_coeffs())
    coeffs[(0, 1, 2)] = (0, 0, 0, 0)
    backwards = dict(reversed(list(coeffs.items())))
    assert list(backwards) != list(coeffs)
    a = SuperBracket3.from_canonical(t.space, coeffs)
    b = SuperBracket3.from_canonical(t.space, backwards)
    assert a == b == t.bracket
    # a patch undone is no change, and a zero patch removes the entry
    patched = a.with_entry(0, 2, 3, (5, 0, 0, 0))
    assert patched.with_entry(0, 2, 3, a.value(0, 2, 3)) == a
    zeroed = a.with_entry(0, 2, 3, (0, 0, 0, 0))
    assert (0, 2, 3) not in zeroed.integer[1] and zeroed != a
    # the arity is part of the type
    assert (SuperBracket2.from_canonical(t.space, {})
            != SuperBracket3.from_canonical(t.space, {}))


def test_table_is_the_nested_value_view():
    for bracket in conjugated_gl11_pair():
        dim = bracket.space.dim
        table = bracket.table
        for idx in product(range(dim), repeat=bracket.arity):
            cell = table
            for i in idx:
                cell = cell[i]
            assert cell == bracket.value(*idx)


def integer_oracle(bracket):
    """Each nonzero value of the bracket, over every ordered key, times
    the least common denominator, as the (coordinate, integer) pairs of
    its nonzero values."""
    values = {idx: bracket.value(*idx) for idx in product(
        range(bracket.space.dim), repeat=bracket.arity)}
    d = math.lcm(*(x.denominator for v in values.values() for x in v))
    return d, {key: tuple((m, int(d * x)) for m, x in enumerate(v) if x)
               for key, v in values.items() if any(v)}


def test_integer_view_clears_denominators_once_per_value():
    lie, rep = gl11t()
    t = induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)
    assert lie.bracket.integer[0] == 2
    for bracket in (*conjugated_gl11_pair(), lie.bracket, t.bracket):
        assert bracket.integer == integer_oracle(bracket)


def test_patched_copies_get_their_own_integer_view():
    t = induced_gl11()
    b = t.bracket
    before = b.integer
    third = Fraction(1, 3)
    patched = b.with_entry(0, 2, 3, (third, 0, 0, 0))
    assert patched.integer == integer_oracle(patched)
    assert patched.integer[0] == 3 and patched.integer[1][(0, 2, 3)] == ((0, 1),)
    redone = b.with_canonical((0, 2, 3), (Fraction(2, 5), Fraction(2, 5), 0, 0))
    assert redone.integer == integer_oracle(redone)
    assert redone.integer[0] == 5
    assert redone.integer[1][(2, 0, 3)] == ((0, -2), (1, -2))
    assert b.integer is before and b.integer == integer_oracle(b)


def test_building_the_integer_view_leaves_equality_alone():
    """The same values compare equal whichever constructor built them and
    in whatever order the entries came."""
    t = induced_gl11()
    a = SuperBracket3.from_canonical(t.space, t.bracket.canonical_coeffs())
    b = SuperBracket3.from_vectors(t.space,
                                   dict(reversed(a.vectors().items())))
    assert list(a.integer[1]) != list(b.integer[1])
    assert a == b and b == a and a == t.bracket
    assert a != a.with_entry(0, 2, 3, (0, 0, 0, 0))
    with pytest.raises(InputError, match="bad bracket entry"):
        SuperBracket3.from_vectors(t.space, {(0, 2, 3): (0, 0, 0, 0)})
    with pytest.raises(InputError, match="bad bracket entry"):
        SuperBracket3.from_vectors(t.space, {(0, 2): (1, 0, 0, 0)})


def test_super_skew_is_fixed_at_construction_and_matches_binary_skew():
    lie, _ = gl11()
    b = lie.bracket
    fresh = b.with_entry(0, 0, (0, 1, 0, 0))          # an even index repeats
    assert "super_skew" in vars(b) and "super_skew" in vars(fresh)
    cases = [
        b,
        neg_skew().bracket,
        fresh,
        b.with_entry(3, 2, (2, 2, 0, 0)),             # mirror stored 2x
        b.with_entry(2, 0, (0, 0, 0, 0)),             # mirror missing
        SuperBracket2.from_vectors(b.space, {
            **b.vectors(), (2, 3): (1, 1, 1, 0),
            (3, 2): (1, 1, 1, 0)}),                   # parity law broken
    ]
    assert [c.super_skew for c in cases] == [True] + [False] * 5
    for c in cases:
        rep = verify_skew(HomLieSuper(lie.space, c, lie.alpha))
        assert c.super_skew == (rep.verdict == "pass")
        assert c.super_skew == (next(c.skew_breaks(), None) is None)
        assert "super_skew" not in repr(c)
    assert fresh == SuperBracket2(b.space, fresh.integer, True)


def test_only_raw_brackets_walk_for_super_skew(monkeypatch):
    """from_integer, so from_canonical and every induced bracket, is
    super-skew by construction and never walks; from_vectors and the raw
    constructor walk once, when the bracket is built."""
    unskewed = neg_skew().bracket.integer
    calls = []
    walk = SuperBracket.skew_breaks

    def counted(self):
        calls.append(self.arity)
        return walk(self)

    monkeypatch.setattr(SuperBracket, "skew_breaks", counted)
    lie, rep = gl11()
    t = induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)
    d, view = t.bracket.integer
    p = lie.space.parities
    canonical = {k: v for k, v in view.items() if is_canonical(k, p)}
    built = [SuperBracket3.from_integer(lie.space, d, canonical),
             SuperBracket3.from_canonical(lie.space,
                                          t.bracket.canonical_coeffs()),
             SuperBracket2.from_canonical(lie.space,
                                          lie.bracket.canonical_coeffs())]
    assert calls == [] and t.bracket.super_skew
    assert all(b.super_skew for b in built) and calls == []
    raw = SuperBracket3.from_vectors(lie.space, t.bracket.vectors())
    assert calls == [3] and raw.super_skew and raw == t.bracket
    assert not SuperBracket2(lie.space, unskewed).super_skew
    assert calls == [3, 2]


def test_reading_a_record_adds_no_attribute():
    """Nothing is filled in on a bracket, a SkewBasis or a Cochain after
    it is built: their derived fields are set in __init__.  The one
    exception is a bracket's sizes, two ints that a width reads."""
    lie, rep = gl11()
    t = induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)
    raw = t.bracket.with_entry(2, 0, 3, (0, 0, 0, 0))
    sb = skew_basis(2, lie.space)
    c = make_cochain("ternary-adjoint", 2, lie.space,
                     {((0, 1), 2): (0, 0, 1, 0)})
    records = [t.bracket, raw, lie.bracket, sb, c]

    def fields(r):
        return {k: v for k, v in vars(r).items() if k != "sizes"}

    before = [fields(r) for r in records]
    full = Subspace.full(lie.dim)
    for b in (t.bracket, raw):
        b.span(full, full, full)
        tb = TernaryHomLieSuper(lie.space, b, t.alpha1, t.alpha2)
        verify_ternary_skew(tb)
        verify_hom_nambu(tb)
    lie.bracket.span(full, full)
    wedge_expand([[(0, 1)], [(2, 1)]], wedge_table(2, lie.space, sb.index))
    assert c.values[((0, 1), 2)] == (0, 0, 1, 0)
    assert [fields(r) for r in records] == before
    for b in (t.bracket, raw, lie.bracket):
        assert len(b.sizes) in (0, 2)
        assert all(type(x) is int for x in b.sizes)


@pytest.mark.parametrize("arity", ("binary", "ternary"))
def test_both_records_refuse_a_foreign_space_and_an_odd_twist(arity):
    """Either record, through graded.HomAlgebra, refuses a bracket on
    another space, a twist on another space and an odd twist, with the
    same three messages; the last twist is the one replaced, so the
    ternary record checks alpha2 as well as alpha1."""
    a = gl11()[0] if arity == "binary" else induced_gl11()
    sp = a.space
    other = graded_space(("a", "b", "c", "d"), sp.parities)
    odd = GradedMap(sp, sp, Matrix.build(
        [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]), 1)
    keep = a.twists[:-1]
    cases = (
        (type(a.bracket)(other, a.bracket.integer, True), a.twists,
         "bracket space mismatch"),
        (a.bracket, keep + (identity_map(other),),
         "twist must be an endomorphism of the algebra"),
        (a.bracket, keep + (odd,), "twist must be even"),
    )
    for bracket, twists, message in cases:
        with pytest.raises(InputError) as err:
            type(a)(sp, bracket, *twists)
        assert str(err.value) == message
    assert type(a)(sp, a.bracket, *a.twists) == a
