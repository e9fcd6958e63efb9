"""Derived series, central descending series, centers, and their transfer.

Series terms are spans, not twisted subalgebras; each step spans the
SuperBracket.images of the previous term (and the starting term), and
the twists are only consulted by the ideality checks.  Once a term lies
in the one before it, every later step lies in its last term, so it is
eliminated in that term's coordinates and stops reading images as soon
as they span it: the series has stabilized, and the bracket's prefix
columns past that image are never read.  The centers are
SuperBracket.annihilator, one candidate shrunk prefix by prefix.  Both
work on the sparse integer structure vectors, so no step evaluates the
bracket on a basis tuple; on a super-skew bracket a central step reads
the columns of the canonical prefixes against the last term's rows, a
derived step the sorted fronts of its homogeneous rows, and neither
builds a composite table.
derived_series and central_series take either arity, their slots one
per argument of bracket.arity, as binary.is_ideal does.  Every caller in
the package calls them and annihilator(); the four names the benchmark
times below only forward to them.

An algebra's series from the whole space is computed once: called with no
ideal, derived_series and central_series keep their unbounded run in the
algebra's memo (graded.HomAlgebra), under "derived" and "central", and
answer every later call from it.  Both start from one first term, [g,
..., g], which graded.image keeps in the memo too, and which cohomology
reads as _adapted's hyperplane and as the span of the degree-1 rows.  A
call with a bound rmax gets the stored run cut after term rmax
(_bounded): the terms are those a bounded run computes, since each
depends on the one before alone, and so are stabilized and class_index,
read off the terms kept.  A call with an ideal is computed afresh, and
kept nowhere.
"""

from .binary import HomLieSuper, is_ideal
from .graded import HomAlgebra, image
from .linalg import (InputError, Matrix, Subspace, integer_terms, rank,
                     record, solve, subspace_intersection)
from .report import Report
from .reps import TraceFunctional, trace_kernel
from .ternary import TernaryHomLieSuper


@record(frozen=True)
class SeriesResult:
    kind: str
    terms: tuple          # Subspace per step, terms[0] = whole space
    stabilized: bool
    class_index: int | None  # smallest r with terms[r] = 0, None otherwise

    def dims(self) -> tuple:
        return tuple(t.dim for t in self.terms)


def _check_bound(rmax: int | None) -> None:
    """A bound below 1 computes nothing and is an input error."""
    if rmax is not None and rmax < 1:
        raise InputError(f"series bound must be at least 1, not {rmax}")


def _run_series(start: Subspace, bracket, args, rmax: int | None,
                kind: str, first: Subspace = None) -> SeriesResult:
    """Up to rmax steps from start, each the span of bracket.images of
    args(last term), the first given as first when it is known; rmax None
    means the ambient dimension plus one, enough for any strictly falling
    chain to reach its fixed point.

    Once the last term lies in the one before it, the next lies in the
    last: each step is multilinear and monotone in its argument, so
    [C_k, I, I] is inside [C_(k-1), I, I] = C_k, and the same holds for
    the derived and binary steps.  Such a step is _inside the last term,
    which may stop reading images early."""
    _check_bound(rmax)
    if rmax is None:
        rmax = start.ambient_dim + 1
    terms = [start]
    class_index = 0 if start.is_zero() else None
    stabilized = start.is_zero()
    while len(terms) <= rmax:
        last = terms[-1]
        if len(terms) == 1 and first is not None:
            nxt = first
        elif len(terms) > 1 and terms[-2].contains_subspace(last):
            nxt = _inside(last, bracket.images(*args(last)))
        else:
            nxt = Subspace.spanned_by_rows(bracket.images(*args(last)))
        terms.append(nxt)
        if nxt.is_zero() and class_index is None:
            class_index = len(terms) - 1
        if nxt == last:
            stabilized = True
            break
    return SeriesResult(kind, tuple(terms), stabilized, class_index)


def _inside(last: Subspace, images: Matrix) -> Subspace:
    """The span of images, each of which must lie in last, streamed to
    one rref in last's coordinates: an image's entries at the lead
    columns of last's RREF basis.  That rref stops reading once its rank
    is last.dim, the images then spanning last itself; a smaller span is
    mapped back through last's basis.  Each image read is checked against
    its coordinates in integers: with D last's basis cleared of
    denominators, D v must equal the sum of v's coordinates times the
    cleared rows at every other column.  An image that escapes last
    raises RuntimeError."""
    d, rows = integer_terms(last.basis.entries)
    leads = [row[0][0] for row in rows]
    # each column that leads no row, with its (row, entry) pairs
    others = {c: [] for c in range(last.ambient_dim) if c not in leads}
    for j, row in enumerate(rows):
        for c, x in row[1:]:
            others[c].append((j, x))

    def coordinates():
        for row in images.entries:
            v = dict(row)
            x = [v.get(c, 0) for c in leads]
            for c, col in others.items():
                if d * v.get(c, 0) != sum(x[j] * y for j, y in col):
                    raise RuntimeError("a series step left the term "
                                       "before it")
            yield tuple((j, y) for j, y in enumerate(x) if y)

    found = Subspace.spanned_by_rows(
        Matrix(images.rows, len(leads), coordinates()))
    if found.dim == last.dim:
        return last
    basis = last.basis.entries
    out = []
    for row in found.basis.entries:
        acc = {}
        for j, y in row:
            for c, x in basis[j]:
                acc[c] = acc.get(c, 0) + y * x
        out.append(acc)
    return Subspace.spanned_by_rows(Matrix.from_rows(out, last.ambient_dim))


def _bounded(run: SeriesResult, rmax: int | None) -> SeriesResult:
    """The unbounded run cut as a run bounded by rmax leaves it: its terms
    up to term rmax, stabilized only when the cut keeps them all (the
    unbounded run stops at its first repeated term), and the class index
    only when it is one of the terms kept."""
    if rmax is None or rmax >= len(run.terms) - 1:
        return run
    index = run.class_index
    return SeriesResult(run.kind, run.terms[:rmax + 1], False,
                        index if index is not None and index <= rmax
                        else None)


def _series(a: HomAlgebra, kind: str, ideal: Subspace | None,
            rmax: int | None, args) -> SeriesResult:
    """The kind series of a from ideal, or from the whole space, each step
    the span of the images of args(last term, start): with an ideal a
    fresh bounded run, and otherwise the unbounded run kept in a's memo
    (computed once, from image(a)), cut at rmax."""
    if ideal is not None:
        return _run_series(ideal, a.bracket, lambda s: args(s, ideal),
                           rmax, kind)
    _check_bound(rmax)
    if kind not in a.memo:
        full = Subspace.full(a.dim)
        a.memo[kind] = _run_series(full, a.bracket,
                                   lambda s: args(s, full), None, kind,
                                   image(a))
    return _bounded(a.memo[kind], rmax)


def derived_series(a: HomAlgebra, ideal: Subspace = None,
                   rmax: int | None = None) -> SeriesResult:
    n = a.bracket.arity
    return _series(a, "derived", ideal, rmax, lambda s, start: (s,) * n)


def central_series(a: HomAlgebra, ideal: Subspace = None,
                   rmax: int | None = None) -> SeriesResult:
    # step brackets against the starting ideal, not the whole algebra
    n = a.bracket.arity
    return _series(a, "central", ideal, rmax,
                   lambda s, start: (s, *(start,) * (n - 1)))


def binary_derived_series(g: HomLieSuper, ideal: Subspace = None,
                          rmax: int | None = None) -> SeriesResult:
    """derived_series of a binary algebra, kept only because the benchmark
    times it by name, until its next change (ROADMAP item 8)."""
    return derived_series(g, ideal, rmax)


def binary_central_series(g: HomLieSuper, ideal: Subspace = None,
                          rmax: int | None = None) -> SeriesResult:
    """central_series of a binary algebra, kept only because the
    benchmark times it by name, until its next change (ROADMAP item 8)."""
    return central_series(g, ideal, rmax)


def ternary_center(t: TernaryHomLieSuper) -> Subspace:
    """Solutions z of [e_i, e_j, z] = 0 for all i, j: the bracket's
    annihilator, kept only because the benchmark times it by name, until
    its next change (ROADMAP item 8)."""
    return t.bracket.annihilator()


def binary_center(g: HomLieSuper) -> Subspace:
    """Solutions z of [e_i, z] = 0 for all i: the bracket's annihilator,
    kept only because the benchmark times it by name, until its next
    change (ROADMAP item 8)."""
    return g.bracket.annihilator()


def verify_center_transfer(g: HomLieSuper, tau: TraceFunctional,
                           t: TernaryHomLieSuper) -> Report:
    """Z(g) cap ker tau sits inside the ternary center; when g is nonabelian,
    a vector central on both sides must be killed by tau."""
    rep = Report("verify_center_transfer")
    zb = g.bracket.annihilator()
    zt = t.bracket.annihilator()
    ker_tau = trace_kernel(tau)
    meet = subspace_intersection(zb, ker_tau)
    rep.metrics["binary_center_dim"] = zb.dim
    rep.metrics["ternary_center_dim"] = zt.dim
    rep.metrics["restricted_center_dim"] = meet.dim
    if not zt.contains_subspace(meet):
        rep.fail("forward-inclusion",
                 detail="Z(g) cap ker tau escapes the ternary center")
    abelian = g.bracket.is_zero()
    rep.metrics["binary_abelian"] = abelian
    if not abelian:
        both = subspace_intersection(zb, zt)
        if not ker_tau.contains_subspace(both):
            rep.fail("doubly-central-trace",
                     detail="doubly central vector carries nonzero trace")
    return rep


def find_unit(g: HomLieSuper, t: TernaryHomLieSuper) -> tuple | None:
    """Even u with [u, e_i, e_j] = [e_i, e_j] for all pairs, if one exists:
    the solution solve gives, free coordinates 0, of one integer equation
    sum_k u_k D_g T(k, i, j)_m = D_t W(i, j)_m per (i, j, m) that a stored
    entry reaches, T and W the integer views of t and g and D_t and D_g
    their denominators; every other equation reads 0 = 0."""
    dg, W = g.bracket.integer
    dt, T = t.bracket.integer
    lhs = {}  # (i, j, m) -> {k: D_g T(k, i, j)_m}
    for (k, i, j), terms in T.items():
        for m, x in terms:
            lhs.setdefault((i, j, m), {})[k] = dg * x
    rhs = {(i, j, m): dt * x for (i, j), terms in W.items()
           for m, x in terms}
    equations = sorted(lhs.keys() | rhs.keys())
    sol = solve(Matrix.from_rows([lhs.get(e, {}) for e in equations], t.dim),
                [rhs.get(e, 0) for e in equations])
    if sol is None or any(c and odd for c, odd in zip(sol, t.space.parities)):
        return None
    return sol


def compare_central_series(g: HomLieSuper, t: TernaryHomLieSuper) -> Report:
    """Ternary central series terms sit inside the binary ones termwise.

    When some even u with [u, x, y] = [x, y] exists the two series agree
    from step 1 on, so the comparison upgrades to equality.
    """
    rep = Report("compare_central_series")
    bs = central_series(g)
    ts = central_series(t)
    n = min(len(bs.terms), len(ts.terms))
    unit = find_unit(g, t)
    rep.metrics["binary_dims"] = list(bs.dims())[:n]
    rep.metrics["ternary_dims"] = list(ts.dims())[:n]
    rep.metrics["unit_exists"] = unit is not None
    for r in range(1, n):
        if not bs.terms[r].contains_subspace(ts.terms[r]):
            rep.fail("termwise-inclusion", witness=(r,))
        if unit is not None and bs.terms[r] != ts.terms[r]:
            rep.fail("termwise-equality", witness=(r,))
    return rep


def verify_solvability_theorem(t: TernaryHomLieSuper) -> Report:
    """Induced algebras are 2-step solvable: the second derived term is 0."""
    rep = Report("verify_solvability_theorem")
    ds = derived_series(t, rmax=3)
    rep.metrics["derived_dims"] = list(ds.dims())
    if len(ds.terms) < 3 or not ds.terms[2].is_zero():
        rep.fail("second-derived-nonzero", detail=f"dims {list(ds.dims())}")
    rep.metrics["solvability_class"] = ds.class_index
    return rep


def ideality_of_series(t: TernaryHomLieSuper, result: SeriesResult) -> Report:
    """Each term past the first should be a ternary Hom-ideal.

    Needs a single surjective twist; reported not-applicable otherwise.
    """
    rep = Report("ideality_of_series")
    if not t.same_twists():
        rep.applicable = False
        rep.note("twists-differ", detail="ideality argument needs alpha1 = alpha2")
        return rep
    if rank(t.alpha1.matrix) < t.dim:
        rep.applicable = False
        rep.note("twist-not-surjective")
        return rep
    for r, term in enumerate(result.terms):
        if r == 0:
            continue
        if not is_ideal(t, term):
            rep.fail("term-not-ideal", witness=(r,))
    rep.metrics["terms_checked"] = max(len(result.terms) - 1, 0)
    return rep
