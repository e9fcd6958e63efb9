"""Z2-graded spaces, homogeneous maps, Koszul signs and the supertrace.

Sign conventions used throughout the package:

* swapping two adjacent arguments a, b of a super-skew multilinear form
  multiplies its value by -(-1)^{|a||b|}: the antisymmetry minus times the
  Koszul factor;
* a canonical index tuple is weakly increasing and repeats an index only
  when that index is odd; a tuple repeating an even index spans zero.

SuperBracket holds the structure constants of a super-skew bracket of any
arity in one stored form, SuperBracket.integer = (D, {key: sparse integer
vector}): the nonzero structure vectors, keyed by ordered index tuples,
cleared of denominators by D, their least common one.  from_integer fills
every ordering of canonical integer values (from_canonical clears the
denominators of Fraction values and calls it), and from_vectors takes any
ordered entries; each leaves D least, so brackets with the same values
compare equal.  value, eval_vectors, canonical_coeffs and table read
Fractions off the view on demand; eval_vectors and wedge_expand, which
writes v_1 ^ ... ^ v_r of sparse rows through a wedge_table of the signed
canonical position of every ordered index tuple, share one multilinear
expansion.  Every identity checker reads the view, and
only the residuals a report prints are divided back into Fractions:

* span(S1, ..., Sn), the subspace spanned by [S1, ..., Sn], the row
  space of images, and annihilator(), the z with [e_i1, ..., z] = 0,
  for any arity; the series, centers and ideal checks are calls of
  these.  Both read the prefix columns (columns), {k: [e_P, e_k]} for a
  prefix P of prefixes, the (n-1)-tuples that start a stored key,
  canonical ones only on a super-skew bracket, each stored tuple packed
  once per call.  [g, g, g] is the span of the distinct stored vectors;
  any other image is a front in the first n - 1 slots, expanded onto the
  prefixes, contracted with their columns and then with a row of the
  last slot, one packed int, deduplicated up to sign before it is
  unpacked; a central step and a derived step read only the fronts
  their super-skewness leaves.  annihilator shrinks one candidate, the
  indices that end a stored key at first, at each prefix whose packed
  test it fails (linalg.null_combinations);
* skew_breaks, where symmetry or the parity law fails, walked over the
  stored keys and their adjacent-slot mirrors in integers: the skew
  checks format it, and it decides super_skew once, when a bracket is
  built, unless from_integer fixes it True; super_skew passes the skew
  checks at once and gates span's canonical read and the orbit join;
* compat_residuals, f[e_I] = [f e_i1, ..., f e_in], whose left side is at
  scale D_f D_s and right side at D_f^n D_t: the multiplicativity,
  morphism and induced-homomorphism checks;
* composite, the integer table [F_1 e_a, ..., e_c, ...] with e_c in one
  free slot, each vector packed in one int (linalg.pack) in slots of a
  proved width, join_width: the Hom-Jacobi table of binary (scale
  D_alpha D_W^2) and the three tables of the Hom-Nambu join of ternary
  (D_W^2 D_1 D_2), and no span.  No table or column outlives the call
  that reads it; a bracket keeps only its sizes, the view's largest
  entry and 1-norm that the widths read;
* the coboundary rows of cohomology, ints times 1/(D_W D_alpha^k);
* reps.verify_representation, whose bracket side rho([e_i, e_j]) beta is
  read at D_W, and the induced bracket, tau.induce of this view.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from operator import itemgetter, le

from .linalg import (ZERO, InputError, Matrix, Subspace, Vec, content,
                     field, integer_terms, is_zero_vec, nonzero_terms,
                     null_combinations, pack, record, slot_width,
                     unpack_terms, vec)


@record(frozen=True)
class GradedSpace:
    names: tuple
    parities: tuple

    def __post_init__(self):
        if len(self.names) != len(self.parities):
            raise InputError("names and parities must have equal length")
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate basis names")
        if any(p not in (0, 1) for p in self.parities):
            raise InputError("parities must be bits")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown basis element {name!r}") from None


def graded_space(names, parities) -> GradedSpace:
    return GradedSpace(tuple(names), tuple(int(p) for p in parities))


@record(frozen=True)
class GradedMap:
    """A homogeneous linear map between graded spaces.

    The matrix acts on coordinate columns.  A map of parity s may only
    have entries (r, c) with parity(r) = parity(c) + s mod 2; anything
    else is rejected at construction rather than silently projected.
    """

    domain: GradedSpace
    codomain: GradedSpace
    matrix: Matrix
    parity: int = 0

    def __post_init__(self):
        if self.matrix.rows != self.codomain.dim or self.matrix.cols != self.domain.dim:
            raise InputError("graded map matrix shape mismatch")
        if self.parity not in (0, 1):
            raise InputError("map parity must be a bit")
        for r, row in enumerate(self.matrix.entries):
            pr = self.codomain.parities[r]
            for c, _ in row:
                if pr != (self.domain.parities[c] + self.parity) % 2:
                    raise InputError(
                        f"entry ({self.codomain.names[r]},{self.domain.names[c]}) "
                        f"violates declared parity {self.parity}")

    def apply(self, v: Vec) -> Vec:
        return self.matrix.apply(v)

    def column(self, j: int) -> Vec:
        return self.matrix.col(j)

    def columns(self) -> list:
        """Every column as a dense tuple, in one pass over the entries."""
        t = self.matrix.transpose()
        return [t.row(j) for j in range(t.rows)]

    def keeps(self, s: Subspace) -> bool:
        """Whether the map sends the subspace s into itself."""
        return all(s.contains(self.apply(u)) for u in s.vectors())

    def is_identity(self) -> bool:
        return (self.domain == self.codomain
                and self.matrix == Matrix.identity(self.domain.dim))


def identity_map(space: GradedSpace) -> GradedMap:
    return GradedMap(space, space, Matrix.identity(space.dim))


def zero_map(domain: GradedSpace, codomain: GradedSpace, parity: int = 0) -> GradedMap:
    return GradedMap(domain, codomain, Matrix.zero(codomain.dim, domain.dim), parity)


def supertrace(m: GradedMap) -> Fraction:
    """Even-block trace minus odd-block trace; zero on odd maps."""
    if m.domain != m.codomain:
        raise InputError("supertrace needs an endomorphism")
    total = Fraction(0)
    for i, row in enumerate(m.matrix.entries):
        for c, d in row:
            if c == i:
                total += -d if m.domain.parities[i] else d
    return total


def canonicalize(indices, parities):
    """Sort an index tuple into canonical order for a super-skew form.

    Returns (tuple, sign, is_zero).  Each executed adjacent swap of
    entries a > b contributes -(-1)^{p_a p_b}.  is_zero is True exactly
    when an even index repeats.
    """
    idx = list(indices)
    sign = 1
    n = len(idx)
    for i in range(n):
        for j in range(n - 1 - i):
            a, b = idx[j], idx[j + 1]
            if a > b:
                idx[j], idx[j + 1] = b, a
                sign *= 1 if (parities[a] and parities[b]) else -1
    zero = any(idx[k] == idx[k + 1] and parities[idx[k]] == 0
               for k in range(n - 1))
    return tuple(idx), sign, zero


def _ordering_signs(pattern: tuple) -> list:
    """(order, positive) for each permutation of the slots of a canonical
    key whose entries have these parities, in the order of
    itertools.permutations: order(key) is the reordered key, and positive
    whether canonicalize gives it sign 1.  Sorting it back swaps each
    inverted pair of slots once, at -(-1)^{p_a p_b}.  canonicalize never
    swaps a tie, an odd index repeated, and an inverted tie counts
    -(-1)^{1*1} = 1 here, so the permutations that give one ordering all
    give it its sign."""
    n = len(pattern)
    out = []
    for perm in permutations(range(n)):
        flips = sum(1 for s in range(n) for t in range(s + 1, n)
                    if perm[s] > perm[t]
                    and not (pattern[perm[s]] and pattern[perm[t]]))
        out.append((itemgetter(*perm), flips % 2 == 0))
    return out


@record(frozen=True)
class SkewBasis:
    """Canonical index tuples of a fixed degree, in lexicographic order;
    index maps each tuple to its position."""

    degree: int
    tuples: tuple
    index: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        self.index.update((t, k) for k, t in enumerate(self.tuples))

    def __len__(self):
        return len(self.tuples)


def is_canonical(t, parities) -> bool:
    """Weakly increasing, repeating only odd indices."""
    return all(a < b or (a == b and parities[a] == 1) for a, b in zip(t, t[1:]))


@lru_cache(maxsize=64)
def skew_basis(degree: int, space: GradedSpace) -> SkewBasis:
    """The canonical index tuples of this degree on space, built once per
    (degree, space) and shared: a SkewBasis is only read, and one
    cohomology query asks for the same few several times over (its
    builders, row keys and weight groups).  64 entries hold every degree
    of the few spaces a process works on.

    The tuples are built directly, slot by slot in lexicographic order:
    each canonical tuple extended by every index past its last one, and by
    its last one again when that index is odd, so even indices strictly
    increase and odd ones weakly, and no tuple is built to be thrown away
    (is_canonical is the oracle)."""
    if degree < 1:
        raise InputError("degree must be positive")
    return SkewBasis(degree, _canonical_tuples(degree, space.parities))


def _canonical_tuples(degree: int, parities) -> tuple:
    """The canonical tuples of this degree over indices of these parities,
    in lexicographic order, as skew_basis builds them."""
    p, dim = parities, len(parities)
    level = [(i,) for i in range(dim)]
    for _ in range(degree - 1):
        level = [t + (i,) for t in level
                 for i in range(t[-1] + 1 - p[t[-1]], dim)]
    return tuple(level)


def tuple_parity(t, parities) -> int:
    return sum(parities[i] for i in t) % 2


def _expand_terms(rows) -> list:
    """(index tuple, coefficient) of every product of one (index, value)
    pair from each sparse row in turn: the multilinear expansion of the
    vectors the rows hold."""
    first, *rest = rows
    terms = [((i,), c) for i, c in first]
    for row in rest:
        terms = [(idx + (i,), a * c) for idx, a in terms for i, c in row]
    return terms


@record(frozen=True)
class SuperBracket:
    """Structure constants of a super-skew bracket with `arity` arguments.

    integer, the one stored form, is (D, {key: ((m, D * x), ...)}): the
    structure vector of [e_i1, ..., e_in] for each ordered index tuple
    where it is nonzero, cleared of denominators by their least common
    one, D, as the (coordinate, integer) pairs of its nonzero values,
    coordinates increasing.  from_integer (and from_canonical through it)
    fills in every ordering with its canonicalize sign; from_vectors (and
    with_entry through it) takes any entries, so the verifiers have
    something to catch.  Each leaves D least, so two brackets with the
    same values compare equal; the plain constructor, cls(space,
    integer), takes a view already in this form as it is.  value,
    eval_vectors, canonical_coeffs and table read Fractions off the view.
    super_skew, neither compared nor shown, is fixed at construction:
    from_integer passes True, which its filling guarantees; otherwise
    __post_init__ walks skew_breaks once.  sizes, neither compared nor
    shown, holds the view's largest entry and largest 1-norm once a width
    has asked for them (_sizes): two ints, the only thing a bracket keeps
    from its joins and spans.  The subclasses SuperBracket2 and
    SuperBracket3 pin the arity.
    """

    arity = None  # pinned by the subclasses
    space: GradedSpace
    integer: tuple
    super_skew: bool = field(default=None, repr=False, compare=False)
    sizes: list = field(default_factory=list, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if self.super_skew is None:
            object.__setattr__(self, "super_skew",
                               next(self.skew_breaks(), None) is None)

    @classmethod
    def from_vectors(cls, space: GradedSpace, vectors: dict) -> "SuperBracket":
        """Build from any entries: vectors maps an ordered index tuple to
        the structure vector of [e_i1, ..., e_in], nonzero and exact.
        Nothing is filled in, so mirrors may be stale on purpose."""
        values = {}
        for key, value in vectors.items():
            key, v = tuple(key), vec(value)
            if len(key) != cls.arity or len(v) != space.dim or is_zero_vec(v):
                raise InputError(f"bad bracket entry at {key}: keys need "
                                 f"{cls.arity} indices, values nonzero length "
                                 f"{space.dim}")
            values[key] = v
        d, terms = integer_terms(map(enumerate, values.values()))
        return cls(space, (d, dict(zip(values, terms))))

    @classmethod
    def from_canonical(cls, space: GradedSpace, coeffs: dict) -> "SuperBracket":
        """Build from canonical-key coefficients; every ordering is derived.

        Keys must be canonical index tuples and values must obey the parity
        law; zero values are dropped.  The values are cleared of
        denominators once and handed to from_integer.
        """
        kind = "bracket" if cls.arity == 2 else "ternary"
        values = {}
        for key, value in coeffs.items():
            key, v = tuple(key), vec(value)
            if len(v) != space.dim:
                raise InputError(f"{kind} value for {key} has wrong length")
            values[key] = v
        d, terms = integer_terms(map(enumerate, values.values()))
        return cls.from_integer(space, d, dict(zip(values, terms)))

    @classmethod
    def from_integer(cls, space: GradedSpace, d: int,
                     coeffs: dict) -> "SuperBracket":
        """Build from canonical keys and integer structure vectors: coeffs
        maps each canonical key to the nonzero (m, integer) pairs, m
        increasing, of d times its vector.  d is reduced to the least
        common denominator, and every ordering is filled in with the
        canonicalize sign, read off one table per parity pattern of the
        key (_ordering_signs), the orderings of one sign sharing one tuple.

        Keys must be canonical index tuples and supports must obey the
        parity law; empty values are dropped.
        """
        kind = "bracket" if cls.arity == 2 else "ternary"
        p = space.parities
        for key, terms in coeffs.items():
            if len(key) != cls.arity or not is_canonical(key, p):
                raise InputError(f"{kind} key {key} is not canonical")
            want = tuple_parity(key, p)
            bad = [space.names[m] for m, _ in terms if p[m] != want]
            if bad:
                raise InputError(f"{kind} value for {key} breaks the parity "
                                 f"law at {bad}")
        # d / g is the least D with D x / d integral for every x
        g = content(d, (x for terms in coeffs.values() for _, x in terms))
        view = {}
        tables = {}
        for key, terms in coeffs.items():
            if not terms:
                continue
            pos = tuple((m, x // g) for m, x in terms)
            neg = tuple((m, -x) for m, x in pos)
            pattern = tuple(p[i] for i in key)
            table = tables.get(pattern)
            if table is None:
                table = tables[pattern] = _ordering_signs(pattern)
            for order, positive in table:
                view[order(key)] = pos if positive else neg
        return cls(space, (d // g, view), True)

    def value(self, *idx) -> Vec:
        """Structure vector of [e_i1, ..., e_in], signs included for any order."""
        d, view = self.integer
        out = [ZERO] * self.space.dim
        for m, x in view.get(idx, ()):
            out[m] = Fraction(x, d)
        return tuple(out)

    def eval_vectors(self, *args) -> Vec:
        """The bracket of coordinate vectors, by multilinearity.

        Loops over the nonzero coordinates of the arguments and looks each
        index tuple up, so the cost follows the arguments, not the table.
        """
        d, view = self.integer
        out = [ZERO] * self.space.dim
        for idx, a in _expand_terms(map(nonzero_terms, args)):
            for m, x in view.get(idx, ()):
                out[m] += a * x
        return tuple(x / d for x in out)

    def with_entry(self, *args) -> "SuperBracket":
        """with_entry(i1, ..., in, value): patch one ordering only.

        The permuted copies go stale on purpose.
        """
        *idx, value = args
        vectors = self.vectors()
        vectors.pop(tuple(idx), None)
        if not is_zero_vec(vec(value)):
            vectors[tuple(idx)] = value
        return type(self).from_vectors(self.space, vectors)

    def with_canonical(self, key, value) -> "SuperBracket":
        """Replace one canonical coefficient consistently across all orders."""
        coeffs = self.canonical_coeffs()
        coeffs[tuple(key)] = value
        return type(self).from_canonical(self.space, coeffs)

    def vectors(self) -> dict:
        """The stored structure vectors, {ordered key: vector}, as
        from_vectors takes them."""
        return {key: self.value(*key) for key in self.integer[1]}

    def canonical_coeffs(self) -> dict:
        """Nonzero structure vectors on canonical keys, in skew-basis order."""
        p = self.space.parities
        return {k: self.value(*k) for k in sorted(self.integer[1])
                if is_canonical(k, p)}

    def skew_breaks(self):
        """(key, s, residual) for each slot s < arity - 1 where [e_key] is
        not sign [e_mirror], mirror the key with slots s and s + 1 swapped
        and sign that of the swap, residual value(*key) - sign
        value(*mirror); then (key, None, names) when the stored support
        hits basis elements of a parity other than the key's.  Only the
        stored keys and their mirrors can break, so only they are visited,
        in sorted order, each mirror one comparison of the integer view.
        Nothing is yielded exactly when the bracket is super-skew."""
        p, names = self.space.parities, self.space.names
        ints = self.integer[1]
        slots = range(self.arity - 1)

        def swap(key, s):
            return key[:s] + (key[s + 1], key[s]) + key[s + 2:]

        keys = set(ints)
        keys.update(swap(key, s) for key in ints for s in slots)
        for key in sorted(keys):
            a = ints.get(key, ())
            for s in slots:
                sign = 1 if p[key[s]] and p[key[s + 1]] else -1
                b = ints.get(swap(key, s), ())
                if a != (b if sign > 0 else tuple((m, -x) for m, x in b)):
                    yield key, s, tuple(x - sign * y for x, y in zip(
                        self.value(*key), self.value(*swap(key, s))))
            want = tuple_parity(key, p)
            bad = [names[m] for m, _ in a if p[m] != want]
            if bad:
                yield key, None, bad

    def _sizes(self) -> list:
        """[M, N]: the largest |entry| of the view, and the largest 1-norm
        sum_c |W(k)_c| of its vectors, read once per distinct stored tuple
        on first use and kept in sizes."""
        if not self.sizes:
            top = norm = 0
            for v in {id(v): v for v in self.integer[1].values()}.values():
                sizes = [abs(x) for _, x in v]
                top = max(top, *sizes)
                norm = max(norm, sum(sizes))
            self.sizes[:] = top, norm
        return self.sizes

    def join_width(self, rows, terms: int) -> int:
        """The slot width (linalg.slot_width) of every sum of `terms`
        sums +-sum_c W(k)_c T[a][c], W the integer view, k any stored key
        and T a composite table of these rows: the residuals of the
        Hom-Jacobi (3 such sums) and Hom-Nambu (4) joins.

        The bound is proved, not sampled.  Let M be the largest |entry|
        of the view and N the largest 1-norm of its vectors (_sizes).  A
        table slot is at most M times _column_bound(rows) in size (see
        there), so |sum_c W(k)_c T[a][c]_m| <= N M _column_bound(rows),
        and a residual slot is at most `terms` times that, which the
        width holds with its sign.  So a residual is 0 exactly when its
        packed int is."""
        top, norm = self._sizes()
        return slot_width(terms * norm * top * _column_bound(rows))

    def composite(self, rows, frees, width: int) -> list:
        """Per slot `free` in frees, the table {(a_1, ..., a_(n-1)): {c:
        packed}} of the integer bracket with e_c in slot `free` and F_1
        e_a_1, ..., F_(n-1) e_a_(n-1) in the other slots, in order, built
        from the nonzero entries of the view alone.  rows[s] holds the
        rows of D_s F_s, an integer matrix, as (column, integer) pairs, so
        the tables are at scale D_W D_1 ... D_(n-1).  Each distinct stored
        tuple is packed once (linalg.pack; from_integer shares one tuple
        per sign across a key's orderings), in slots of `width` bits,
        which the caller proves wide enough for whatever it sums from the
        tables, join_width.  Each table vector accumulates as one int,
        the nonzero ones kept.  Only the Hom-Jacobi and Hom-Nambu joins
        build one: spans and centers read columns.
        For arity 3 and free = 2 the table is [F_1 e_a, F_2 e_b, e_c].
        The products of the map entries are expanded once per distinct
        index tuple of the other slots, for every table.  Nothing built
        here outlives the call but the tables returned."""
        packs = {}
        packed = []
        for key, v in self.integer[1].items():
            x = packs.get(id(v))
            if x is None:
                x = packs[id(v)] = pack(v, width)
            packed.append((key, x))
        expanded = {}
        tables = []
        for free in frees:
            acc = {}
            for key, vector in packed:
                c = key[free]
                rest = key[:free] + key[free + 1:]
                parts = expanded.get(rest)
                if parts is None:
                    parts = expanded[rest] = _expand_terms(
                        [r[i] for r, i in zip(rows, rest)])
                for ab, y in parts:
                    cols = acc.setdefault(ab, {})
                    cols[c] = cols.get(c, 0) + y * vector
            table = {}
            for ab, cols in acc.items():
                cols = {c: x for c, x in cols.items() if x}
                if cols:
                    table[ab] = cols
            tables.append(table)
        return tables

    def prefixes(self) -> tuple:
        """The prefixes P whose columns (columns) hold the bracket, in
        lexicographic order: the (n-1)-tuples that start a stored key,
        found in one pass over the view, so a sparse bracket costs its
        keys; on a super_skew bracket only the canonical ones, as
        reordering a prefix only signs its columns, by the canonicalize
        sign of the reordering: the weakly increasing ones, since no
        stored key repeats an even index."""
        found = {key[:-1] for key in self.integer[1]}
        if self.super_skew:
            found = [q for q in found if all(map(le, q, q[1:]))]
        return tuple(sorted(found))

    def columns(self, width: int):
        """column(P, ks), the prefix column {k: packed W(P + (k,))} over the
        k of ks (every index by default) with P + (k,) a stored key, W the
        integer view, read with view.get when it is asked for.  Each
        distinct stored tuple is packed once per column function
        (linalg.pack, keyed by id; from_integer shares one tuple per sign
        across a key's orderings), in slots of `width` bits, which the
        caller proves wide enough for whatever it sums from the columns."""
        get = self.integer[1].get
        every = range(self.space.dim)
        packs = {}

        def column(prefix, ks=every):
            col = {}
            for k in ks:
                v = get(prefix + (k,))
                if v:
                    x = packs.get(id(v))
                    if x is None:
                        x = packs[id(v)] = pack(v, width)
                    col[k] = x
            return col

        return column

    def span(self, *subspaces) -> Subspace:
        """The span of [S1, ..., Sn] over the vectors of the subspaces Si:
        the row space of images."""
        return Subspace.spanned_by_rows(self.images(*subspaces))

    def images(self, *subspaces) -> Matrix:
        """The nonzero images [b_1, ..., b_n], each b_i an echelon vector
        of S_i, or enough of them to span what all of them span, as integer
        rows distinct up to sign: a Matrix whose rows are built as rref (or
        a series step) reads them, so a reader that stops early stops the
        reading too, and whose row count bounds their number.

        The structure vectors (the integer view) and each Si's echelon
        rows are cleared of denominators, which scales no span.  With
        every slot the whole space the images are the distinct stored
        vectors.  Otherwise every image is a front, a sum of prefixes
        sum_P c_P e_P in the first n - 1 slots, contracted with the prefix
        columns (columns) into {k: [front, e_k]}, and that with a row b of
        the last slot: sum_k b_k [front, e_k], one packed int.  The fronts:
        - on a super_skew bracket, S in slot 0 and the other slots whole
          (a central step, is_ideal): each canonical prefix alone, and the
          rows of S moved to the last slot: [s, e_P] = (-1)^(n-1) sum_k
          (-1)^(|k||P|) s_k [e_P, e_k], so a prefix of odd parity reads
          the rows with their odd coordinates negated.  No grading of S is
          assumed;
        - on a super_skew bracket, one subspace D in every slot with
          homogeneous RREF rows (a derived step, is_subalgebra): the
          weakly increasing fronts d_a1, ..., d_a(n-1) that repeat no even
          row, each contracted with the rows d_c, c >= a_(n-1), an even
          row not repeated; reordering homogeneous arguments only signs an
          image, and an even one repeated spans zero;
        - otherwise every tuple of echelon rows of the first n - 1 slots.
        A front is expanded over its index tuples, sent to its prefix by
        canonicalize on a super_skew bracket (its sign, a tuple repeating
        an even index dropped) and kept as it is otherwise.  An image slot
        is at most M prod_s N_s, M the largest |entry| of the view and N_s
        the largest 1-norm of a row of S_s, which sets the width.  The
        images are deduplicated as packed ints up to sign, since pack(-v)
        = -pack(v), and unpacked only when new and nonzero.
        """
        dim, n = self.space.dim, self.arity
        if (len(subspaces) != n
                or any(s.ambient_dim != dim for s in subspaces)):
            raise InputError(f"span takes {n} subspaces of the "
                             f"{dim}-dimensional space")
        whole = [s.dim == dim for s in subspaces]
        if all(whole):
            rows = _distinct_rows({id(v): v for v in
                                   self.integer[1].values()}.values())
            return Matrix(len(rows), dim, rows)
        units = [((i, 1),) for i in range(dim)]
        bases = [units if w else integer_terms(s.basis.entries)[1]
                 for s, w in zip(subspaces, whole)]
        if not all(bases):
            return Matrix(0, dim, ())
        p = self.space.parities
        skew = self.super_skew
        first, last = bases[0], bases[-1]
        if skew and all(whole[1:]):
            flipped = [tuple((k, -x if p[k] else x) for k, x in b)
                       for b in first]
            fronts = [(_units(prefix),
                       flipped if tuple_parity(prefix, p) else first)
                      for prefix in self.prefixes()]
        elif skew and subspaces.count(subspaces[0]) == n and all(
                all(p[c] == p[b[0][0]] for c, _ in b) for b in first):
            odd = [p[b[0][0]] for b in first]
            fronts = [(tuple(first[a] for a in front),
                       last[front[-1] + 1 - odd[front[-1]]:])
                      for front in _canonical_tuples(n - 1, odd)]
        else:
            fronts = [(front, last) for front in product(*bases[:-1])]
        width = slot_width(self._sizes()[0] * _norm_bound(
            b for b, w in zip(bases, whole) if not w))
        return Matrix(sum(len(rows) for _, rows in fronts), dim,
                      self._contracted(fronts, width))

    def _contracted(self, fronts, width: int):
        """The nonzero images of images' fronts, each (the rows of its n - 1
        slots, the rows of the last slot it is contracted with), as sparse
        int rows, each image once up to sign: a packed image is compared by
        its absolute value, and only a new nonzero one is unpacked."""
        column = self.columns(width)
        p = self.space.parities
        skew = self.super_skew
        read = {}  # index tuple -> (its prefix's column, sign)
        seen = set()
        for factors, rows in fronts:
            acc = {}
            for idx, a in _expand_terms(factors):
                hit = read.get(idx)
                if hit is None:
                    t, sign, zero = (canonicalize(idx, p) if skew
                                     else (idx, 1, False))
                    hit = read[idx] = (column(t) if not zero else {}, sign)
                col, sign = hit
                for k, x in col.items():
                    acc[k] = acc.get(k, 0) + sign * a * x
            if not acc:
                continue
            for b in rows:
                x = 0
                for k, y in b:
                    col = acc.get(k)
                    if col:
                        x += y * col
                if x and abs(x) not in seen:
                    seen.add(abs(x))
                    yield unpack_terms(x, width)

    def annihilator(self) -> Subspace:
        """The z with [e_i1, ..., e_i(n-1), z] = 0 for all basis arguments.
        An index k that ends no stored key is never read, so e_k is in the
        answer; over the others one candidate K, integer rows spanning the
        z that the prefixes read so far allow, starts as their unit rows.
        Each prefix P (prefixes: only the canonical ones on a super_skew
        bracket) tests K with one packed sum per row, [e_P, K_s] =
        sum_k K_s[k] W(P, k) over its columns (columns); a slot of it is
        at most M |K_s|_1, M the largest |entry| of the view, which sets
        the width.  When every sum is 0 the prefix is satisfied, and stays
        so, as K only shrinks.  Otherwise the kernel of the [e_P, K_s],
        mapped through K, is the new candidate (linalg.null_combinations,
        the unpacked sums tagged with the rows of K): one update in K's
        coordinates, no row of an earlier prefix eliminated again.
        Only the columns at K's support are read.  The answer is the RREF
        of the span of K and the unread unit rows."""
        dim = self.space.dim
        top = self._sizes()[0]
        reached = sorted({key[-1] for key in self.integer[1]})
        unread = [((k, 1),) for k in sorted(set(range(dim)) - set(reached))]
        cand = [((k, 1),) for k in reached]
        at = {k: [(s, 1)] for s, k in enumerate(reached)}  # k -> (s, K_s[k])
        width = slot_width(top)
        column = self.columns(width)
        for prefix in self.prefixes():
            col = column(prefix, at)
            if not col:
                continue
            sums = [0] * len(cand)
            for k, y in col.items():
                for s, x in at[k]:
                    sums[s] += x * y
            if not any(sums):
                continue
            cand = null_combinations([unpack_terms(x, width) for x in sums],
                                     cand, dim)
            if not cand:
                break
            at = {}
            for s, row in enumerate(cand):
                for k, x in row:
                    at.setdefault(k, []).append((s, x))
            need = slot_width(top * _norm_bound([cand]))
            if need > width:
                width = need
                column = self.columns(width)
        rows = (*unread, *cand)
        return Subspace.spanned_by_rows(Matrix(len(rows), dim, rows))

    def is_zero(self) -> bool:
        return not self.integer[1]

    @property
    def table(self) -> tuple:
        """Dense nested view: table[i1]...[in] is value(i1, ..., in)."""
        def nest(prefix):
            if len(prefix) == self.arity:
                return self.value(*prefix)
            return tuple(nest(prefix + (i,)) for i in range(self.space.dim))
        return nest(())


class HomAlgebra:
    """Base of the n-ary Hom-algebra records, HomLieSuper and
    TernaryHomLieSuper: a space, a bracket of arity n on it and the n - 1
    twists of the record's `twists` tuple.  It adds no fields.

    Each record has a memo, no part of its value, that holds what has been
    computed or proved about the algebra and nothing that outlives a walk:
    its torus grading (cohomology), [g, ..., g] (image), its unbounded
    derived and central series (series), and the verdict of each identity
    verifier that has checked it (keep_verdict, under the report's
    command).  A record is frozen, so nothing kept there can go stale."""

    def __post_init__(self):
        if self.bracket.space != self.space:
            raise InputError("bracket space mismatch")
        for a in self.twists:
            if a.domain != self.space or a.codomain != self.space:
                raise InputError("twist must be an endomorphism of the algebra")
            if a.parity != 0:
                raise InputError("twist must be even")

    @property
    def dim(self) -> int:
        return self.space.dim

    def same_twists(self) -> bool:
        return all(a.matrix == self.twists[0].matrix for a in self.twists)

    def keep_verdict(self, rep):
        """rep, a verifier's Report on this algebra, its verdict kept in
        the memo under rep.command."""
        self.memo[rep.command] = rep.verdict
        return rep


def image(a: HomAlgebra) -> Subspace:
    """[g, ..., g], the span of the bracket's stored vectors: the first
    term of both series from the whole space, the hyperplane of
    cohomology's adapted basis, the span whose rank gives its degree-1
    dims, and the commutator of ideal_criterion.
    Computed once per algebra and kept in its memo under "image"."""
    if "image" not in a.memo:
        full = Subspace.full(a.dim)
        a.memo["image"] = a.bracket.span(*[full] * a.bracket.arity)
    return a.memo["image"]


def _column_bound(maps) -> int:
    """prod_s S_s, S_s the largest column sum sum_i |R_s(i, a)| of the
    integer matrix R_s = maps[s], given by its rows of (column, integer)
    pairs: a bound on every slot of a composite table of these maps.  A
    table slot T[a][c]_m is the sum, over the stored keys k with c in the
    free slot, of W(k)_m prod_s R_s(k_s, a_s), k_s the key's index in the
    s-th other slot: composite reads row k_s of R_s and keeps its column
    a_s.  There is at most one such key per tuple (k_s), so |T[a][c]_m|
    <= M prod_s sum_i |R_s(i, a_s)| <= M prod_s S_s, M the largest
    |entry| of the view: column sums, not row sums."""
    bound = 1
    for r in maps:
        sums = {}
        for row in r:
            for a, x in row:
                sums[a] = sums.get(a, 0) + abs(x)
        bound *= max(sums.values(), default=0)
    return bound


def _units(prefix) -> tuple:
    """The unit rows e_i of the indices of prefix, as a front."""
    return tuple(((i, 1),) for i in prefix)


def _norm_bound(bases) -> int:
    """prod_s N_s, N_s the largest 1-norm sum_i |b_i| of an integer row b
    of bases[s]: a bound on |sum b_1(i_1) ... b_n(i_n) x| over the index
    tuples, for every |x| <= 1 and rows b_s of bases[s]."""
    bound = 1
    for rows in bases:
        bound *= max(sum(abs(x) for _, x in b) for b in rows)
    return bound


def _distinct_rows(rows) -> tuple:
    """The nonzero integer rows, each a sequence of (column, value) pairs
    with columns increasing, kept once up to sign in first-seen order."""
    distinct = {}
    for r in rows:
        if r:
            key = tuple(r) if r[0][1] > 0 else tuple((c, -x) for c, x in r)
            distinct[key] = None
    return tuple(distinct)


def compat_residuals(f: GradedMap, source: SuperBracket,
                     target: SuperBracket, keys):
    """(I, f[e_I] - [f e_i1, ..., f e_in]) for each index tuple I of keys
    where the two sides differ: how far f is from carrying the source
    bracket to the target one.

    It works on integers.  With F = D_f f and the integer views of both
    brackets, the left side F W_s(I) is D_f D_s times the true one, and the
    right side, expanded over F's columns, D_f^n D_t times; the sides are
    compared cross-multiplied, and only a failing key's residual is
    divided back into Fractions.
    """
    n = source.arity
    df, cols = integer_terms(f.matrix.transpose().entries)
    ds, src = source.integer
    dt, tgt = target.integer
    lscale = df ** (n - 1) * dt
    scale = df ** n * ds * dt
    dim = f.codomain.dim
    for key in keys:
        lhs = [0] * dim
        for c, w in src.get(key, ()):
            for r, x in cols[c]:
                lhs[r] += x * w
        rhs = [0] * dim
        for idx, a in _expand_terms([cols[i] for i in key]):
            for m, x in tgt.get(idx, ()):
                rhs[m] += a * x
        resid = [lscale * x - ds * y for x, y in zip(lhs, rhs)]
        if any(resid):
            yield key, tuple(Fraction(x, scale) for x in resid)


def wedge_table(degree: int, space: GradedSpace, position: dict) -> dict:
    """{(i_1, ..., i_r): (position[t], sign)} for every ordered index
    tuple with e_i1 ^ ... ^ e_ir = sign e_t, t canonical and a key of
    position; the tuples that span zero, or whose t position leaves out,
    are absent.  One canonicalize per ordered tuple, so a caller that
    wedges many vectors sorts no index tuple twice."""
    p = space.parities
    out = {}
    for idx in product(range(space.dim), repeat=degree):
        t, sign, zero = canonicalize(idx, p)
        if not zero and t in position:
            out[idx] = (position[t], sign)
    return out


def wedge_expand(rows, table: dict) -> dict:
    """v_1 ^ ... ^ v_r, each v_i as its nonzero (index, value) pairs, as a
    sparse {position: coefficient} map without zeros, read off a
    wedge_table of degree r."""
    out = {}
    for idx, a in _expand_terms(rows):
        hit = table.get(idx)
        if hit is not None:
            pos, sign = hit
            out[pos] = out.get(pos, 0) + (a if sign > 0 else -a)
    return {pos: x for pos, x in out.items() if x}
