"""Z2-graded spaces, homogeneous maps, Koszul signs and the supertrace.

Sign conventions used throughout the package:

* swapping two adjacent arguments a, b of a super-skew multilinear form
  multiplies its value by -(-1)^{|a||b|}: the antisymmetry minus times the
  Koszul factor;
* koszul_sign is the Koszul factor alone, the product of (-1)^{|a||b|}
  over the inversions of the permutation;
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
  these.  [g, g, g] is the span of the distinct stored vectors; any
  other span is a composite table whose last slot is contracted with
  the integer basis of Sn, each image one packed int, deduplicated up
  to sign before it is unpacked.  annihilator reads only the canonical
  prefixes of a super-skew bracket;
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
  proved width: join_width for the Hom-Jacobi table of binary (scale
  D_alpha D_W^2) and the three tables of the Hom-Nambu join of ternary
  (D_W^2 D_1 D_2), and span's own bound for its images.  No table
  outlives the call that reads it; a bracket keeps only its sizes, the
  view's largest entry and 1-norm that the widths read;
* the coboundary rows of cohomology, ints times 1/(D_W D_alpha^k);
* reps.verify_representation, whose bracket side rho([e_i, e_j]) beta is
  read at D_W, and the induced bracket, tau.induce of this view.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from operator import itemgetter, le

from .linalg import (ZERO, InputError, Matrix, Subspace, Vec, content,
                     field, integer_terms, is_zero_vec, kernel, nonzero_terms,
                     pack, record, slot_width, unpack, vec)


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


def koszul_sign(perm, parities) -> int:
    """Koszul reordering factor of a permutation of homogeneous objects.

    perm[t] is the original position of the object landing at slot t; the
    sign is the product of (-1)^{|a||b|} over crossing pairs.  Antisymmetry
    minuses are the caller's business.
    """
    perm = list(perm)
    if sorted(perm) != list(range(len(perm))):
        raise InputError("not a permutation of 0..n-1")
    oddcross = 0
    for s in range(len(perm)):
        for t in range(s + 1, len(perm)):
            if perm[s] > perm[t] and parities[perm[s]] and parities[perm[t]]:
                oddcross += 1
    return -1 if oddcross % 2 else 1


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
    of the few spaces a process works on."""
    if degree < 1:
        raise InputError("degree must be positive")
    good = [t for t in combinations_with_replacement(range(space.dim), degree)
            if is_canonical(t, space.parities)]
    return SkewBasis(degree, tuple(good))


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
        tables: join_width for the joins, span's own bound for spans.
        Each table vector accumulates as one int, the nonzero ones kept.
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

    def span(self, *subspaces) -> Subspace:
        """The span of [S1, ..., Sn] over the vectors of the subspaces Si:
        the row space of images."""
        return Subspace.spanned_by_rows(self.images(*subspaces))

    def images(self, *subspaces) -> Matrix:
        """The nonzero images [b_1, ..., b_n], each b_i an echelon vector
        of S_i, as integer rows distinct up to sign: a Matrix whose rows
        are built as rref (or a series step) reads them, and whose row
        count bounds their number.

        The structure vectors (the integer view) and each Si's echelon
        rows are cleared of denominators, which scales no span.  With
        every slot the whole space the images are the distinct stored
        vectors.  Otherwise each slot's map is the transpose of its
        integer basis (the unit rows of a whole-space slot only
        re-index), composite builds the table [b_a1, ..., b_a(n-1), e_c]
        from all maps but the last, and each table entry is contracted
        with the integer basis rows of S_n, one packed int per image.  A
        table slot is at most M _column_bound of its maps, M the largest
        |entry| of the view, and the contraction multiplies that by the
        largest 1-norm of a row of S_n, the largest column sum of its map:
        so the width is that of M _column_bound(every map).  The images
        are deduplicated as packed ints up to sign, since pack(-v) =
        -pack(v), and unpacked only when new and nonzero.
        """
        dim = self.space.dim
        if (len(subspaces) != self.arity
                or any(s.ambient_dim != dim for s in subspaces)):
            raise InputError(f"span takes {self.arity} subspaces of the "
                             f"{dim}-dimensional space")
        bases = [integer_terms(s.basis.entries)[1] for s in subspaces]
        if not all(bases):
            return Matrix(0, dim, ())
        if all(s.dim == dim for s in subspaces):
            rows = _distinct_rows({id(v): v for v in
                                   self.integer[1].values()}.values())
            return Matrix(len(rows), dim, rows)
        maps = []
        for basis in bases:
            r = [[] for _ in range(dim)]
            for a, b in enumerate(basis):
                for i, x in b:
                    r[i].append((a, x))
            maps.append(r)
        width = slot_width(self._sizes()[0] * _column_bound(maps))
        table, = self.composite(maps[:-1], (self.arity - 1,), width)
        return Matrix(len(table) * len(bases[-1]), dim,
                      _packed_images(table, bases[-1], width, dim))

    def annihilator(self) -> Subspace:
        """The z with [e_i1, ..., e_i(n-1), z] = 0 for all basis arguments:
        the kernel of one integer row per (i1, ..., i(n-1)) and output
        coordinate, deduplicated up to sign.  On a super_skew bracket
        reordering the prefix i1, ..., i(n-1) changes only the sign of its
        rows, so only the canonical prefixes are read: weakly increasing,
        as no stored key repeats an even index."""
        rows = {}
        skew = self.super_skew and self.arity > 2
        for key, terms in self.integer[1].items():
            prefix = key[:-1]
            if skew and not all(map(le, prefix, prefix[1:])):
                continue
            for m, x in terms:
                rows.setdefault((prefix, m), []).append((key[-1], x))
        rows = _distinct_rows(map(sorted, rows.values()))
        return kernel(Matrix(len(rows), self.space.dim, rows))

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
    twists of the record's `twists` tuple.  It adds no fields."""

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


def _packed_images(table: dict, last, width: int, dim: int):
    """The nonzero images sum_c b(c) T[a][c] of a composite table T and
    the integer rows b of the last slot, as sparse int rows, each image
    once up to sign: a packed image is compared by its absolute value, and
    only a new nonzero one is unpacked."""
    seen = set()
    for cols in table.values():
        for b in last:
            x = 0
            for c, y in b:
                col = cols.get(c)
                if col:
                    x += y * col
            if x and abs(x) not in seen:
                seen.add(abs(x))
                yield tuple((m, y) for m, y in
                            enumerate(unpack(x, width, dim)) if y)


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
