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

* span(S1, ..., Sn), the subspace spanned by [S1, ..., Sn], and
  annihilator(), the z with [e_i1, ..., z] = 0, for any arity; the
  series, centers and ideal checks are calls of these two.  span
  contracts only the slots whose subspace is smaller than the space: a
  whole-space slot keeps its key index, so [g, g, g] is the span of the
  distinct stored vectors, and a super-skew bracket reads adjacent
  whole-space slots in canonical order only;
* skew_breaks, where symmetry or the parity law fails, walked over the
  stored keys and their adjacent-slot mirrors in integers: the skew
  checks format it, and it decides super_skew once, when a bracket is
  built, unless from_integer fixes it True; super_skew passes the skew
  checks at once and gates span's canonical read and the orbit join;
* compat_residuals, f[e_I] = [f e_i1, ..., f e_in], whose left side is at
  scale D_f D_s and right side at D_f^n D_t: the multiplicativity,
  morphism and induced-homomorphism checks;
* composite, the integer table [F_1 e_a, ..., e_c, ...] with e_c in one
  free slot: the Hom-Jacobi table of binary (scale D_alpha D_W^2) and the
  three tables of the Hom-Nambu join of ternary (D_W^2 D_1 D_2);
* the coboundary rows of cohomology, ints times 1/(D_W D_alpha^k);
* reps.verify_representation, whose bracket side rho([e_i, e_j]) beta is
  read at D_W, and the induced bracket, tau.induce of this view.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product

from .linalg import (ZERO, InputError, Matrix, Subspace, Vec, _gcd,
                     field, integer_terms, is_zero_vec, kernel, nonzero_terms,
                     record, vec)


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
    fills in every ordering through canonicalize; from_vectors (and
    with_entry through it) takes any entries, so the verifiers have
    something to catch.  Each leaves D least, so two brackets with the
    same values compare equal; the plain constructor, cls(space,
    integer), takes a view already in this form as it is.  value,
    eval_vectors, canonical_coeffs and table read Fractions off the view.
    super_skew, neither compared nor shown, is fixed at construction:
    from_integer passes True, which its filling guarantees; otherwise
    __post_init__ walks skew_breaks once.  The subclasses SuperBracket2
    and SuperBracket3 pin the arity.
    """

    arity = None  # pinned by the subclasses
    space: GradedSpace
    integer: tuple
    super_skew: bool = field(default=None, repr=False, compare=False)

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
        common denominator, and every ordering is filled in through
        canonicalize, the orderings of one sign sharing one tuple.

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
        g = d  # d / g is the least D with D x / d integral for every x
        for x in (x for terms in coeffs.values() for _, x in terms):
            if g == 1:
                break
            g = _gcd(g, x)
        view = {}
        for key, terms in coeffs.items():
            if not terms:
                continue
            pos = tuple((m, x // g) for m, x in terms)
            neg = tuple((m, -x) for m, x in pos)
            for order in dict.fromkeys(permutations(key)):
                view[order] = pos if canonicalize(order, p)[1] == 1 else neg
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

    def composite(self, rows, free: int) -> dict:
        """{(a_1, ..., a_(n-1)): {c: terms}}: the integer bracket with e_c
        in slot `free` and F_1 e_a_1, ..., F_(n-1) e_a_(n-1) in the other
        slots, in order, built from the nonzero entries of the view alone.
        rows[s] holds the rows of D_s F_s, an integer matrix, as (column,
        integer) pairs, so the table is at scale D_W D_1 ... D_(n-1); terms
        are the nonzero (m, integer) pairs.  For arity 3 and free = 2 this
        is [F_1 e_a, F_2 e_b, e_c].  The products of the map entries are
        expanded once per distinct index tuple of the other slots."""
        acc = {}
        expanded = {}
        for key, terms in self.integer[1].items():
            c = key[free]
            rest = key[:free] + key[free + 1:]
            parts = expanded.get(rest)
            if parts is None:
                parts = [((), 1)]
                for r, i in zip(rows, rest):
                    parts = [(ab + (a,), y * x)
                             for ab, y in parts for a, x in r[i]]
                expanded[rest] = parts
            for ab, y in parts:
                col = acc.setdefault(ab, {}).setdefault(c, {})
                for m, w in terms:
                    col[m] = col.get(m, 0) + y * w
        table = {}
        for ab, cols in acc.items():
            for c, col in cols.items():
                terms = tuple((m, x) for m, x in col.items() if x)
                if terms:
                    table.setdefault(ab, {})[c] = terms
        return table

    def span(self, *subspaces) -> Subspace:
        """The span of [S1, ..., Sn] over the vectors of the subspaces Si.

        The structure vectors (the integer view) and each Si's echelon rows
        are cleared of denominators, which scales no span.  Contracting a
        slot with the unit rows of the whole space only re-indexes, so
        only the slots whose subspace is smaller than the space are
        contracted; the indices of the full slots are kept in front of
        each key.  On a super_skew bracket whose full slots are adjacent,
        reordering their indices only changes each image's sign, so only
        the keys with those indices weakly increasing are read: canonical,
        as no stored key repeats an even index.  The cut slots are contracted one at a time, the last
        first, so the partial table of a row c of the last serves every
        choice of the others, and a zero partial ends its branch.  Every
        vector left once all cut slots are contracted is an image, so with
        every slot full the images are the distinct stored vectors.  The
        nonzero integer images go to one rref, deduplicated up to sign.
        """
        dim = self.space.dim
        if (len(subspaces) != self.arity
                or any(s.ambient_dim != dim for s in subspaces)):
            raise InputError(f"span takes {self.arity} subspaces of the "
                             f"{dim}-dimensional space")
        rows = [integer_terms(s.basis.entries)[1] for s in subspaces]
        if not all(rows):
            return Subspace.zero(dim)
        cut = [k for k, s in enumerate(subspaces) if s.dim < dim]
        full = [k for k, s in enumerate(subspaces) if s.dim == dim]

        def contract(table, slot):
            if slot < 0:
                yield from map(sorted, table.values())
                return
            by_last = {}
            for key, terms in table.items():
                by_last.setdefault(key[-1], []).append((key[:-1], terms))
            for row in rows[cut[slot]]:
                acc = {}
                for k, c in row:
                    for prefix, terms in by_last.get(k, ()):
                        col = acc.setdefault(prefix, {})
                        for m, x in terms:
                            col[m] = col.get(m, 0) + c * x
                part = {}
                for prefix, col in acc.items():
                    terms = [t for t in col.items() if t[1]]
                    if terms:
                        part[prefix] = terms
                if part:
                    yield from contract(part, slot - 1)

        keys = self.integer[1].items()
        if full and full[-1] - full[0] == len(full) - 1 and self.super_skew:
            lo, hi = full[0], full[-1] + 1
            keys = [(key, terms) for key, terms in keys
                    if list(key[lo:hi]) == sorted(key[lo:hi])]
        table = {(tuple([key[k] for k in full]), *[key[k] for k in cut]):
                 terms for key, terms in keys}
        images = contract(table, len(cut) - 1)
        return Subspace.spanned_by_rows(_distinct_rows(images, dim))

    def annihilator(self) -> Subspace:
        """The z with [e_i1, ..., e_i(n-1), z] = 0 for all basis arguments:
        the kernel of one integer row per (i1, ..., i(n-1)) and output
        coordinate, deduplicated up to sign."""
        rows = {}
        for key, terms in self.integer[1].items():
            for m, x in terms:
                rows.setdefault((key[:-1], m), []).append((key[-1], x))
        return kernel(_distinct_rows(map(sorted, rows.values()),
                                     self.space.dim))

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


def _distinct_rows(rows, ncols: int) -> Matrix:
    """The nonzero integer rows, each a list of (column, value) pairs with
    columns increasing, kept once up to sign in first-seen order, as an
    integer Matrix for rref."""
    distinct = {}
    for r in rows:
        if r:
            key = tuple(r) if r[0][1] > 0 else tuple((c, -x) for c, x in r)
            distinct[key] = None
    return Matrix(len(distinct), ncols, tuple(distinct))


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
