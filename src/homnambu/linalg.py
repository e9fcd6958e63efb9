"""Exact linear algebra over the rationals.

Everything runs on exact values, fractions.Fraction and Python ints: no
floats, no tolerances, no normalization surprises.  One immutable matrix
type, Matrix, holds only the nonzero (column, value) pairs of each row,
for the twists and representation matrices and for the coboundaries,
which are almost all zeros; row(i) and col(j) read dense tuples.

Exact elimination runs through rref, a sparse fraction-free
Gauss-Jordan: it reads each row as Python ints, clearing the row's own
denominators, keeps its pivot rows as primitive int rows, never visits a
zero entry, and makes Fractions only for the RREF it returns, in the same
storage; rank, kernel, solve, invert and Subspace read those rows, and so
does cohomology, for its sparse coboundary blocks, the blocks below them
and the torus grading that cuts the blocks, the kernel of the
homogeneity equations; null_combinations runs its step forward only, for
the combinations of tagged rows that vanish.  Subspaces are stored as
reduced row echelon bases with zero rows dropped, so structural equality
is canonical equality.

rref skips the rows its pivots already span once eliminating such rows
has cost about as much as building the pivots' kernel: it then packs
that kernel by column and tests each later row with one packed dot
product, zero exactly for a row orthogonal to the kernel, which over Q
is a row of the row space; a row with an entry above the bound the slots
were sized for, or with a nonzero product, is eliminated, and a new
pivot drops the kernel.

pack, unpack and slot_width hold an int vector in one Python int,
coordinate m in the m-th signed slot of a fixed width (Kronecker
substitution), so a sum of scaled vectors is one big-int multiply-add
per vector; the width comes from an a-priori bound on every slot.
unpack_terms reads back only the nonzero slots, as sparse pairs.
orthogonal_test packs a family of vectors by coordinate so that a row's
products with all of them are one packed sum.

certified_rank is the rank of a dense int matrix, computed modulo the
prime MODULUS and proved over Q.  ModularEchelon holds each row as one
int of 64-bit slots, a residue per slot, so that a row operation is one
big-int multiply-add and one array("Q") packs or unpacks a row; the
slots are reduced mod p only as often as the bound _products proves
they must be.  Its rank is a lower bound over Q (a minor nonzero mod p is
nonzero over Q), and vectors known to lie in the kernel bound the rank
from above; when the two meet the rank is proved, and when they do not,
kernel vectors mod p are lifted to Q (lift_kernel, Dixon's p-adic
lifting with rational reconstruction), checked on every row in ints and
checked mod p to fill the kernel.  A check that fails hands the matrix
to rank, so the answer is exact and deterministic either way: no random
prime, no float.
"""

import sys
from array import array
from fractions import Fraction
from operator import attrgetter, mul


class InputError(ValueError):
    """Malformed input data (schemas, non-canonical keys, parity violations)."""


class PreconditionError(ValueError):
    """An operation's documented precondition failed; carries a witness."""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


_MISSING = object()
_setattr = object.__setattr__


class _Field:
    __slots__ = ("default", "factory", "init", "repr", "compare")

    def __init__(self, default, factory, init=True, repr=True, compare=True):
        self.default, self.factory = default, factory
        self.init, self.repr, self.compare = init, repr, compare


def field(*, default=_MISSING, default_factory=_MISSING, init=True,
          repr=True, compare=True):
    """A record field: its default, or a default_factory that makes a
    fresh value for each instance, and whether it is an __init__
    argument, shown by __repr__ and compared by __eq__ and __hash__."""
    return _Field(default, default_factory, init, repr, compare)


def record(cls=None, *, frozen=False):
    """Class decorator: the package's records, built from the class's own
    field annotations by closures.  It stands in for the standard
    library's @dataclass, whose module alone took longer to import than
    the rest of the package, on every cold start of the CLI.

    It installs what @dataclass(frozen=frozen) would, bytes of repr and
    errors included: __init__ (positional and keyword arguments, defaults
    and default_factory; init=False fields come from their factory; then
    __post_init__), __repr__ as Name(f=value, ...), __eq__ on the tuples
    of compared fields (a tuple takes an object to equal itself without
    calling its __eq__, so a check against the very same space stays
    cheap) and NotImplemented against another class; frozen classes also
    get __hash__ of that tuple and a __setattr__ and __delattr__ that
    raise FrozenInstanceError, and mutable ones are unhashable.  A base
    class adds no fields, and methods the class defines itself are kept.

    __init__ sets each field through object.__setattr__, as @dataclass
    does.  Writing the instance __dict__ directly would be faster once
    but turn it into a real dict, and on Python 3.11 every later
    attribute read of the instance about twice as slow.
    """
    if cls is None:
        return lambda c: _build_record(c, frozen)
    return _build_record(cls, frozen)


def _values_getter(names):
    """obj -> the tuple of obj's attributes names, a tuple even for one."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _build_record(cls, frozen):
    qual = cls.__qualname__
    fields = []
    for name in cls.__annotations__:
        spec = cls.__dict__.get(name, _MISSING)
        if isinstance(spec, _Field):
            delattr(cls, name)
        else:
            spec = _Field(spec, _MISSING)
        fields.append((name, spec))
    names = frozenset(name for name, _ in fields)
    params = [(name, s) for name, s in fields if s.init]
    init_names = tuple(name for name, _ in params)
    count = len(init_names)
    extras = tuple((name, s.factory) for name, s in fields
                   if not s.init and s.factory is not _MISSING)
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        """The __init__ arguments as one value per init field, in order,
        or the TypeError a Python signature would raise."""
        if len(args) > count:
            raise TypeError(f"{qual}.__init__() takes {count + 1} positional "
                            f"arguments but {len(args) + 1} were given")
        given = dict(zip(init_names, args))
        for key, value in kwargs.items():
            if key not in init_names:
                raise TypeError(f"{qual}.__init__() got an unexpected "
                                f"keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{qual}.__init__() got multiple values for "
                                f"argument {key!r}")
            given[key] = value
        out, missing = [], []
        for name, s in params:
            if name in given:
                out.append(given[name])
            elif s.factory is not _MISSING:
                out.append(s.factory())
            elif s.default is not _MISSING:
                out.append(s.default)
            else:
                missing.append(repr(name))
        if missing:
            raise TypeError(f"{qual}.__init__() missing {len(missing)} "
                            f"required argument(s): {', '.join(missing)}")
        return out

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for name, value in zip(init_names, args):
            _setattr(self, name, value)
        for name, make in extras:
            _setattr(self, name, make())
        if post_init:
            self.__post_init__()

    shown = tuple(name for name, s in fields if s.repr)

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join([f"{name}={getattr(self, name)!r}"
                             for name in shown]) + ")")

    key = _values_getter(tuple(name for name, s in fields if s.compare))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
               "__hash__": None}
    if frozen:
        def __hash__(self):
            return hash(key(self))

        def __setattr__(self, name, value):
            if type(self) is cls or name in names:
                raise FrozenInstanceError(f"cannot assign to field {name!r}")
            super(cls, self).__setattr__(name, value)

        def __delattr__(self, name):
            if type(self) is cls or name in names:
                raise FrozenInstanceError(f"cannot delete field {name!r}")
            super(cls, self).__delattr__(name)

        methods.update(__hash__=__hash__, __setattr__=__setattr__,
                       __delattr__=__delattr__)
    for attr, method in methods.items():
        if attr not in cls.__dict__:
            setattr(cls, attr, method)
    return cls


Vec = tuple  # tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InputError(f"not an exact rational: {x!r}")


def vec(items) -> Vec:
    return tuple(frac(x) for x in items)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c, u: Vec) -> Vec:
    c = frac(c)
    return tuple(c * a for a in u)


def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), ZERO)


def integer_terms(rows):
    """(D, terms): D the least positive integer with D * x integral for
    every value x, and per row the (index, D * x) pairs of its nonzero
    values, as Python ints.  A row is any iterable of (index, value)
    pairs: a Matrix row, or enumerate of a dense vector."""
    rows = [[(m, x) for m, x in r if x] for r in rows]
    d = 1
    for r in rows:
        for _, x in r:
            q = x.denominator
            if d % q:
                d *= Fraction(d, q).denominator
    return d, [tuple((m, x.numerator * (d // x.denominator)) for m, x in r)
               for r in rows]


def map_terms(vectors: dict, cols) -> dict:
    """{key: F v} for each sparse int vector v of vectors, (m, x) pairs,
    mapped through cols, the sparse int columns of a matrix F, as the
    nonzero (r, y) pairs of F v, r increasing; the keys whose image is
    zero drop out, and the rest keep their order."""
    out = {}
    for key, terms in vectors.items():
        acc = {}
        for m, x in terms:
            for r, y in cols[m]:
                acc[r] = acc.get(r, 0) + x * y
        image = tuple(sorted((r, y) for r, y in acc.items() if y))
        if image:
            out[key] = image
    return out


def nonzero_terms(v: Vec) -> tuple:
    """The (index, value) pairs of the nonzero entries of a dense vector."""
    return tuple((j, x) for j, x in enumerate(v) if x)


def slot_width(bound: int) -> int:
    """The width of a signed slot that holds every int of absolute value
    at most bound: bound < 2^(width - 1), the top bit the sign's."""
    return bound.bit_length() + 1


def pack(terms, width: int) -> int:
    """The sparse int vector terms, (m, x) pairs, as one int: the sum of
    x 2^(width m), coordinate m in the m-th signed slot of width bits
    (Kronecker substitution).  Packing is linear, so packed vectors add
    and scale as the vectors do, whatever their slots hold on the way.
    unpack reads the vector back, and the int is 0 exactly when the
    vector is, while every slot x has |x| < 2^(width - 1), which a width
    from slot_width of an a-priori bound on |x| makes sure of.  A plain
    loop: sum over a generator took 1.6x as long (Python 3.11.7,
    2-core x86-64)."""
    out = 0
    for m, x in terms:
        out += x << (width * m)
    return out


def unpack(packed: int, width: int, n: int) -> list:
    """Slots 0 to n - 1 of pack's int, as a dense list of ints: each slot
    read as the residue in [-2^(width - 1), 2^(width - 1)) and taken off
    before the next is read."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    out = []
    for _ in range(n):
        x = ((packed + half) & mask) - half
        out.append(x)
        packed = (packed - x) >> width
    return out


def unpack_terms(packed: int, width: int) -> tuple:
    """The nonzero slots of pack's int as (m, x) pairs, m increasing:
    unpack's reading, stopped once what is left is 0, so an int costs its
    top nonzero slot, not the length of its vector."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    out = []
    m = 0
    while packed:
        x = ((packed + half) & mask) - half
        if x:
            out.append((m, x))
        packed = (packed - x) >> width
        m += 1
    return tuple(out)


@record(frozen=True)
class Matrix:
    """Exact matrix held as rows of (column, value) pairs, columns
    increasing and values nonzero, so equal matrices compare equal.

    Values are Fractions: build and from_columns convert exact input, and
    from_rows and the raw constructor keep what they are given, so the
    coboundary rows of cohomology hold ints; rref takes rows of ints (or
    Fractions, or both), eliminates in ints and returns Fractions.  row(i)
    and col(j) read dense tuples.

    entries may be a one-shot iterator of rows only in a matrix handed
    straight to rref or kernel, which read it once, in order, and may stop
    early (cohomology's (q, w) blocks and homogeneity equations); such a
    matrix is spent once read and is no value to compare, keep or read
    again, and its rows may bound the rows it yields from above, which
    rref pads with empty rows.
    """

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples of (column, value) pairs

    @staticmethod
    def build(dense_rows) -> "Matrix":
        """From dense rows of exact rationals, all of one length."""
        rows = [vec(r) for r in dense_rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise InputError("ragged matrix rows")
        return Matrix(len(rows), ncols, tuple(map(nonzero_terms, rows)))

    @staticmethod
    def from_rows(row_dicts, ncols: int) -> "Matrix":
        """From one dict of column -> value per row; zero values drop out."""
        entries = tuple(tuple(sorted((c, x) for c, x in r.items() if x))
                        for r in row_dicts)
        return Matrix(len(entries), ncols, entries)

    @staticmethod
    def from_columns(cols, nrows: int) -> "Matrix":
        """From dense columns of exact rationals, each of length nrows."""
        cols = [vec(c) for c in cols]
        if any(len(c) != nrows for c in cols):
            raise InputError("matrix column length mismatch")
        return Matrix(len(cols), nrows,
                      tuple(map(nonzero_terms, cols))).transpose()

    @staticmethod
    def zero(r: int, c: int) -> "Matrix":
        return Matrix(r, c, ((),) * r)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(((i, ONE),) for i in range(n)))

    def row(self, i: int) -> Vec:
        out = [ZERO] * self.cols
        for c, x in self.entries[i]:
            out[c] = x
        return tuple(out)

    def col(self, j: int) -> Vec:
        return tuple(dict(row).get(j, ZERO) for row in self.entries)

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise InputError("vector length mismatch in apply")
        nz = dict(nonzero_terms(v))
        return tuple(sum((x * nz[c] for c, x in row if c in nz), ZERO)
                     for row in self.entries)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError("matrix shape mismatch in product")
        out = []
        for row in self.entries:
            acc = {}
            for k, a in row:
                for j, b in other.entries[k]:
                    acc[j] = acc.get(j, ZERO) + a * b
            out.append(acc)
        return Matrix.from_rows(out, other.cols)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix shape mismatch in sum")
        out = []
        for a, b in zip(self.entries, other.entries):
            acc = dict(a)
            for j, x in b:
                acc[j] = acc.get(j, ZERO) + x
            out.append(acc)
        return Matrix.from_rows(out, self.cols)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        if not c:
            return Matrix.zero(self.rows, self.cols)
        return Matrix(self.rows, self.cols, tuple(
            tuple((j, c * x) for j, x in row) for row in self.entries))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def transpose(self) -> "Matrix":
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for c, x in row:
                cols[c].append((i, x))
        return Matrix(self.cols, self.rows, tuple(map(tuple, cols)))


# gcds without math: Euclid's loop beats building a Fraction (whose
# normalisation runs the C gcd) while the smaller value has under 32
# bits; the two cost the same at 32 bits, and the Fraction is 3x faster
# at 128 (2-core x86-64, Python 3.11.7).
_EUCLID_BELOW = 1 << 32


def _gcd(a: int, b: int) -> int:
    """The positive gcd of two nonzero ints."""
    a, b = abs(a), abs(b)
    if a > b:
        a, b = b, a
    if a < _EUCLID_BELOW:
        while a:
            a, b = b % a, a
        return b
    return b // Fraction(a, b).denominator


def content(g: int, values) -> int:
    """The positive gcd of the nonzero int g and every int of values, read
    only until it reaches 1: dividing g and the values by it leaves the
    least scale D of integers x / g."""
    for x in values:
        if g == 1:
            break
        if x % g:
            g = _gcd(g, x)
    return abs(g)


def _eliminate(row: dict, c, other: dict) -> None:
    """row := (p/g) row - (b/g) other on sparse int rows, with b = row[c],
    p = other[c] > 0 and g their gcd, so row[c] cancels; entries that
    cancel drop out."""
    b, p = row[c], other[c]
    if b % p:
        g = _gcd(p, b)
        a, b = p // g, b // g
        for k in row:
            row[k] *= a
    else:
        b //= p
    for k, x in other.items():
        y = row.get(k)
        if y is None:
            row[k] = -b * x
        else:
            y -= b * x
            if y:
                row[k] = y
            else:
                del row[k]


def _make_primitive(row: dict, lead) -> None:
    """Divide a nonzero int row by its content, signed so row[lead] > 0."""
    g = content(abs(row[lead]), row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for k, x in row.items():
            row[k] = x // g


def _kernel_columns(table: dict, cols: int, bound: int) -> list:
    """The kernel of the pivot table packed by column, for rows whose
    entries are at most bound in absolute value.  The kernel has one
    primitive int vector K_s per free column f, the s-th: e_f minus each
    pivot row's entry at f over its lead, cleared of denominators.  Entry
    j of the list is the int whose s-th slot holds K_s[j], so for such a
    row r the sum of r_j times entry j packs every r . K_s, and |r . K_s|
    is at most bound times the largest sum of the |K_s[j]|, which the slot
    width holds."""
    kernel = {f: {f: 1} for f in range(cols) if f not in table}
    for p, row in table.items():
        q = row[p]
        for f, x in row.items():
            if f != p:  # a pivot row's other entries are at free columns
                v = kernel[f]
                d = v[f]
                if d % q:  # scale v so that q divides its entry at f
                    k = q // _gcd(d, q)
                    for j in v:
                        v[j] *= k
                    d *= k
                v[p] = -x * (d // q)
    for f, v in kernel.items():
        g = content(v[f], v.values())
        if g != 1:
            for j in v:
                v[j] //= g
    width = slot_width(bound * max(sum(map(abs, v.values()))
                                   for v in kernel.values()))
    columns = [0] * cols
    for s, v in enumerate(kernel.values()):
        for j, x in v.items():
            columns[j] += x << (width * s)
    return columns


def null_combinations(images, tags, cols: int) -> list:
    """Int rows spanning {sum_s c_s tags[s] : sum_s c_s images[s] = 0},
    images[s] (columns below cols) and tags[s] sparse int rows of (column,
    value) pairs: the tag of an empty image as it is, and one
    fraction-free forward elimination (rref's step, _eliminate) of each
    other image with its tag carried beside it, in columns cols and up, a
    row whose image reduces to 0 leaving the primitive combination of
    tags that gives it.  With independent tags the rows are
    independent: the kernel of the images' matrix mapped through the tags,
    without a Fraction, a back-substitution or a second elimination.  The
    annihilator's candidate takes one call per prefix that shrinks it."""
    table = {}
    out = []
    for image, tag in zip(images, tags):
        if not image:
            out.append(tag)
            continue
        r = dict(image)
        r.update((cols + m, y) for m, y in tag)
        lead = min(r)
        while lead < cols and lead in table:
            _eliminate(r, lead, table[lead])
            lead = min(r)
        _make_primitive(r, lead)
        if lead < cols:
            table[lead] = r
        else:
            out.append(tuple((m - cols, y) for m, y in sorted(r.items())))
    return out


def rref(m: Matrix, stop: int = None) -> Matrix:
    """Reduced row echelon form of m, in m's shape: unique, its pivot rows
    at the top and its zero rows, empty, at the bottom, every value a
    Fraction.

    The one echelon routine, fraction-free (cohomology's coboundary
    blocks and torus grading reach it through kernel and image; only
    null_combinations shares its elimination step): it computes
    in Python ints and makes Fractions only for the rows it returns.  Each
    row of m is read as a dict of column -> int; a row holding Fractions is
    first cleared of its own denominators, which leaves its span unchanged.
    Loop invariant: the pivot table maps each lead column to a primitive int
    row (content 1, lead positive) that starts there and vanishes on every
    other pivot column, so dividing each by its lead is the RREF of the rows
    read so far, whatever their order.  A new row is reduced by each pivot
    row it meets as (p/g) row - (b/g) pivot, made primitive once, and then
    cleared from every earlier pivot row that has an entry at its lead,
    which is made primitive again.  No zero entry is ever visited.  gcds run
    by Euclid on word-sized values and through Fraction's normalisation
    above that; see _EUCLID_BELOW.  m.entries is read once, in order, up to
    the row that brings the rank to stop, so it may be an iterator that
    builds each row as it is read (cohomology's (q, w) blocks and
    homogeneity equations).  stop is m.cols unless the caller has proved
    that m's rank is at most stop (cohomology_dims, where d^2 = 0 is on
    record): then the rows read span m's row space, and the answer is m's
    RREF all the same.

    Rows the table already spans skip the elimination once such rows have
    cost enough.  Since the last new pivot, rref counts the pivot-row
    entries read by eliminations that ended in a zero row; once that count
    reaches the table's entry count plus m.cols, about what building the
    kernel reads, it packs the table's kernel by column (_kernel_columns).
    The slots are sized for entries up to 2^(2k) - 1, k the bit length of
    the largest entry of the rows counted so far.  A later row within
    that bound is tested with one packed sum: over Q the row space is
    exactly the vectors orthogonal to the kernel, so a zero sum means the
    table spans the row, and it is skipped.  A nonzero sum, or an entry
    above the bound, sends the row to the elimination, and a new pivot
    drops the kernel and restarts the count: zero rows that alternate with
    new pivots, as in sparse coboundary blocks, seldom pay for a kernel.
    """
    table = {}
    columns = need = None  # the packed kernel and its cost, per table
    bound = top = spent = 0
    stop = m.cols if stop is None else stop
    for pairs in m.entries if stop else ():
        row = dict(pairs)
        if not row:
            continue
        if not all(type(x) is int for x in row.values()):
            _, (pairs,) = integer_terms((pairs,))
            row = dict(pairs)
        if columns is not None and max(map(abs, row.values())) <= bound and (
                not sum(map(mul, map(columns.__getitem__, row), row.values()))):
            continue  # orthogonal to the kernel: the table spans it
        reducers = [c for c in row if c in table]
        for c in reducers:
            # pivot rows vanish on each other's columns, so row[c] is only
            # rescaled by the earlier reductions, never cancelled
            _eliminate(row, c, table[c])
        if not row:
            if columns is None:
                top = max(top, max(abs(x) for _, x in pairs))
                spent += sum(map(len, map(table.__getitem__, reducers)))
                if need is None:
                    need = sum(map(len, table.values())) + m.cols
                if spent >= need:
                    bound = (1 << 2 * top.bit_length()) - 1
                    columns = _kernel_columns(table, m.cols, bound)
            continue
        columns = need = None
        spent = 0
        lead = min(row)
        _make_primitive(row, lead)
        for p, prow in table.items():
            if lead in prow:
                _eliminate(prow, lead, row)
                _make_primitive(prow, p)
        table[lead] = row
        if len(table) == stop:
            break  # the rank is reached: every further row reduces to zero
    pivots = []
    for p in sorted(table):
        row = table[p]
        q = row[p]
        pivots.append(tuple((c, ONE if c == p else Fraction(x, q))
                            for c, x in sorted(row.items())))
    return Matrix(m.rows, m.cols,
                  tuple(pivots) + ((),) * (m.rows - len(pivots)))


def _pivots(r: Matrix) -> list:
    """(lead column, row) of every nonempty row of the RREF r."""
    return [(row[0][0], row) for row in r.entries if row]


def rank(m: Matrix, stop: int = None) -> int:
    """The rank of m, its rows read by rref until the rank reaches stop, a
    bound on it the caller has proved (m.cols by default)."""
    return len(_pivots(rref(m, stop)))


@record(frozen=True)
class Subspace:
    """A subspace of K^n held as an RREF basis; equality is set equality."""

    ambient_dim: int
    basis: Matrix  # RREF with no zero rows

    @staticmethod
    def from_vectors(ambient_dim: int, vectors) -> "Subspace":
        vectors = tuple(vec(v) for v in vectors)
        for v in vectors:
            if len(v) != ambient_dim:
                raise InputError("vector length does not match ambient dimension")
        return Subspace.spanned_by_rows(
            Matrix(len(vectors), ambient_dim,
                   tuple(map(nonzero_terms, vectors))))

    @staticmethod
    def spanned_by_rows(m: Matrix) -> "Subspace":
        """The row space of m."""
        keep = tuple(row for _, row in _pivots(rref(m)))
        return Subspace(m.cols, Matrix(len(keep), m.cols, keep))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix(0, ambient_dim, ()))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def vectors(self):
        """The basis as dense tuples."""
        return [self.basis.row(i) for i in range(self.dim)]

    def contains(self, v: Vec) -> bool:
        """In an RREF basis the only candidate combination for v takes
        v's entry at each lead column as that row's coefficient."""
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise InputError("vector length does not match ambient dimension")
        w = [ZERO] * self.ambient_dim
        for lead, row in _pivots(self.basis):
            c = v[lead]
            if c:
                for j, x in row:
                    w[j] += c * x
        return tuple(w) == v

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.dim == self.ambient_dim == other.ambient_dim:
            return True
        return all(self.contains(r) for r in other.vectors())


def kernel(m: Matrix) -> Subspace:
    """Right null space of m: per free column f, the vector with 1 at f and
    minus each pivot row's entry at f at that row's lead."""
    pivots = _pivots(rref(m))
    free = {f: {f: ONE} for f in range(m.cols)}
    for lead, _ in pivots:
        del free[lead]
    for lead, row in pivots:
        for f, x in row[1:]:
            free[f][lead] = -x
    return Subspace.spanned_by_rows(Matrix.from_rows(free.values(), m.cols))


def solve(m: Matrix, b: Vec):
    """One exact solution of m x = b, or None.

    Free coordinates are pinned to zero, which makes the answer deterministic.
    """
    b = vec(b)
    if len(b) != m.rows:
        raise InputError("right-hand side length mismatch")
    n = m.cols
    aug = Matrix(m.rows, n + 1, tuple(
        row + ((n, bi),) if bi else row for row, bi in zip(m.entries, b)))
    x = [ZERO] * n
    for lead, row in _pivots(rref(aug)):
        if lead == n:
            return None  # inconsistent: pivot in the augmented column
        c, y = row[-1]
        if c == n:
            x[lead] = y
    return tuple(x)


def invert(m: Matrix):
    """Exact inverse, or None when m is singular."""
    if m.rows != m.cols:
        return None
    n = m.rows
    aug = Matrix(n, 2 * n, tuple(
        row + ((n + i, ONE),) for i, row in enumerate(m.entries)))
    r = rref(aug).entries
    if any(not row or row[0][0] != i for i, row in enumerate(r)):
        return None
    # row i leads at column i, and every other pivot column is left of n
    return Matrix(n, n, tuple(tuple((c - n, x) for c, x in row[1:])
                              for row in r))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of [A^T | -B^T]."""
    if a.ambient_dim != b.ambient_dim:
        raise InputError("ambient dimension mismatch in intersection")
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    stacked = Matrix(a.dim + b.dim, n,
                     a.basis.entries + b.basis.scale(-1).entries)
    vecs = []
    for w in kernel(stacked.transpose()).basis.entries:
        x = {}
        for r, c in w:
            if r < a.dim:
                for j, y in a.basis.entries[r]:
                    x[j] = x.get(j, ZERO) + c * y
        vecs.append(x)
    return Subspace.spanned_by_rows(Matrix.from_rows(vecs, n))


# The prime of the packed modular elimination: the largest below 2^26, so
# that a 64-bit slot holding a residue takes 4096 more products of two
# residues before it must be reduced (_products).  A smaller prime costs
# more lifting steps, a larger one more reductions, and any prime gives the
# same certified answers.
MODULUS = (1 << 26) - 5
_SLOT = 64
_MASK = (1 << _SLOT) - 1
_SWAP = sys.byteorder == "big"


def _products(p: int) -> int:
    """How many products of two residues mod p a slot holding one residue
    takes and stays below 2^64: (p - 1) + k (p - 1)^2 <= 2^64 - 1."""
    return (_MASK - (p - 1)) // (p - 1) ** 2


def _from_slots(a: array) -> int:
    """The array("Q") a as one int, entry m in the m-th 64-bit slot."""
    if _SWAP:
        a = array("Q", a)
        a.byteswap()
    return int.from_bytes(a, "little")


def _slots(x: int) -> array:
    """The 64-bit slots of the nonnegative int x, as an array("Q")."""
    a = array("Q", x.to_bytes(((x.bit_length() + 63) >> 6) << 3, "little"))
    if _SWAP:
        a.byteswap()
    return a


def _residues(pairs, n: int, p: int) -> int:
    """The sparse int vector pairs, (m, x) pairs of length n, mod p: slot m
    holds x mod p."""
    a = array("Q", bytes(n << 3))
    for m, x in pairs:
        a[m] = x % p
    return _from_slots(a)


def _reduced(x: int, p: int) -> int:
    """x with each slot reduced mod p."""
    return _from_slots(array("Q", [v % p for v in _slots(x)]))


def _walk(x: int, base: int, tails: dict, p: int, used: list,
          out=None) -> tuple:
    """Reduce the packed row x, whose slot 0 is column base, by the rows
    tails holds, left to right.  A slot whose residue a is 0 is dropped.
    At a column l of tails, x gains a times tails[l], which holds minus a
    row with lead 1 at l from column l + 1 on, slot l is dropped, and l p
    + a goes on used: a times that row is taken off.  At any other column
    the walk returns (column, x), x from that column on, unless out is a
    list, to which it appends (column, a) and goes on; a spent x returns
    (None, 0).  Slots start below p and each step adds less than (p -
    1)^2 to one, so x is reduced slot by slot once _products(p) steps
    have added to it."""
    limit = _products(p)
    count = 0
    while x:
        v = x & _MASK
        if not v:
            s = ((x & -x).bit_length() - 1) >> 6
            x >>= s << 6
            base += s
            v = x & _MASK
        a = v % p
        if a:
            tail = tails.get(base)
            if tail is not None:
                if count == limit:
                    x, count = _reduced(x, p), 0
                x = (x >> _SLOT) + a * tail
                used.append(base * p + a)
                count += 1
                base += 1
                continue
            if out is None:
                return base, x
            out.append((base, a))
        x >>= _SLOT
        base += 1
    return None, 0


def _substitute(x: int, columns: list, scales: list, p: int) -> list:
    """Solve a unit-triangular system mod p by columns: position k of
    the packed x, in order, gives z_k = scales[k] times its residue, and
    x then gains z_k times columns[k], which holds minus the system's
    column k from position k + 1 on.  Slots are bounded as in _walk."""
    limit = _products(p)
    count = 0
    out = []
    for column, scale in zip(columns, scales):
        z = (x & _MASK) * scale % p
        out.append(z)
        if count == limit:
            x, count = _reduced(x, p), 0
        x = (x >> _SLOT) + z * column
        count += 1
    return out


class ModularEchelon:
    """A row echelon form modulo the prime p of int rows of length cols,
    each row one int of 64-bit slots (linalg's Kronecker packing at a
    fixed width, so that one array("Q") packs and unpacks it), column c in
    slot c, every slot a residue in [0, p) between eliminations (_walk
    bounds them on the way).

    tails maps each pivot's lead column l to minus its row scaled to lead
    1, from column l + 1 on; rows maps l to the int row that gave the
    pivot, as it was added, in the order added; and steps maps l to how
    the echelon row came from it: the inverse of its lead once the
    earlier pivots were taken off, and lead times p plus multiplier for
    each of those pivots, in order.  The rows that gave pivots have an
    r x r minor at the lead columns that is nonzero mod p, so nonzero
    over Q: the rank over Q of the rows added is at least rank.

    As rref does over Q, add skips the rows the pivots already span once
    such rows have cost enough: once as many rows in a row have walked to
    zero as an eighth of the rank, about what building the kernel costs
    (its back-substitution walks reduce by RREF rows that hold free
    columns alone: on the dense gl(2|2) conjugate's ts2 a kernel of rank
    1014 took the time of about 130 row walks), it packs the kernel mod p
    by column, and a later row whose packed products with it are all 0
    mod p lies in the span mod p and is skipped; a new pivot drops the
    kernel."""

    def __init__(self, cols: int, p: int = MODULUS):
        self.cols, self.p = cols, p
        self.tails, self.rows, self.steps = {}, {}, {}
        self._zeros = 0  # rows walked to zero since the last new pivot
        self._kernel = self._columns = None

    @property
    def rank(self) -> int:
        return len(self.tails)

    def add(self, pairs) -> bool:
        """Add the sparse int row pairs; True when it gives a new pivot."""
        p = self.p
        if self._columns is not None and self._spanned(pairs):
            return False
        used = []
        lead, x = _walk(_residues(pairs, self.cols, p), 0, self.tails, p,
                        used)
        if lead is None:
            self._zeros += 1
            if self._columns is None and 8 * self._zeros >= self.rank:
                self._columns = [0] * self.cols
                for s, (_, v) in enumerate(self.kernel().items()):
                    for j, y in v:
                        self._columns[j] += y << (_SLOT * s)
            return False
        vals = _slots(x)
        inverse = pow(vals[0] % p, -1, p)
        scale = p - inverse
        self.tails[lead] = _from_slots(array("Q", [v * scale % p
                                                   for v in vals[1:]]))
        self.rows[lead] = pairs
        self.steps[lead] = (inverse, array("Q", used))
        self._zeros = 0
        self._kernel = self._columns = None
        return True

    def _spanned(self, pairs) -> bool:
        """Whether the row has a zero product mod p with every kernel
        vector: one packed sum of residue times packed column per entry,
        reduced slot by slot as _walk's are."""
        p, columns, limit = self.p, self._columns, _products(self.p)
        acc = count = 0
        for j, x in pairs:
            if count == limit:
                acc, count = _reduced(acc, p), 0
            acc += x % p * columns[j]
            count += 1
        return not any(v % p for v in _slots(acc))

    def kernel(self) -> dict:
        """The RREF kernel mod p: per free column f, the basis vector with
        1 at f, 0 at every other free column and minus each RREF row's
        entry at f at that row's lead, as sorted (column, residue) pairs.
        The RREF rows come from the echelon by back-substitution, the last
        lead first, each walked (_walk) against the RREF rows after it.
        Kept until the next new pivot."""
        if self._kernel is not None:
            return self._kernel
        p = self.p
        kernel = {f: [(f, 1)] for f in range(self.cols) if f not in self.tails}
        reduced = {}  # lead -> minus its RREF row, from lead + 1 on
        for lead in sorted(self.tails, reverse=True):
            out = []
            _walk(self.tails[lead], lead + 1, reduced, p, [], out)
            a = array("Q", bytes((self.cols - lead - 1) << 3))
            for c, x in out:
                a[c - lead - 1] = x
                kernel[c].append((lead, x))
            reduced[lead] = _from_slots(a)
        self._kernel = {f: tuple(sorted(v)) for f, v in kernel.items()}
        return self._kernel


def modular_rank(rows, cols: int, stop: int = None,
                 p: int = MODULUS) -> ModularEchelon:
    """The ModularEchelon mod p of the sparse int rows, each a sequence of
    (column, int) pairs of length cols, read in order until its rank
    reaches stop (cols by default), so the row that completes it is the
    last one read.  Its rank is a lower bound of the rank over Q of the
    rows read, equal to it unless p divides every maximal minor."""
    echelon = ModularEchelon(cols, p)
    stop = cols if stop is None else stop
    if echelon.rank < stop:
        for pairs in rows:
            if echelon.add(pairs) and echelon.rank == stop:
                break
    return echelon


def orthogonal_test(columns):
    """A test of whether a sparse int row has a zero product with each
    vector of a family of int vectors, given by coordinate: columns[j]
    holds the (s, x) pairs of the nonzero j-th coordinates x of the
    vectors s.  Column j is packed (pack) into one int, so a row's
    products are one packed sum over its nonzero entries, zero exactly
    when every product is: a row whose largest |entry| is at most bound
    has products of at most bound times the largest 1-norm of a vector,
    which slot_width holds, and a row above the bound repacks the columns
    for twice the bound, or its own largest entry."""
    norms = {}
    for pairs in columns:
        for s, x in pairs:
            norms[s] = norms.get(s, 0) + abs(x)
    reach = max(norms.values(), default=0)
    state = [-1, None]  # the bound the columns are packed for, and them

    def test(pairs) -> bool:
        if not pairs:
            return True
        at, values = zip(*pairs)
        top = max(max(values), -min(values))
        if top > state[0]:
            state[0] = max(top, 2 * state[0])
            width = slot_width(state[0] * reach)
            state[1] = [pack(c, width) for c in columns]
        return not sum(map(mul, values, map(state[1].__getitem__, at)))
    return test


def _rational(u: int, m: int, bound: int):
    """(n, d), n / d = u mod m with |n| <= bound and 0 < d <= bound, by
    the extended Euclidean algorithm (Wang's rational reconstruction), or
    None when no such pair comes out."""
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not t1 or abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstruct(ys: list, m: int):
    """(D, [D y for y in ys]) for the rationals y whose residues mod m are
    ys, under one common denominator D, built entry by entry: an entry
    that D already clears is the symmetric residue of D y, and another
    reconstructs that residue (_rational) and multiplies D by its
    denominator; None when an entry does not reconstruct.  Numerators and
    D stay within the power of two at most the root of m / 2, so two
    rationals that pass have distinct residues."""
    bound = 1 << ((m.bit_length() - 2) >> 1)  # at most the root of m / 2
    den, nums = 1, []
    for y in ys:
        v = y * den % m
        if v > m >> 1:
            v -= m
        if abs(v) <= bound:
            nums.append(v)
            continue
        got = _rational(v, m, bound)
        if got is None or den * got[1] > bound:
            return None
        n, d = got
        den *= d
        nums = [x * d for x in nums]
        nums.append(n)
    return den, nums


def lift_kernel(echelon: ModularEchelon, frees) -> list:
    """For each free column f of frees, an int vector w with P w = 0 over
    Q, P the rows that gave echelon's pivots: w_f = D, 0 at every other
    free column and D y at the leads, where B y = -c, B the minor of P at
    the leads, c P's column f and D the least denominator of y; as sorted
    (column, int) pairs.  None when the lift fails.

    y comes by Dixon's p-adic lifting (1982), each step solving for one
    more p-adic digit of y while B Y + c = p^k e stays exact in ints,
    summed over B's sparse rows.  A digit
    solves B d = -e mod p through the factors the echelon kept: its rows
    are E = T P, so its minor at the leads is U = T B, unit upper
    triangular in lead order, and T is unit lower triangular in the order
    the rows came once each row's inverse lead is taken out (steps);
    forward substitution gives z = T (-e), and back substitution U d = z
    (_substitute, both).  After each step Y mod p^k is reconstructed as
    rationals (_reconstruct), and y is taken once two steps in a row give
    the same.  By Hadamard's bound every numerator and denominator of y
    is at most the product H of the row norms of [B | c]: once p^k passes
    16 H^2 the reconstruction is y, so the steps stop, and the lift fails,
    one step later.  The caller checks the vectors it gets."""
    p = echelon.p
    order = list(echelon.rows)  # the leads, in the order their rows came
    r = len(order)
    if not r:
        return [((f, 1),) for f in frees]
    index = {lead: i for i, lead in enumerate(order)}
    down = sorted(order, reverse=True)
    place = {lead: n for n, lead in enumerate(down)}
    forward = [array("Q", bytes((r - i - 1) << 3)) for i in range(r)]
    backward = [array("Q", bytes((r - n - 1) << 3)) for n in range(r)]
    scales = []
    for i, lead in enumerate(order):
        inverse, used = echelon.steps[lead]
        scales.append(inverse)
        for step in used:
            l, a = divmod(step, p)
            j = index[l]
            forward[j][i - j - 1] = p - a  # row i took a times row j off
        tail, n = _slots(echelon.tails[lead]), place[lead]
        for m, l in enumerate(down[:n]):  # U's column l, above its diagonal
            if l - lead <= len(tail):
                backward[m][n - m - 1] = tail[l - lead - 1]
    for factor in (forward, backward):  # in place, one array at a time
        for j, a in enumerate(factor):
            factor[j] = _from_slots(a)
    ones = [1] * r
    rows = [echelon.rows[lead] for lead in order]
    minor = [[(place[c], x) for c, x in row if c in place] for row in rows]
    cap = 5 + sum(sum(x * x for _, x in row).bit_length()
                  for row in rows)  # bits of 16 H^2
    out = []
    for f in frees:
        e = [sum(x for c, x in row if c == f) for row in rows]
        ys, m, last = [0] * r, 1, None
        while m.bit_length() <= cap + p.bit_length():
            z = _substitute(_from_slots(array("Q", [-x % p for x in e])),
                            forward, scales, p)
            digit = _substitute(_from_slots(array("Q", [
                z[index[l]] for l in down])), backward, ones, p)
            e = [x + sum(y * digit[n] for n, y in row)
                 for x, row in zip(e, minor)]
            if any(x % p for x in e):
                return None
            e = [x // p for x in e]
            ys = [y + m * x for y, x in zip(ys, digit)]
            m *= p
            got = _reconstruct(ys, m)
            if got is not None and got == last:
                den, nums = got
                w = {lead: x for lead, x in zip(down, nums) if x}
                w[f] = den
                out.append(tuple(sorted(w.items())))
                break
            last = got
        else:
            return None
    return out


def certified_rank(m: Matrix, known, b: int, walk) -> int:
    """The rank over Q of the int matrix m, computed mod p and proved.

    m.entries is read once, by modular_rank, until the rank mod p reaches
    m.cols - b, where the answer is proved and the read ends: a check the
    caller hangs on the rows reads the rest itself.  known holds int
    vectors, sorted (column, int) pairs, whose span has dimension b over Q
    and lies in the kernel of m; the caller checks that on every row, or
    has it proved (cohomology's d^2 = 0 on record).  walk() reads m's rows
    afresh.  Two bounds pin the rank:
    - the rank r mod p is a lower bound, a minor nonzero mod p being
      nonzero over Q;
    - the span of known bounds the kernel from below, so the rank is at
      most m.cols - b, and r = m.cols - b is proved.
    Otherwise the kernel mod p, of dimension k = m.cols - r, holds
    k - b or more vectors past the span of known mod p.  These are taken
    from the RREF kernel mod p, in free column order, lifted to int
    vectors (lift_kernel), checked to be in the kernel of every row of
    walk() in ints (orthogonal_test), and checked mod p to span, with
    known, a space of dimension k, so of dimension k over Q: then the rank
    is at most r, and r is proved.  A check that fails leaves the answer
    to rank on walk(), so the rank is exact whichever path gives it."""
    cols = m.cols
    echelon = modular_rank(m.entries, cols, cols - b)
    free = cols - echelon.rank
    if free == b:
        return echelon.rank
    span = modular_rank(known, cols)
    frees = [f for f, v in echelon.kernel().items()
             if span.rank < free and span.add(v)]
    lifted = lift_kernel(echelon, frees)
    if lifted is not None:
        columns = [[] for _ in range(cols)]
        for s, v in enumerate(lifted):
            for j, x in v:
                columns[j].append((s, x))
        if (all(map(orthogonal_test(columns), walk()))
                and modular_rank((*known, *lifted), cols).rank == free):
            return echelon.rank
    return rank(Matrix(m.rows, cols, walk()))
