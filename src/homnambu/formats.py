"""Reading and writing the JSON documents the CLI trades in.

An algebra document carries a named basis, the binary bracket on canonical
pairs, the twist map, and optionally a representation and a ternary
bracket with its second twist.  Basis ids are strings without ','.
Coefficients are exact rationals written as strings "n" or "n/d" of
ASCII digits with d > 0; bare integers are accepted on input.  Bracket
keys are comma-joined basis ids in canonical order; anything
non-canonical is an input error naming the key.  So is a key the reader
does not know, at the top of a document, in a basis entry, in the
representation, and in cochain and functional documents, and so is a key
written twice in one JSON object: a misspelt or repeated key would
otherwise silently change the input.  An alpha2 needs a ternary
bracket.

Cochain documents are {"complex", "degree", "values"} and an optional
"parity", the integer 0 or 1; absent or null means inferred from the
values.  Values are keyed by the document names of the keys that
cohomology.cochain_keys lists: basis ids comma-joined within a canonical
tuple, and a ternary key's fundamental pair and element joined by a bar,
as in "q,p|h1".  Adjoint complexes take a basis-id map per key, scalar
ones a rational.  Ternary cochain documents stop at degree 2.
"""

import json
import re
from fractions import Fraction

from .binary import HomLieSuper, SuperBracket2
from .cohomology import COMPLEXES, Cochain, cochain_keys, make_cochain
from .graded import (GradedMap, GradedSpace, graded_space, identity_map,
                     is_canonical)
from .linalg import InputError, Matrix, is_zero_vec, record
from .report import fmt_scalar
from .reps import Representation
from .ternary import SuperBracket3, TernaryHomLieSuper

RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def parse_scalar(x, where: str) -> Fraction:
    """An exact rational from an int, or from a string that is exactly "n"
    or "n/d" in ASCII digits and within Python's int-string limit."""
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str) and RATIONAL_RE.fullmatch(x):
        try:
            return Fraction(x)
        except ValueError:
            pass
    raise InputError(f"bad rational {x!r} at {where}")


@record
class DocumentBundle:
    name: str
    lie: HomLieSuper
    rep: Representation = None
    ternary: TernaryHomLieSuper = None


def _is_bit(x) -> bool:
    """A parity as a document writes it: the integer 0 or 1, no bool or
    float."""
    return type(x) is int and x in (0, 1)


def _known(doc: dict, keys: tuple, where: str) -> None:
    for key in doc:
        if key not in keys:
            raise InputError(f"unknown key {key!r} in {where}")


def _object(doc: dict, key: str) -> dict:
    """doc[key], absent meaning empty, which must be a JSON object."""
    val = doc.get(key, {})
    if not isinstance(val, dict):
        raise InputError(f"{key} must be a JSON object")
    return val


def parse_json(text: str, where: str = "document") -> dict:
    """A JSON object; invalid JSON, a key written twice in one object
    (which json would read as its last value), an int past Python's
    int-string limit (ValueError) and nesting too deep (RecursionError)
    are input errors."""
    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise InputError(f"repeated key {key!r} in {where}")
                seen.add(key)
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique)
    except InputError:
        raise
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON in {where}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{where} must be a JSON object")
    return doc


def _split_key(key: str, arity: int, space: GradedSpace) -> tuple:
    parts = key.split(",")
    if len(parts) != arity:
        raise InputError(f"bracket key {key!r} must join {arity} basis ids")
    return tuple(space.index(p) for p in parts)


def _check_canonical(key: str, idx: tuple, space: GradedSpace):
    if not is_canonical(idx, space.parities):
        raise InputError(f"bracket key {key!r} is not canonical")


def _vec_from_map(m, space: GradedSpace, where: str) -> tuple:
    if not isinstance(m, dict):
        raise InputError(f"{where} must map basis ids to rationals")
    out = [Fraction(0)] * space.dim
    for name, val in m.items():
        out[space.index(name)] = parse_scalar(val, f"{where}[{name}]")
    return tuple(out)


def _grid_to_matrix(grid, rows: int, cols: int, where: str) -> Matrix:
    if (not isinstance(grid, list) or len(grid) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in grid)):
        raise InputError(f"{where} must be a {rows}x{cols} grid")
    return Matrix.build([[parse_scalar(x, where) for x in row] for row in grid])


def _column_map_to_graded(m, space: GradedSpace, where: str) -> GradedMap:
    if not isinstance(m, dict):
        raise InputError(f"{where} must map basis ids to column maps")
    cols = []
    for j, name in enumerate(space.names):
        cols.append(_vec_from_map(m.get(name, {}), space, f"{where}[{name}]"))
    for name in m:
        space.index(name)  # unknown source ids are errors too
    return GradedMap(space, space, Matrix.from_columns(cols, space.dim))


def _load_bracket(doc: dict, section: str, cls, space: GradedSpace):
    """The cls bracket of doc[section], keyed by canonical basis-id tuples."""
    coeffs = {}
    for key, val in _object(doc, section).items():
        idx = _split_key(key, cls.arity, space)
        _check_canonical(key, idx, space)
        coeffs[idx] = _vec_from_map(val, space, f"{section}[{key}]")
    return cls.from_canonical(space, coeffs)


def load_document(doc: dict) -> DocumentBundle:
    _known(doc, ("name", "basis", "bracket", "alpha", "representation",
                 "ternary", "alpha2"), "document")
    if "alpha2" in doc and "ternary" not in doc:
        raise InputError("alpha2 needs a ternary bracket")
    name = doc.get("name", "algebra")
    if not isinstance(name, str):
        raise InputError("document name must be a string")
    basis = doc.get("basis")
    if not isinstance(basis, list) or not basis:
        raise InputError("document needs a nonempty basis list")
    ids, parities = [], []
    for entry in basis:
        if not isinstance(entry, dict) or "id" not in entry or "parity" not in entry:
            raise InputError("basis entries need id and parity")
        _known(entry, ("id", "parity"), "a basis entry")
        bid = entry["id"]
        if not isinstance(bid, str) or "," in bid:
            raise InputError(f"basis id {bid!r} must be a string without ','")
        if not _is_bit(entry["parity"]):
            raise InputError(f"basis parity for {bid!r} must be 0 or 1")
        ids.append(bid)
        parities.append(entry["parity"])
    space = graded_space(ids, parities)

    bracket = _load_bracket(doc, "bracket", SuperBracket2, space)

    alpha = (_column_map_to_graded(doc["alpha"], space, "alpha")
             if "alpha" in doc else identity_map(space))
    lie = HomLieSuper(space, bracket, alpha)

    rep = None
    if "representation" in doc:
        rdoc = _object(doc, "representation")
        _known(rdoc, ("space", "matrices", "beta"), "representation")
        mod_par = rdoc.get("space")
        if not isinstance(mod_par, list) or not all(map(_is_bit, mod_par)):
            raise InputError("representation.space must list parities")
        module = graded_space(tuple(f"v{i}" for i in range(len(mod_par))), mod_par)
        n = module.dim
        mats = []
        matdocs = _object(rdoc, "matrices")
        for i, bid in enumerate(space.names):
            if bid not in matdocs:
                raise InputError(f"representation matrix for {bid!r} missing")
            m = _grid_to_matrix(matdocs[bid], n, n, f"matrices[{bid}]")
            mats.append(GradedMap(module, module, m, space.parities[i]))
        for bid in matdocs:
            space.index(bid)  # unknown ids are errors, as in alpha
        beta = GradedMap(module, module,
                         _grid_to_matrix(rdoc.get("beta"), n, n, "beta"))
        rep = Representation(lie, module, tuple(mats), beta)

    ternary = None
    if "ternary" in doc:
        b3 = _load_bracket(doc, "ternary", SuperBracket3, space)
        alpha2 = (_column_map_to_graded(doc["alpha2"], space, "alpha2")
                  if "alpha2" in doc else alpha)
        ternary = TernaryHomLieSuper(space, b3, alpha, alpha2)

    return DocumentBundle(name, lie, rep, ternary)


def read_document(path) -> DocumentBundle:
    return load_document(read_json_file(path))


# --- serialization ----------------------------------------------------------


def _vec_to_map(v, space: GradedSpace) -> dict:
    return {space.names[i]: fmt_scalar(c) for i, c in enumerate(v) if c != 0}


def _matrix_to_grid(m: Matrix) -> list:
    return [[fmt_scalar(x) for x in m.row(i)] for i in range(m.rows)]


def _graded_to_column_map(g: GradedMap) -> dict:
    out = {}
    for name, col in zip(g.domain.names, g.columns()):
        if not is_zero_vec(col):
            out[name] = _vec_to_map(col, g.codomain)
    return out


def _bracket_to_map(bracket, space: GradedSpace) -> dict:
    """A bracket section as _load_bracket reads it."""
    return {",".join(space.names[i] for i in key): _vec_to_map(v, space)
            for key, v in sorted(bracket.canonical_coeffs().items())}


def serialize_document(bundle: DocumentBundle) -> dict:
    lie = bundle.lie
    space = lie.space
    doc = {
        "name": bundle.name,
        "basis": [{"id": n, "parity": p}
                  for n, p in zip(space.names, space.parities)],
        "bracket": _bracket_to_map(lie.bracket, space),
        "alpha": _graded_to_column_map(lie.alpha),
    }
    if bundle.rep is not None:
        rep = bundle.rep
        doc["representation"] = {
            "space": list(rep.module_space.parities),
            "matrices": {space.names[i]: _matrix_to_grid(rep.rho_matrix(i))
                         for i in range(space.dim)},
            "beta": _matrix_to_grid(rep.beta.matrix),
        }
    if bundle.ternary is not None:
        doc["ternary"] = _bracket_to_map(bundle.ternary.bracket, space)
        doc["alpha2"] = _graded_to_column_map(bundle.ternary.alpha2)
    return doc


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def write_document(path, bundle: DocumentBundle):
    text = dumps_document(serialize_document(bundle))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


# --- cochain and functional documents ---------------------------------------


def _cochain_key_name(key, space: GradedSpace) -> str:
    """'q', 'q,p' or 'q,p|h1': ids comma-joined within a tuple, and a
    ternary key's pairs and element joined by bars."""
    if isinstance(key, int):
        return space.names[key]
    if all(isinstance(part, int) for part in key):
        return ",".join(space.names[i] for i in key)
    return "|".join(_cochain_key_name(part, space) for part in key)


def _key_names(cx: str, degree: int, space: GradedSpace) -> dict:
    """Each key of cochain_keys(cx, degree) -> its document name."""
    if cx.startswith("ternary") and degree > 2:
        raise InputError(f"unsupported cochain degree {degree} for {cx}: "
                         f"ternary cochain documents stop at degree 2")
    names = {key: _cochain_key_name(key, space)
             for key in cochain_keys(cx, degree, space)}
    if len(set(names.values())) != len(names):
        raise InputError("basis ids containing ',' or '|' make cochain "
                         "keys ambiguous")
    return names


def load_cochain(doc: dict, space: GradedSpace) -> Cochain:
    _known(doc, ("complex", "degree", "values", "parity"), "cochain")
    cx = doc.get("complex")
    if cx not in COMPLEXES:
        raise InputError(f"unknown complex {cx!r}")
    degree = doc.get("degree")
    if type(degree) is not int:
        raise InputError("cochain degree must be an integer")
    raw = doc.get("values", {})
    if not isinstance(raw, dict):
        raise InputError("cochain values must be a map")
    by_name = {name: key for key, name in _key_names(cx, degree, space).items()}
    values = {}
    for name, val in raw.items():
        if name not in by_name:
            raise InputError(f"cochain key {name!r} is not a canonical key "
                             f"of a {cx} {degree}-cochain")
        where = f"values[{name}]"
        values[by_name[name]] = (_vec_from_map(val, space, where)
                                 if cx.endswith("adjoint")
                                 else parse_scalar(val, where))
    return make_cochain(cx, degree, space, values, doc.get("parity"))


def serialize_cochain(c: Cochain) -> dict:
    names = _key_names(c.complex, c.degree, c.space)
    values = {}
    for key, val in c.values.items():
        if c.complex.endswith("adjoint"):
            if not is_zero_vec(val):
                values[names[key]] = _vec_to_map(val, c.space)
        elif val != 0:
            values[names[key]] = fmt_scalar(val)
    return {"complex": c.complex, "degree": c.degree, "values": values}


def load_functional(doc: dict, space: GradedSpace) -> tuple:
    """A linear functional as {"values": {basis-id: rational}}."""
    _known(doc, ("values",), "functional")
    raw = doc.get("values", {})
    if not isinstance(raw, dict):
        raise InputError("functional values must be a map")
    return _vec_from_map(raw, space, "values")


def read_json_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_json(fh.read(), str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
