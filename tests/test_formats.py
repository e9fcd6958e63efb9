"""JSON document and cochain wire formats."""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from homnambu import fixtures
from homnambu.cohomology import (Cochain, cochain_length, make_cochain,
                                 parity_support)
from homnambu.formats import (DocumentBundle, dumps_document, load_cochain,
                              load_document, load_functional, parse_json,
                              parse_scalar, read_document, serialize_cochain,
                              serialize_document)
from homnambu.linalg import InputError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

DOCS = ["a0", "aff1", "gl11", "gl11t2", "gl11_induced",
        "neg_jacobi", "neg_mult", "neg_rep", "neg_nambu"]


def test_parse_scalar_accepts():
    assert parse_scalar(3, "x") == Fraction(3)
    assert parse_scalar(-2, "x") == Fraction(-2)
    assert parse_scalar("7", "x") == Fraction(7)
    assert parse_scalar("-4/5", "x") == Fraction(-4, 5)
    assert parse_scalar("0", "x") == 0


@pytest.mark.parametrize("bad", ["1/0", "4/-2", "1.5", "", "a", "1/", "--2",
                                 1.5, True, None, [1],
                                 "1\n", "1/2\n", "\u0663",
                                 pytest.param("1" * 5000, id="5000-digits")])
def test_parse_scalar_rejects(bad):
    with pytest.raises(InputError):
        parse_scalar(bad, "x")


def test_parse_json_guards():
    with pytest.raises(InputError):
        parse_json("{not json")
    with pytest.raises(InputError):
        parse_json("[1, 2]")
    assert parse_json('{"a": 1}') == {"a": 1}


@pytest.mark.parametrize("text,key", [
    ('{"basis": [], "bracket": {}, "basis": []}', "basis"),
    ('{"bracket": {"h1,q": {"q": "1"}, "h1,q": {"q": "7"}}}', "h1,q"),
    ('{"values": {"q,p|h1": {"h1": "1", "h1": "2"}}}', "h1"),
], ids=["top", "bracket", "nested"])
def test_parse_json_rejects_a_repeated_key(text, key):
    # json keeps a repeated key's last value without a word; algebra,
    # cochain and functional documents are all read through parse_json
    with pytest.raises(InputError, match=f"repeated key '{key}' in doc"):
        parse_json(text, "doc")
    assert parse_json(text.replace(f'"{key}"', '"x"', 1), "doc")


def test_missing_alpha_defaults_to_identity():
    doc = {"basis": [{"id": "x", "parity": 0}, {"id": "y", "parity": 1}],
           "bracket": {}}
    b = load_document(doc)
    assert b.lie.alpha.column(0) == (1, 0)
    assert b.lie.alpha.column(1) == (0, 1)
    assert b.name == "algebra"


def test_document_validation():
    with pytest.raises(InputError):
        load_document({"basis": []})
    with pytest.raises(InputError):
        load_document({"basis": [{"id": "x", "parity": 2}]})
    with pytest.raises(InputError):
        load_document({"basis": [{"id": "x"}]})
    good = [{"id": "x", "parity": 1}, {"id": "y", "parity": 1}]
    with pytest.raises(InputError):
        load_document({"basis": good, "bracket": {"y,x": {"x": "1"}}})
    with pytest.raises(InputError):
        load_document({"basis": good, "bracket": {"x,z": {"x": "1"}}})
    with pytest.raises(InputError):
        load_document({"basis": good, "bracket": {"x,y": {"x": "1/0"}}})
    for parity in (True, 1.0):
        with pytest.raises(InputError):
            load_document({"basis": [{"id": "x", "parity": parity}]})
    for key in ("bracket", "ternary", "representation"):
        for val in ([], "x", 1):
            with pytest.raises(InputError):
                load_document({"basis": good, key: val})
    for rep in ({"space": [True]}, {"space": [0], "matrices": []}):
        with pytest.raises(InputError):
            load_document({"basis": good, "representation": rep})


def assert_round_trip(bundle):
    """Serialize, read and serialize again: an equal bundle, the same text."""
    text = dumps_document(serialize_document(bundle))
    back = load_document(parse_json(text))
    assert back == bundle
    assert dumps_document(serialize_document(back)) == text


@pytest.mark.parametrize("stem", DOCS)
def test_document_round_trip_bytes(stem):
    path = FIXTURES / f"{stem}.json"
    original = path.read_text(encoding="utf-8")
    bundle = read_document(path)
    assert dumps_document(serialize_document(bundle)) == original
    assert_round_trip(bundle)


@pytest.mark.parametrize("stem",
                         sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_constructed_document_matches_shipped_bytes(corpus, stem):
    """Each input document tools/regen_fixtures.py writes, or a golden
    call writes with -o, is the shipped one byte for byte."""
    name = f"{stem}.json"
    assert (corpus / name).read_bytes() == (FIXTURES / name).read_bytes()


def test_extended_document_round_trip():
    path = FIXTURES / "golden" / "gl11_extended.json"
    original = path.read_text(encoding="utf-8")
    bundle = read_document(path)
    assert dumps_document(serialize_document(bundle)) == original
    assert_round_trip(bundle)


def test_read_document_missing_file(tmp_path):
    with pytest.raises(InputError):
        read_document(tmp_path / "nope.json")


def test_ternary_alpha2_round_trip(g11):
    from homnambu.fixtures import alpha_t
    from homnambu.formats import DocumentBundle
    from homnambu.ternary import TernaryHomLieSuper, induce_ternary
    from homnambu.reps import trace_functional
    from homnambu.fixtures import gl11
    lie, rep = gl11()
    tau = trace_functional(rep)
    t = induce_ternary(lie, tau, lie.alpha, lie.alpha)
    skewed = TernaryHomLieSuper(t.space, t.bracket, t.alpha1,
                                alpha_t(t.space, 3))
    doc = serialize_document(DocumentBundle("two-twists", lie, None, skewed))
    assert "alpha2" in doc
    back = load_document(doc)
    assert back.ternary.alpha2.matrix == alpha_t(t.space, 3).matrix
    assert back.ternary.alpha1.matrix == lie.alpha.matrix


def test_cochain_key_shapes(g11):
    sp = g11.space
    c = load_cochain({"complex": "binary-scalar", "degree": 2,
                      "values": {"q,p": "1"}}, sp)
    assert c.parity == 0 and c.degree == 2
    c1 = load_cochain({"complex": "ternary-scalar", "degree": 1,
                       "values": {"h1": "2"}}, sp)
    assert c1.coords[0] == 2
    c2 = load_cochain({"complex": "ternary-scalar", "degree": 2,
                       "values": {"q,p|h1": "-1/2"}}, sp)
    assert sum(1 for x in c2.coords if x != 0) == 1
    ca = load_cochain({"complex": "binary-adjoint", "degree": 2,
                       "values": {"h1,q": {"q": "1"}}}, sp)
    assert ca.parity == 0


def test_cochain_loader_guards(g11):
    sp = g11.space
    with pytest.raises(InputError):
        load_cochain({"complex": "nope", "degree": 2, "values": {}}, sp)
    with pytest.raises(InputError):
        load_cochain({"complex": "binary-scalar", "degree": "2",
                      "values": {}}, sp)
    with pytest.raises(InputError):
        load_cochain({"complex": "binary-scalar", "degree": True,
                      "values": {}}, sp)
    with pytest.raises(InputError):
        load_cochain({"complex": "binary-scalar", "degree": 2,
                      "values": {"p,q": "1"}}, sp)
    with pytest.raises(InputError):
        load_cochain({"complex": "ternary-scalar", "degree": 2,
                      "values": {"q,p": "1"}}, sp)      # missing |element
    for degree in (3, 4):
        with pytest.raises(InputError, match="stop at degree 2"):
            load_cochain({"complex": "ternary-scalar", "degree": degree,
                          "values": {}}, sp)
    with pytest.raises(InputError):
        load_cochain({"complex": "binary-scalar", "degree": 1,
                      "values": "h1"}, sp)
    for parity in ("x", 2, -1, True, 1.0, [0]):
        with pytest.raises(InputError):
            load_cochain({"complex": "binary-scalar", "degree": 2,
                          "values": {"q,p": "1"}, "parity": parity}, sp)
    for parity in (2, -1, True, None):
        with pytest.raises(InputError):
            Cochain.zero("binary-scalar", 2, sp, parity)
    c = load_cochain({"complex": "binary-scalar", "degree": 2,
                      "values": {"q,p": "1"}, "parity": None}, sp)
    assert c.parity == 0    # null means inferred, as absent does


def rand_cochain(rng, cx, degree, space, parity):
    sel = parity_support(cx, degree, space, parity)
    n = cochain_length(cx, degree, space)
    coords = [Fraction(0)] * n
    for pos in sel:
        coords[pos] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Cochain(cx, degree, parity, space, tuple(coords))


def test_cochain_round_trip(g11):
    rng = random.Random(81)
    cases = [("binary-scalar", 1), ("binary-scalar", 2),
             ("binary-adjoint", 2), ("ternary-scalar", 1),
             ("ternary-scalar", 2), ("ternary-adjoint", 1),
             ("ternary-adjoint", 2)]
    for cx, degree in cases:
        for parity in (0, 1):
            c = rand_cochain(rng, cx, degree, g11.space, parity)
            doc = serialize_cochain(c)
            assert set(doc) == {"complex", "degree", "values"}
            text = json.dumps(doc)
            back = load_cochain(json.loads(text), g11.space)
            assert back.coords == c.coords, (cx, degree, parity)
            if any(x != 0 for x in c.coords):
                assert back.parity == parity


def test_cochain_key_names_follow_cochain_keys(g11):
    sp = g11.space
    c = make_cochain("ternary-adjoint", 2, sp, {((2, 3), 0): (1, 0, 0, 0),
                                                ((0, 2), 2): (5, 0, 0, 0)})
    assert serialize_cochain(c)["values"] == {"h1,q|q": {"h1": "5"},
                                             "q,p|h1": {"h1": "1"}}
    assert list(serialize_cochain(c)["values"]) == ["h1,q|q", "q,p|h1"]
    for cx, degree, key in (("ternary-scalar", 1, "q,p|h1"),
                            ("ternary-scalar", 2, "h1"),
                            ("ternary-scalar", 2, "h1,h1|q"),
                            ("ternary-scalar", 2, "q,p|x"),
                            ("binary-scalar", 1, "h1,h2")):
        with pytest.raises(InputError):
            load_cochain({"complex": cx, "degree": degree,
                          "values": {key: "1"}}, sp)
    with pytest.raises(InputError):
        serialize_cochain(Cochain.zero("ternary-scalar", 3, sp))


def test_cochain_explicit_parity(g11):
    c = load_cochain({"complex": "binary-scalar", "degree": 1,
                      "values": {}, "parity": 1}, g11.space)
    assert c.parity == 1 and c.is_zero()


def test_load_functional(g11):
    vec = load_functional({"values": {"h1": "1", "h2": "-1"}}, g11.space)
    assert vec == (1, -1, 0, 0)
    with pytest.raises(InputError):
        load_functional({"values": {"zz": "1"}}, g11.space)
    with pytest.raises(InputError):
        load_functional({"values": ["1"]}, g11.space)


@pytest.mark.parametrize("part,where", [
    ((), "document"), (("basis", 0), "a basis entry"),
    (("representation",), "representation")],
    ids=["top", "basis", "representation"])
def test_unknown_document_key_is_an_input_error(part, where):
    """A misspelt key is refused by name, not read as absent: a misspelt
    alpha would be the identity."""
    doc = json.loads((FIXTURES / "gl11_induced.json").read_text("utf-8"))
    node = doc
    for k in part:
        node = node[k]
    node["alpah"] = {}
    with pytest.raises(InputError, match=f"^unknown key 'alpah' in {where}$"):
        load_document(doc)
    del doc["ternary"], node["alpah"]
    with pytest.raises(InputError, match="^alpha2 needs a ternary bracket$"):
        load_document(doc)


def test_unknown_cochain_or_functional_key_is_an_input_error(g11):
    """A cochain with its values misspelt would be read as zero."""
    with pytest.raises(InputError, match="^unknown key 'valeus' in cochain$"):
        load_cochain({"complex": "binary-scalar", "degree": 2,
                      "valeus": {"q,p": "1"}}, g11.space)
    with pytest.raises(InputError,
                       match="^unknown key 'value' in functional$"):
        load_functional({"value": {"h1": "1"}}, g11.space)


def test_conjugate_document_round_trip():
    """A seeded conjugate of gl(2|1), most of whose structure constants
    are non-integer rationals, with its representation and induced
    ternary section."""
    from homnambu.ternary import induce_ternary
    from homnambu.reps import trace_functional
    lie, rep = fixtures.glmn(2, 1)
    s = fixtures.random_even_invertible(random.Random(5), lie.space)
    lie, rep = fixtures.conjugate_pair(lie, rep, s)
    t = induce_ternary(lie, trace_functional(rep), lie.alpha, lie.alpha)
    assert not t.bracket.is_zero()
    assert_round_trip(DocumentBundle("gl21-conjugate", lie, rep, t))


# raw JSON text (or bytes) that Python's json, int or Fraction cannot take
# as it stands; each is spliced in where a value was
HOSTILE = ['"1\\n"', '"1/2\\n"', '"\\u0663"', '"' + "1" * 5000 + '"',
           "1" * 5000, "[" * 200000 + "]" * 200000, b'"\xff"']
OTHER_VALUES = [None, True, 0, 1, -1, 2, 1.5, "", "x", "h1", "1", "1/0", [],
                {}, [0], [1, 0], {"h1": "1"}, [["1"]], {"id": "h1"}]
ODD_KEYS = ["h1,q,p", "q,h1", "zz", "h1,", "", "h1,h1", "q|p", "id", "1"]


def nodes(doc, path=()):
    """Every path into doc, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for k, v in items:
        yield from nodes(v, path + (k,))


def mutate(rng, doc) -> bytes:
    """doc with one to three fields dropped, retyped, renamed or replaced
    by hostile text, as the bytes of a file."""
    spliced = []
    for _ in range(rng.randint(1, 3)):
        path = rng.choice([p for p in nodes(doc) if p])
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        key = path[-1]
        op = rng.randrange(4)
        if op == 0:
            del parent[key]
        elif op == 1:
            parent[key] = copy.deepcopy(rng.choice(OTHER_VALUES))
        elif op == 2 and isinstance(parent, dict):
            parent[rng.choice(ODD_KEYS)] = parent.pop(key)
        else:
            parent[key] = f"MARK{len(spliced)}"
            spliced.append(rng.choice(HOSTILE))
    text = json.dumps(doc).encode()
    for i, raw in enumerate(spliced):
        raw = raw if isinstance(raw, bytes) else raw.encode()
        text = text.replace(f'"MARK{i}"'.encode(), raw)
    return text


def test_mutated_documents_load_or_raise_input_error(tmp_path):
    """Hundreds of seeded corruptions of gl11.json: each loads or is an
    InputError, never another exception."""
    original = (FIXTURES / "gl11.json").read_text("utf-8")
    path = tmp_path / "mutant.json"
    loaded = refused = 0
    for seed in range(300):
        content = mutate(random.Random(seed), json.loads(original))
        path.write_bytes(content)
        try:
            read_document(path)
            loaded += 1
        except InputError:
            refused += 1
        except Exception as exc:  # noqa: BLE001 - the finding is the seed
            pytest.fail(f"seed {seed}: {type(exc).__name__}: {exc}")
    assert loaded and refused
