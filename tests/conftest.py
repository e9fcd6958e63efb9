import sys
from pathlib import Path

import pytest

from homnambu.fixtures import a0, aff1, gl11, gl11t, induced_gl11
from homnambu.reps import trace_functional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import ci_documents  # noqa: E402
import regen_fixtures  # noqa: E402


@pytest.fixture(scope="session")
def g11_pair():
    return gl11()


@pytest.fixture(scope="session")
def g11(g11_pair):
    return g11_pair[0]


@pytest.fixture(scope="session")
def r11(g11_pair):
    return g11_pair[1]


@pytest.fixture(scope="session")
def tau11(r11):
    return trace_functional(r11)


@pytest.fixture(scope="session")
def t11():
    return induced_gl11()


@pytest.fixture(scope="session")
def all_binary():
    """(name, lie, rep) for every shipped well-formed algebra."""
    out = []
    for name, ctor in (("a0", a0), ("aff1", aff1), ("gl11", gl11),
                       ("gl11t2", gl11t)):
        lie, rep = ctor()
        out.append((name, lie, rep))
    return out


@pytest.fixture(scope="session")
def gl22_conjugate():
    """(lie, rep, t) of the dense gl(2|2) conjugate document that
    tools/ci_documents.py writes: gl(2|2) conjugated by the dense even
    draw of random_even_invertible with random.Random(1), its defining
    representation, and the algebra induced with alpha1 = alpha2."""
    doc = ci_documents.DOCUMENTS["gl22_conjugate"]()
    return doc.lie, doc.rep, doc.ternary


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """The corpus as tools/regen_fixtures.py builds it, in a fresh
    directory: every golden call has run once, with its table's exit
    code."""
    root = tmp_path_factory.mktemp("corpus")
    regen_fixtures.main(root)
    return root
