"""Write the north-star documents that the CI steps read into DIR.

    python3 tools/ci_documents.py DIR

DOCUMENTS maps each file stem to the function that builds its document:
gl(m|n) with its defining representation and the induced ternary
bracket, the conjugates by the dense even draw of
random_even_invertible(random.Random(1)), and gl(m|n) twisted by
central_twist(m, n).  The CI pins by sha256 the gl22_conjugate document
and the transfer-checks stdout of seven of them, and the tests build
gl22_conjugate, the central twists and the transfer cases here too.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from homnambu.binary import HomLieSuper
from homnambu.fixtures import (central_twist, conjugate_pair, glmn,
                               random_even_invertible)
from homnambu.formats import DocumentBundle, write_document
from homnambu.graded import GradedMap
from homnambu.linalg import invert
from homnambu.reps import Representation, trace_functional
from homnambu.ternary import induce_ternary


def induced(name, lie, rep, alpha2):
    """The document of (lie, rep) and the algebra it induces, with
    alpha1 = lie.alpha and this alpha2."""
    t = induce_ternary(lie, trace_functional(rep), lie.alpha, alpha2)
    return DocumentBundle(name, lie, rep, t)


def plain(m, n):
    lie, rep = glmn(m, n)
    return induced(f"gl{m}{n}", lie, rep, lie.alpha)


def central(m, n):
    """gl(m|n) and its representation with alpha = central_twist(m, n),
    no Yau twist, and the algebra induced with alpha1 = alpha2 = alpha:
    Hom-Jacobi but not multiplicative, and tau o alpha = tau only when
    m = n."""
    lie, rep = glmn(m, n)
    lie = HomLieSuper(lie.space, lie.bracket, central_twist(m, n))
    rep = Representation(lie, rep.module_space, rep.matrices, rep.beta)
    return induced(f"gl{m}{n}-central-twist", lie, rep, lie.alpha)


def conjugate(m, n):
    """(lie, rep, s): glmn(m, n) conjugated by the dense even draw s."""
    lie, rep = glmn(m, n)
    s = random_even_invertible(random.Random(1), lie.space)
    return (*conjugate_pair(lie, rep, s), s)


def conjugate_document(m, n):
    lie, rep, _ = conjugate(m, n)
    return induced(f"gl{m}{n}-conjugate", lie, rep, lie.alpha)


def conjugate_two_twists():
    """gl22_two_twists with both twists conjugated by the dense draw s."""
    lie, rep, s = conjugate(2, 2)
    alpha2 = GradedMap(lie.space, lie.space,
                       invert(s).mul(central_twist(2, 2).matrix.mul(s)))
    return induced("gl22-conjugate-two-twists", lie, rep, alpha2)


# file stem -> the function that builds its document
DOCUMENTS = {
    "gl21": lambda: plain(2, 1),
    "gl22": lambda: plain(2, 2),
    "gl31": lambda: plain(3, 1),
    "gl40": lambda: plain(4, 0),
    # gl(2|2) and its representation with no ternary section
    "gl22_binary": lambda: DocumentBundle("gl22-binary", *glmn(2, 2)),
    "gl21_conjugate": lambda: conjugate_document(2, 1),
    "gl22_conjugate": lambda: conjugate_document(2, 2),
    "gl22_two_twists": lambda: induced("gl22-two-twists", *glmn(2, 2),
                                       central_twist(2, 2)),
    "gl22_conjugate_two_twists": conjugate_two_twists,
    "gl21_central_twist": lambda: central(2, 1),
    "gl22_central_twist": lambda: central(2, 2),
}


def main(root):
    Path(root).mkdir(parents=True, exist_ok=True)
    for stem, build in DOCUMENTS.items():
        write_document(Path(root) / f"{stem}.json", build())
    print(f"wrote {len(DOCUMENTS)} documents to {root}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 tools/ci_documents.py DIR")
    main(sys.argv[1])
