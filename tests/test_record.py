"""linalg.record against the standard library's dataclass.

The same toy class bodies are decorated both ways, and every behaviour the
package relies on is compared: repr bytes (the coboundary pins hash
repr(Matrix)), ==, != and hash, the frozen errors, defaults and
default_factory, an init=False memo field as HomLieSuper has, __post_init__
and the TypeErrors of a bad call.  dataclasses is imported here only.
"""

import dataclasses
from fractions import Fraction

import pytest

from homnambu.linalg import FrozenInstanceError, InputError, field, record


def toy_classes(decorate, make_field):
    """The toy records, decorated by decorate with fields from make_field."""

    @decorate(frozen=True)
    class Point:
        x: object
        y: object = None

    @decorate(frozen=True)
    class Single:
        only: object

    @decorate(frozen=True)
    class Algebra:
        space: tuple
        twist: object = 0
        memo: dict = make_field(default_factory=dict, init=False,
                                compare=False, repr=False)

        def __post_init__(self):
            if type(self.space) is not tuple:
                raise InputError("space must be a tuple")

    @decorate
    class Bag:
        command: str
        findings: list = make_field(default_factory=list)
        metrics: dict = make_field(default_factory=dict)
        applicable: bool = True

    class Pinned(Point):
        arity = 2

    return {"Point": Point, "Single": Single, "Algebra": Algebra,
            "Bag": Bag, "Pinned": Pinned}


OURS = toy_classes(record, field)
STDLIB = toy_classes(dataclasses.dataclass, dataclasses.field)


def both(name, *args, **kwargs):
    return (OURS[name](*args, **kwargs), STDLIB[name](*args, **kwargs))


def outcome(call):
    """('ok', value) or ('raises', exception type, whether an
    AttributeError, message)."""
    try:
        return ("ok", call())
    except Exception as e:  # the two sides must fail alike
        return ("raises", type(e).__name__, isinstance(e, AttributeError),
                str(e))


CASES = [
    ("Point", (1,), {}),
    ("Point", (Fraction(1, 3), "it's"), {}),
    ("Point", (), {"x": (1, 2), "y": {"a": [1]}}),
    ("Point", (-0, None), {}),
    ("Single", ((),), {}),
    ("Single", (Fraction(-2),), {}),
    ("Algebra", (("h", "e"),), {}),
    ("Algebra", (("h",), Fraction(1, 2)), {}),
    ("Bag", ("check binary",), {}),
    ("Bag", ("induce", ["f"], {"n": 1}, False), {}),
    ("Pinned", (3, 4), {}),
]


@pytest.mark.parametrize("name, args, kwargs", CASES)
def test_repr_matches_dataclass_byte_for_byte(name, args, kwargs):
    ours, std = both(name, *args, **kwargs)
    assert repr(ours) == repr(std)
    nested = both("Point", ours, [ours])[0], both("Point", std, [std])[1]
    assert repr(nested[0]) == repr(nested[1])


def test_eq_ne_and_hash_match_dataclass():
    for name, args, kwargs in CASES:
        for other_name, other_args, other_kwargs in CASES:
            a, sa = both(name, *args, **kwargs)
            b, sb = both(other_name, *other_args, **other_kwargs)
            assert (a == b) is (sa == sb), (name, other_name)
            assert (a != b) is (sa != sb), (name, other_name)
        a, sa = both(name, *args, **kwargs)
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(sa)), name
        assert (a == (args, kwargs)) is (sa == (args, kwargs)) is False
        assert a.__eq__(5) is NotImplemented
        assert sa.__eq__(5) is NotImplemented


def test_eq_against_another_class_is_not_implemented():
    p, sp = both("Point", 1, 2)
    pinned, spinned = both("Pinned", 1, 2)
    single, ssingle = both("Single", 1)
    assert p.__eq__(pinned) is sp.__eq__(spinned) is NotImplemented
    assert p.__eq__(single) is sp.__eq__(ssingle) is NotImplemented
    assert (p == pinned) is (sp == spinned) is False
    assert (p != single) is (sp != ssingle) is True
    assert (p == sp) is False  # the two decorators make different classes


def test_eq_compares_field_tuples_so_the_same_object_is_not_asked():
    """Tuple comparison takes an item to equal itself without calling its
    __eq__: a check like bracket.space != self.space on one shared space
    costs nothing however large the space."""

    class Costly:
        calls = 0

        def __eq__(self, other):
            Costly.calls += 1
            return NotImplemented

        __hash__ = object.__hash__

    shared = Costly()
    point, single = OURS["Point"], OURS["Single"]
    assert point(shared, shared) == point(shared, shared)
    assert not single(shared) != single(shared)
    assert Costly.calls == 0
    assert single(shared) != single(Costly())
    assert Costly.calls > 0


@pytest.mark.parametrize("name, args, kwargs", CASES)
def test_frozen_errors_match_dataclass(name, args, kwargs):
    ours, std = both(name, *args, **kwargs)
    for attr in ("x", "only", "space", "memo", "command", "extra"):
        set_ours = outcome(lambda: setattr(ours, attr, 7))
        set_std = outcome(lambda: setattr(std, attr, 7))
        del_ours = outcome(lambda: delattr(ours, attr))
        del_std = outcome(lambda: delattr(std, attr))
        # dataclasses.FrozenInstanceError against ours: same base and text
        assert set_ours[2:] == set_std[2:], (name, attr)
        assert del_ours[2:] == del_std[2:], (name, attr)
        assert set_ours[0] == set_std[0] and del_ours[0] == del_std[0]
        if set_ours[0] == "raises" and set_std[1] == "FrozenInstanceError":
            assert set_ours[1] == "FrozenInstanceError"
            assert issubclass(FrozenInstanceError, AttributeError)


def test_undecorated_subclass_takes_other_attributes_as_dataclass_does():
    pinned, spinned = both("Pinned", 1, 2)
    pinned.note = spinned.note = "kept"
    assert pinned.note == spinned.note == "kept"
    for obj in (pinned, spinned):
        with pytest.raises(AttributeError):
            obj.x = 3
    assert pinned.x == spinned.x == 1


def test_defaults_and_a_fresh_factory_object_per_instance():
    for side in (OURS, STDLIB):
        a, b = side["Bag"]("a"), side["Bag"]("b")
        assert a.findings == [] and a.metrics == {} and a.applicable is True
        assert a.findings is not b.findings and a.metrics is not b.metrics
        a.findings.append(1)
        assert b.findings == []
        assert side["Point"](1).y is None
        assert side["Point"].y is None  # a plain default stays on the class
        assert "findings" not in side["Bag"].__dict__
        assert side["Algebra"](()).memo is not side["Algebra"](()).memo
    assert OURS["Bag"]("a", [1]).findings == STDLIB["Bag"]("a", [1]).findings


def test_memo_field_is_filled_but_not_an_argument_shown_or_compared():
    for side in (OURS, STDLIB):
        a, b = side["Algebra"](("h",)), side["Algebra"](("h",))
        a.memo["rows"] = 1
        assert a == b and hash(a) == hash(b)
        assert "memo" not in repr(a)
        with pytest.raises(TypeError):
            side["Algebra"](("h",), 0, {})
        with pytest.raises(TypeError):
            side["Algebra"](("h",), memo={})
    ours, std = both("Algebra", ("h",))
    assert repr(ours) == repr(std) and hash(ours) == hash(std)


def test_post_init_runs_after_the_fields_and_its_error_passes():
    for side in (OURS, STDLIB):
        with pytest.raises(InputError, match="space must be a tuple"):
            side["Algebra"](["h"])
        with pytest.raises(InputError):
            side["Algebra"](space="h", twist=1)
        assert side["Algebra"](space=("h",), twist=1).twist == 1


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),
    ((1, 2, 3), {}),
    ((1,), {"z": 2}),
    ((1,), {"x": 2}),
    ((), {"y": 2}),
], ids=["missing", "extra-positional", "unknown-keyword", "twice",
        "missing-with-keyword"])
def test_bad_calls_raise_type_error_as_dataclass_does(args, kwargs):
    ours = outcome(lambda: OURS["Point"](*args, **kwargs))
    std = outcome(lambda: STDLIB["Point"](*args, **kwargs))
    assert ours[:3] == std[:3] == ("raises", "TypeError", False)


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}), ((1, 2), {}), ((), {"x": 1, "y": 2}), ((1,), {"y": 2}),
    ((), {"y": 2, "x": 1}),
])
def test_good_calls_bind_as_dataclass_does(args, kwargs):
    ours, std = both("Point", *args, **kwargs)
    assert (ours.x, ours.y) == (std.x, std.y)
    assert repr(ours) == repr(std)

