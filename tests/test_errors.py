"""Every engine error names a stable code, and a witness reaches each code.

The AST scan reads every construction of an engine error in ``src/``: each
passes a string-literal kebab-case code first, and no code belongs to two
classes.  ``WITNESSES`` holds one call per code; the scan, the table and
the ``errors`` module docstring name the same codes.  ``raises_code`` is the
``pytest.raises`` that the other test modules use to check a code too.
"""

import ast
import copy
import pickle
import re
from contextlib import contextmanager
from pathlib import Path

import pytest

from legcable import (
    Named,
    POS,
    SearchBudget,
    builtin_atlas,
    cable_mountain_range,
    class_from_json,
    closure_equal,
    component_class,
    enumerate_nondestab_links,
    isotopic,
    lesser_mountain_range,
    make_atlas,
    make_greater_link,
    make_integer_link,
    make_lesser_link,
    make_link,
    mountain_range,
    normalize,
    permutation_realizable,
    regime,
    stabilize,
    twist_even_atlas,
)
from legcable import errors
from legcable.cli import _dispatch, _read_json, build_parser
from legcable.errors import (
    EngineError,
    InvalidAtlas,
    MalformedDocument,
    OutOfRange,
    UnknownName,
    WrongRegime,
)
from legcable.mountain import MountainRange
from legcable.oracle import brute_mountain_range
from legcable.render import ascii_mountain, svg_mountain

SRC = Path(__file__).resolve().parent.parent / "src" / "legcable"
CLASSES = {cls.__name__ for cls in (
    EngineError, MalformedDocument, InvalidAtlas, UnknownName, WrongRegime, OutOfRange)}
CODE = re.compile(r"[a-z]+(?:-[a-z]+)*")


@contextmanager
def raises_code(cls, code, match=None):
    """``pytest.raises(cls, match=match)`` that also checks the error's code."""
    with pytest.raises(cls, match=match) as info:
        yield info
    assert info.value.code == code


def constructions():
    """(file:line, class name, first argument node, argument count) of every
    engine error built in ``src/``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in CLASSES):
                first = node.args[0] if node.args else None
                found.append((f"{path.name}:{node.lineno}", node.func.id, first, len(node.args)))
    return found


def source_codes():
    """code -> the set of class names raised with it in ``src/``."""
    codes = {}
    for _, name, first, _ in constructions():
        codes.setdefault(first.value, set()).add(name)
    return codes


def test_every_construction_passes_a_literal_code_first():
    found = constructions()
    assert len(found) > 50  # the scan sees the raise sites
    bad = [
        site for site, _, first, count in found
        if count != 2 or not isinstance(first, ast.Constant) or not isinstance(first.value, str)
        or not CODE.fullmatch(first.value)
    ]
    assert bad == []


def test_no_code_belongs_to_two_classes():
    assert {code: names for code, names in source_codes().items() if len(names) > 1} == {}
    assert "EngineError" not in set().union(*source_codes().values())


def test_five_classes():
    assert {cls.__name__ for cls in EngineError.__subclasses__()} == CLASSES - {"EngineError"}


def test_message_is_the_whole_string_and_an_error_round_trips():
    exc = WrongRegime("some-code", "the message")
    assert (str(exc), exc.code, f"{exc}") == ("the message", "some-code", "the message")
    for copied in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
        assert (type(copied), copied.code, str(copied)) == (WrongRegime, "some-code", "the message")


K5 = builtin_atlas("k-minus-5")
UNKNOT = builtin_atlas("unknot")
G = {"id": "g", "rot": 0, "tb": 1}
A_2 = make_greater_link(K5, Named("A"), 2, 2, 1)


def atlas_doc(**fields):
    return make_atlas({"generators": [G], "tbb": 1, **fields})


def cli(*argv):
    return _dispatch(build_parser().parse_args(list(argv)))


# code -> (class, a call that raises it)
WITNESSES = {
    "missing-field": (MalformedDocument, lambda: make_link(K5, {"regime": "greater", "n": 1})),
    "bad-field": (MalformedDocument, lambda: class_from_json({"gen": "A", "plus": -1})),
    "bad-json": (MalformedDocument, lambda: _read_json("{not json", "link document")),
    "not-an-object": (MalformedDocument, lambda: make_link(K5, [])),
    "duplicate-id": (InvalidAtlas, lambda: atlas_doc(generators=[G, G])),
    "generator-parity": (InvalidAtlas, lambda: atlas_doc(generators=[dict(G, rot=1)])),
    "dangling-generator": (InvalidAtlas, lambda: atlas_doc(sigma_plus=["x"])),
    "rule-counts": (InvalidAtlas, lambda: atlas_doc(
        rules=[{"src": "g", "da": 0, "db": 0, "dst": "generic"}])),
    "rule-invariants": (InvalidAtlas, lambda: atlas_doc(
        generators=[G, {"id": "h", "rot": 3, "tb": 0}],
        rules=[{"src": "g", "da": 1, "db": 0, "dst": "h"}])),
    "no-generators": (InvalidAtlas, lambda: atlas_doc(generators=[])),
    "metadata-mismatch": (InvalidAtlas, lambda: atlas_doc(tbb=0)),
    "surgery-value": (InvalidAtlas, lambda: atlas_doc(
        surgery_distinct=[{"a": "g", "b": "g", "value": "maybe"}])),
    "not-confluent": (InvalidAtlas, lambda: make_atlas({
        "generators": [{"id": "P", "rot": 0, "tb": -1}, {"id": "R1", "rot": 1, "tb": -2},
                       {"id": "R2", "rot": 1, "tb": -2}],
        "rules": [{"src": "P", "da": 1, "db": 0, "dst": "R1"},
                  {"src": "P", "da": 1, "db": 0, "dst": "R2"}],
        "tbb": -1})),
    "unknown-atlas": (UnknownName, lambda: builtin_atlas("granny")),
    "unknown-generator": (UnknownName, lambda: normalize(UNKNOT, Named("Z", 1, 0))),
    # A+-1-0 sits at (-1, -2), above the peak row tb = -3
    "class-not-held": (UnknownName, lambda: make_greater_link(K5, Named("A", -1, 0), 2, 2, 1)),
    "unreduced-slope": (WrongRegime, lambda: regime(K5, 2, 4)),
    "not-greater": (WrongRegime, lambda: cable_mountain_range(K5, 1, -5, -10)),
    "not-integer-lesser": (WrongRegime, lambda: make_integer_link(
        UNKNOT.replace(width_ceiling=-3), Named("U"), 2, 0)),
    "not-noninteger-lesser": (WrongRegime, lambda: lesser_mountain_range(K5, 2, 1, -10)),
    "negative-twist": (WrongRegime, lambda: make_integer_link(K5, Named("A"), 2, -1)),
    "unsupported-window": (WrongRegime, lambda: enumerate_nondestab_links(UNKNOT, 2, 2, -3)),
    "no-range-for-slope": (WrongRegime, lambda: cli(
        "cable-mountain", "--atlas", "unknot", "--p", "1", "--q", "-2", "--tb-min", "-5")),
    "wrong-window": (WrongRegime, lambda: make_lesser_link(K5, Named("A", 1, 0), POS, 1, 2, -7)),
    "divide-sign": (WrongRegime, lambda: make_lesser_link(K5, Named("A"), 0, 1, 2, -7)),
    "unknown-form": (WrongRegime, lambda: make_lesser_link(
        K5, Named("A"), POS, 1, 2, -7, form="spiral")),
    "inconsistent-slope": (WrongRegime, lambda: make_link(K5, {
        "regime": "integer-lesser", "p": 2, "q": -3, "n": 1, "base": {"class": {"gen": "A"}}})),
    "unknown-regime": (WrongRegime, lambda: make_link(K5, {
        "regime": "spiral", "q": 1, "n": 1, "base": {"class": {"gen": "A"}}})),
    "link-mismatch": (WrongRegime, lambda: isotopic(
        K5, A_2, make_integer_link(K5, Named("A"), 2, 0))),
    "unsearchable-object": (WrongRegime, lambda: closure_equal(K5, 5, 5)),
    "kind-mismatch": (WrongRegime, lambda: closure_equal(K5, Named("A"), A_2)),
    "cutoff-above-peak": (OutOfRange, lambda: mountain_range(K5, 0)),
    "too-many-rows": (OutOfRange, lambda: mountain_range(UNKNOT, -600)),
    "too-wide": (OutOfRange, lambda: ascii_mountain(MountainRange({(3001, 0): 1}, 0))),
    "empty-range": (OutOfRange, lambda: ascii_mountain(MountainRange({}, 0))),
    "component-count": (OutOfRange, lambda: make_greater_link(K5, Named("A"), 0, 2, 1)),
    "vector-length": (OutOfRange, lambda: make_greater_link(K5, Named("A"), 2, 2, 1, [(0, 0)])),
    "negative-count": (OutOfRange, lambda: make_greater_link(
        K5, Named("A"), 1, 2, 1, [(-1, 0)])),
    "bad-index": (OutOfRange, lambda: component_class(K5, A_2, 3)),
    "not-a-permutation": (OutOfRange, lambda: permutation_realizable(K5, A_2, [1, 1])),
    "budget-exceeded": (OutOfRange, lambda: brute_mountain_range(
        builtin_atlas("twist-even-2"), -3, SearchBudget(node_cap=1))),
    "bad-multiplicity": (OutOfRange, lambda: MountainRange({(0, 1): 0}, 0)),
    "entry-parity": (OutOfRange, lambda: MountainRange({(0, 0): 1}, 0)),
    "bad-stabilization": (OutOfRange, lambda: stabilize(K5, Named("A"), 2)),
}


@pytest.mark.parametrize("code", WITNESSES)
def test_witness_raises_its_code(code):
    cls, call = WITNESSES[code]
    with raises_code(cls, code):
        call()


def test_witnesses_source_and_docstring_name_the_same_codes():
    scanned = source_codes()
    assert sorted(WITNESSES) == sorted(scanned)
    assert {code: {cls.__name__} for code, (cls, _) in WITNESSES.items()} == scanned
    documented = re.findall(r"[a-z]+(?:-[a-z]+)+", errors.__doc__.split("\n\n", 2)[2])
    assert sorted(documented) == sorted(scanned)


# Two raise sites that no other test reaches and whose codes WITNESSES reach
# at another site; its unsearchable-object and not-integer-lesser calls
# reach the other two sites that no other test reached.
@pytest.mark.parametrize("cls, code, call", [
    (UnknownName, "unknown-atlas", lambda: twist_even_atlas(1)),
    (OutOfRange, "empty-range", lambda: svg_mountain(MountainRange({}, 0))),
])
def test_sites_reached_nowhere_else(cls, code, call):
    with raises_code(cls, code):
        call()

