"""Value types are tuples checked in their own __new__.

Event tuples, records, sites and captions are tuple types whose __new__
runs every check. `_make`, `_replace` and `tuple.__new__` build a tuple
without calling it, so the program never uses them outside a value type's
own __new__: every value, parsed or derived, passes the same checks.
"""

import ast
from pathlib import Path

import pytest

import eventprobe
from eventprobe.captions import Caption, CaptionPair
from eventprobe.errors import MalformedDocument
from eventprobe.manipulate import ManipulationRecord, _derived
from eventprobe.profiles import ManipulationCategory
from eventprobe.scene_graph import AttributeValue, EntityRef, EventTuple, TimeInterval

from .helpers import attr, entity, make_tuple, span

BYPASSES = {"_make", "_replace"}


def _bypasses(tree):
    """(where, what) for each use of _make, _replace or dataclasses.replace,
    and each tuple.__new__ outside the __new__ of a class."""
    own_new = {
        id(node)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__new__"
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = f"{node.value.id}.{node.attr}" if isinstance(node.value, ast.Name) else node.attr
            if node.attr in BYPASSES or name == "dataclasses.replace" or (
                name == "tuple.__new__" and id(node) not in own_new
            ):
                found.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.extend((node.lineno, "dataclasses.replace") for a in node.names if a.name == "replace")
    return found


def test_the_guard_sees_each_bypass():
    source = (
        "from dataclasses import replace\n"
        "import dataclasses\n"
        "class V(tuple):\n"
        "    def __new__(cls, a):\n"
        "        return tuple.__new__(cls, (a,))\n"
        "def f(v, pair):\n"
        "    dataclasses.replace(pair, text='x')\n"
        "    v.a._replace(a=1)\n"
        "    type(v)._make([1])\n"
        "    return tuple.__new__(type(v), (2,))\n"
    )
    assert sorted(_bypasses(ast.parse(source))) == [
        (1, "dataclasses.replace"), (7, "dataclasses.replace"), (8, "_replace"), (9, "_make"),
        (10, "tuple.__new__"),
    ]


def test_no_value_is_built_around_its_checks():
    package = Path(eventprobe.__file__).parent
    offenders = [
        f"{source.stem}:{line} uses {what}"
        for source in sorted(package.glob("*.py"))
        for line, what in _bypasses(ast.parse(source.read_text(encoding="utf-8")))
    ]
    assert offenders == []


CATEGORY = ManipulationCategory.from_key("temporal.predicate.Action")
TUPLE = make_tuple("t1", entity("e1", "kite"), attrs=(attr("red"),), time=span(1.0, 2.0))
MOVED = make_tuple("t1", entity("e1", "kite"), attrs=(attr("red"),), time=span(3.0, 4.0))
CAPTION = Caption("a red kite", "template")
VALID = {
    EntityRef: entity("e1", "kite"),
    TimeInterval: span(1.0, 2.0),
    EventTuple: TUPLE,
    ManipulationRecord: ManipulationRecord("r1", CATEGORY, "v", (TUPLE,), (MOVED,), 7),
    Caption: CAPTION,
    CaptionPair: CaptionPair("p1", "v", CATEGORY, CAPTION, Caption("a blue kite", "template")),
}

# (case, type, fields replaced in its valid value, error class, message): every
# rule a value type checks, with the message it has always given.
INVALID = [
    ("entity-id-empty", EntityRef, {"entity_id": ""}, MalformedDocument, "entity_id must be nonempty"),
    ("interval-reversed", TimeInterval, {"start_s": 3.0}, MalformedDocument, "invalid interval [3.0, 2.0]"),
    ("interval-negative", TimeInterval, {"start_s": -1.0}, MalformedDocument, "invalid interval [-1.0, 2.0]"),
    ("tuple-no-predicate-no-attributes", EventTuple, {"subject_attrs": ()}, MalformedDocument,
     "tuple 't1' has neither predicate nor subject attributes"),
    ("tuple-object-attributes-no-object", EventTuple, {"object_attrs": (AttributeValue("blue", "Color"),)},
     MalformedDocument, "tuple 't1' carries object attributes without an object"),
    ("record-no-tuple", ManipulationRecord, {"original": (), "manipulated": ()}, MalformedDocument,
     "record 'r1' holds no tuple"),
    ("record-counts-differ", ManipulationRecord, {"manipulated": (MOVED, MOVED)}, MalformedDocument,
     "original/manipulated tuple counts differ"),
    ("record-unchanged", ManipulationRecord, {"manipulated": (TUPLE,)}, MalformedDocument,
     "record 'r1': manipulation left a tuple unchanged"),
    ("caption-empty", Caption, {"text": ""}, MalformedDocument, "caption text must be nonempty"),
    ("caption-renderer", Caption, {"renderer": "human"}, MalformedDocument, "bad renderer 'human'"),
    ("pair-identical", CaptionPair, {"negative": CAPTION}, MalformedDocument, "pair 'p1': captions are identical"),
]


@pytest.mark.parametrize("kind, fields, error, message", [case[1:] for case in INVALID],
                         ids=[case[0] for case in INVALID])
@pytest.mark.parametrize("build", ["constructor", "derived"])
def test_each_rule_holds_however_a_value_is_built(build, kind, fields, error, message):
    valid = VALID[kind]
    with pytest.raises(error) as raised:
        if build == "constructor":
            kind(**{**valid._asdict(), **fields})
        else:
            _derived(valid, **fields)
    assert type(raised.value) is error and str(raised.value) == message


def test_derived_names_only_fields():
    with pytest.raises(TypeError, match="EventTuple has no field colour"):
        _derived(TUPLE, colour="red")
