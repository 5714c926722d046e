"""Nothing in the package lives only for its tests.

Every top-level function and class of `src/eventprobe` must be used by the
program: referenced from `src/` outside its own definition, named by the
benchmark harness in `perfbench/`, or imported by the acceptance tests,
which fix the public API. A name that only unit tests reach belongs in
`tests/helpers.py`.
"""

import ast
import re
from pathlib import Path

import eventprobe

PACKAGE = Path(eventprobe.__file__).parent
ROOT = Path(__file__).parent.parent

# README tells users to call it on their embeddings first.
ALLOWED = {"unit_normalize"}


def _used(node):
    """Every name node uses: a Name, an attribute or an imported name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rpartition(".")[2] for alias in sub.names)


def unreached(sources, known):
    """`module.name` for each top-level function or class, dunders aside,
    of the module sources (stem -> text) that no other top-level statement
    of any of them uses and that is not in known."""
    scopes = [
        (stem, statement, set(_used(statement)))
        for stem, text in sources.items()
        for statement in ast.parse(text).body
    ]
    found = []
    for stem, definition, _ in scopes:
        if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = definition.name
        if name.startswith("__") or name in known:
            continue
        if not any(name in used for _, statement, used in scopes if statement is not definition):
            found.append(f"{stem}.{name}")
    return found


def acceptance_api():
    """The names tests/test_acceptance.py imports from eventprobe."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "eventprobe"
        for alias in node.names
    }


def perfbench_words():
    text = "\n".join(path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py")))
    return set(re.findall(r"\w+", text))


def test_the_guard_sees_an_unused_name():
    sources = {
        "a": "def used():\n    return helper()\n\ndef helper():\n    return helper()\n\nclass Lone:\n    pass\n",
        "b": "from .a import used\n\ndef __getattr__(name):\n    return name\n\ndef kept():\n    pass\n",
    }
    assert unreached(sources, {"kept"}) == ["a.Lone"]


def test_every_package_name_is_used_by_the_program():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unreached(sources, perfbench_words() | acceptance_api() | ALLOWED) == []
