"""The mutant table of tier-1: each row breaks one rule of the code, and
tier-1 must fail on every row that is not marked equivalent.

Run it from anywhere, with the interpreter that runs tier-1:

    python tests/mutants.py              # every row
    python tests/mutants.py NAME ...     # the named rows

The runner first runs tier-1 on an unchanged copy, which must pass. Then,
for each row, it copies src/, tests/, perfbench/ and pyproject.toml into a
temporary directory, replaces the row's `old` text, which must occur there
exactly once, by its `new` text, and runs tier-1 in that copy with -x, one
pytest process at a time. It writes nothing into the checkout. It exits 1
when a row expected killed survives, an equivalent row is killed, or a row
is stale (its `old` text is gone or not unique). Tier-1 does not run it:
pytest collects only test_*.py files.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
KILLED = "killed"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    expect: str  # KILLED, or "equivalent: <why no test can tell>"


MUTANTS = [
    Mutant(
        "candidates-keep-the-videos-values", "src/eventprobe/manipulate.py",
        "left = tuple(v for v in vocab if v not in values)", "left = tuple(vocab)", KILLED,
    ),
    Mutant(
        "optimistic-t2v-ties", "src/eventprobe/evaluate.py",
        "return (s[:, cols] >= s[rows, cols]).sum(axis=0)",
        "return (s[:, cols] > s[rows, cols]).sum(axis=0) + 1", KILLED,
    ),
    Mutant(
        "interval-end-before-start-accepted", "src/eventprobe/scene_graph.py",
        "if not (0 <= start_s <= end_s):", "if not 0 <= start_s:", KILLED,
    ),
    Mutant(
        "temporal-partners-ignore-the-key", "src/eventprobe/manipulate.py",
        "if tags[j][1] != time and tags[j][2] != key", "if tags[j][1] != time", KILLED,
    ),
    Mutant(
        "counterfactual-negative-protects-the-original", "src/eventprobe/captions.py",
        "claimed = {polarity: claims(record, polarity) for polarity",
        "claimed = {polarity: claims(record, POSITIVE) for polarity", KILLED,
    ),
    Mutant(
        "later-outputs-not-removed", "src/eventprobe/documents.py",
        "        for name in remove:\n", "        for name in ():\n", KILLED,
    ),
    Mutant(
        "config-digest-keeps-category-order", "src/eventprobe/pipeline.py",
        'doc["categories"] = sorted(self.categories)', 'doc["categories"] = list(self.categories)', KILLED,
    ),
    Mutant(
        "time-order-without-end-tie-break", "src/eventprobe/manipulate.py",
        "key=lambda t: (t.time.start_s, t.time.end_s, t.tuple_id)", "key=lambda t: (t.time.start_s, t.tuple_id)",
        KILLED,
    ),
    Mutant(
        "quota-of-every-site-draws", "src/eventprobe/manipulate.py",
        "if quota is None or quota >= total:", "if quota is None or quota > total:",
        "equivalent: a draw of every site keeps every site, in the same ascending order",
    ),
    Mutant(
        "temporal-second-value-unprotected", "src/eventprobe/captions.py",
        'else ("1", "2")', 'else ("1",)', KILLED,
    ),
    Mutant(
        "neighborhood-object-value-unprotected", "src/eventprobe/captions.py",
        'names = ("subject_attr", "object_attr")', 'names = ("subject_attr",)', KILLED,
    ),
    Mutant(
        "empty-pattern-accepted", "src/eventprobe/captions.py",
        '    if not pattern:\n        raise ValueError("pattern is empty")\n', "", KILLED,
    ),
    Mutant(
        "halves-tie-goes-to-the-second", "src/eventprobe/documents.py",
        "raise value if step <= their_step else their_value", "raise value if step < their_step else their_value",
        KILLED,
    ),
    Mutant(
        "in-child-forks-on-one-cpu", "src/eventprobe/documents.py",
        "len(os.sched_getaffinity(0)) >= 2", "len(os.sched_getaffinity(0)) >= 1", KILLED,
    ),
    Mutant(
        "in-child-never-forks", "src/eventprobe/documents.py",
        "len(os.sched_getaffinity(0)) >= 2", "len(os.sched_getaffinity(0)) >= 3", KILLED,
    ),
    Mutant(
        "collector-left-paused", "src/eventprobe/cli.py", "            gc.enable()\n", "            pass\n", KILLED,
    ),
    Mutant(
        "input-glob-may-list-outputs", "src/eventprobe/pipeline.py",
        "if _globbed(config.input_glob, out_dir / stage.output):", "if False:", KILLED,
    ),
    Mutant(
        "input-glob-star-crosses-slash", "src/eventprobe/pipeline.py",
        "return len(parts) == len(names) and all(",
        "return fnmatch.fnmatchcase(os.path.abspath(path), os.path.abspath(pattern)) or len(parts) == len(names) and all(",
        KILLED,
    ),
    Mutant(
        "attribute-list-unchecked", "src/eventprobe/scene_graph.py",
        "    if not isinstance(raw, list):\n        raise MalformedDocument(f\"tuple {tuple_id!r}: attribute list expected\")\n",
        "", KILLED,
    ),
]


def copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "_work", "_out")
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=ignore)
        else:
            shutil.copy2(ROOT / name, dest / name)


def apply(root: Path, mutant: Mutant) -> bool:
    """Apply mutant in the copy at root; False if its old text does not
    occur exactly once."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def tier1(root: Path) -> str | None:
    """Run tier-1 in the copy at root, stopping at the first failure: None
    if it passes, else pytest's line naming what failed."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    done = subprocess.run(argv, cwd=root, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    lines = done.stdout.splitlines()
    named = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return (named or lines[-1:] or [f"pytest exited {done.returncode}"])[0]


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {mutant.name for mutant in MUTANTS})
    if unknown:
        print(f"no such row: {', '.join(unknown)}", file=sys.stderr)
        return 2
    rows = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    with tempfile.TemporaryDirectory(prefix="eventprobe-mutants-") as tmp:
        base = Path(tmp) / "unchanged"
        copy_checkout(base)
        failed = tier1(base)
        if failed:
            print(f"tier-1 fails on the unchanged code, so no row can be judged: {failed}")
            return 1
        wrong = 0
        for mutant in rows:
            work = Path(tmp) / mutant.name
            copy_checkout(work)
            started = time.perf_counter()
            if apply(work, mutant):
                failed = tier1(work)
                outcome = f"killed ({failed})" if failed else "survived"
                expected = bool(failed) == (mutant.expect == KILLED)
            else:
                outcome, expected = f"stale: {mutant.file} does not hold its old text exactly once", False
            shutil.rmtree(work)
            wrong += not expected
            note = "" if mutant.expect == KILLED else f" [{mutant.expect}]"
            print(f"{'ok ' if expected else 'BAD'} {mutant.name}: {outcome}{note}"
                  f" in {time.perf_counter() - started:.1f} s", flush=True)
    print(f"{len(rows) - wrong} of {len(rows)} rows as the table expects")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
