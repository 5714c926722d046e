"""The byte ledger: generated corpora and the bytes `run` makes of them.

Each row names a corpus by the arguments of the benchmark's generator,
`perfbench/gen.write_corpus`, and its seed, and pins the sha256 of the
three JSONL outputs of `run` over it on one CPU. A change that moves these
bytes changes its rows in the same diff. The generator's draw is part of the
pinned bytes: `random.Random` promises the same sequence across Python
versions only for `random()`, so when a row breaks on another Python while
the fixtures' pinned bytes hold, look at gen.py first.
"""

import hashlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from eventprobe.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OUTPUTS = ("graphs.jsonl", "records.jsonl", "benchmark.jsonl")

# (workload, (videos, tuples per video, quota per category), seed, the sha256
# of each of OUTPUTS)
LEDGER = [
    ("stages-wide", (30, 20, None), 7, (
        "aba25f6e3a666ee47661cc338d7913a6e932a34df3cd58f85e48259378693801",
        "369ca69bf2c0e399bfaef05c9c52f17a11ccc87201727c97292c379358454631",
        "8dc1406c7aa9aa6ff64ec09489e41d633e3ab0653cac3a4c460022b5ea4fdfd0",
    )),
    ("probe-dense", (20, 200, 50), 7, (
        "4e793e7008582ac178217050c83e4f5e3e1d895c36ef44c509772e21ee35b882",
        "b044e840b823d112cff0648acedb444514477fddf6071ce476aa1563f4014b80",
        "19dfd8998bd8d63d27d9875d548aa85be042cfe5c5c59606b66b96729092f94b",
    )),
]


def load(name):
    """perfbench/<name>.py as a module, loaded from its file unchanged."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gen():
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "worker", load("worker"))  # gen.py imports it by that name
        return load("gen")


@pytest.mark.parametrize("workload, arguments, seed, digests", LEDGER, ids=[row[0] for row in LEDGER])
def test_a_generated_corpus_gives_the_ledgers_bytes(gen, tmp_path, capsys, workload, arguments, seed, digests):
    config = gen.write_corpus(random.Random(seed), tmp_path, *arguments, seed)["config"]
    assert main(["run", "--config", config]) == 0
    assert [hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in OUTPUTS] == list(digests)
