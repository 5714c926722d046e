import os
from pathlib import Path

import pytest
from hypothesis import settings

from eventprobe.captions import default_templates
from eventprobe.scene_graph import load_scene_graph

from .helpers import CORPUS_FILES, FIXTURES, PROFILE, Workspace

# Property tests draw a fixed, bounded set of examples: the suite gives the
# same result on every run, needs no example database, and stays fast.
settings.register_profile(
    "eventprobe", deadline=None, derandomize=True, max_examples=40, database=None
)
settings.load_profile("eventprobe")


@pytest.fixture(autouse=True)
def one_cpu(monkeypatch):
    """Every test sees one usable CPU, so no command forks; a test that
    wants a child asks for two CPUs, as test_cli.with_cpus does."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def profile():
    return PROFILE


@pytest.fixture()
def ws(tmp_path):
    """A Workspace over the fixture corpus in tmp_path."""
    return Workspace(tmp_path)


@pytest.fixture(scope="session")
def templates():
    return default_templates()


@pytest.fixture(scope="session")
def corpus():
    return [load_scene_graph(str(FIXTURES / name)) for name in CORPUS_FILES]


@pytest.fixture(scope="session")
def forrest():
    return load_scene_graph(str(FIXTURES / "forrest.json"))


@pytest.fixture(scope="session")
def kitchen():
    return load_scene_graph(str(FIXTURES / "kitchen.json"))


@pytest.fixture(scope="session")
def focker():
    return load_scene_graph(str(FIXTURES / "focker.json"))
