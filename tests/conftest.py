from pathlib import Path

import pytest
from hypothesis import settings

from eventprobe.captions import default_templates
from eventprobe.scene_graph import load_scene_graph

from .helpers import default_profile

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_FILES = ("focker.json", "forrest.json", "kitchen.json")

# Property tests draw a fixed, bounded set of examples: the suite gives the
# same result on every run, needs no example database, and stays fast.
settings.register_profile(
    "eventprobe", deadline=None, derandomize=True, max_examples=40, database=None
)
settings.load_profile("eventprobe")


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def profile():
    return default_profile()


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
