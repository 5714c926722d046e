"""Dataset profiles: fine-grained type taxonomies and manipulation categories.

Taxonomies differ per annotation source (one corpus tags predicates as
Action/Contact, another as Action/Interaction), so predicate and attribute
types, their vocabularies, and the manipulation categories built on them are
profile data rather than hard-coded enums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Mapping

from .documents import read_json, require, require_strings
from .errors import MalformedDocument, ProfileNotFound

METHODS = ("temporal", "neighborhood", "counterfactual")
TARGETS = ("predicate", "attribute")


@dataclass(frozen=True)
class ManipulationCategory:
    """One (method, target, fine type) combination, e.g. temporal.predicate.Action."""

    method: str
    target: str
    fine_type: str

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise MalformedDocument(f"unknown manipulation method {self.method!r}")
        if self.target not in TARGETS:
            raise MalformedDocument(f"unknown manipulation target {self.target!r}")
        if self.method == "neighborhood" and self.target != "attribute":
            raise MalformedDocument("neighborhood manipulation only targets attributes")
        if not self.fine_type:
            raise MalformedDocument("fine_type must be nonempty")

    @cached_property  # frozen but not slotted: the value lands in __dict__
    def key(self) -> str:
        return f"{self.method}.{self.target}.{self.fine_type}"

    @classmethod
    @lru_cache(maxsize=256)  # records and pairs name a few keys thousands of times
    def from_key(cls, key: str) -> ManipulationCategory:
        parts = key.split(".", 2)
        if len(parts) != 3:
            raise MalformedDocument(f"bad category key {key!r}, want method.target.fine_type")
        return cls(method=parts[0], target=parts[1], fine_type=parts[2])


@dataclass(frozen=True)
class DatasetProfile:
    """Licensed types and vocabularies plus the categories probed on them."""

    name: str
    predicate_types: tuple[str, ...]
    attribute_types: tuple[str, ...]
    vocab: Mapping[str, tuple[str, ...]]
    category_set: tuple[ManipulationCategory, ...]

    def __post_init__(self) -> None:
        declared = set(self.predicate_types) | set(self.attribute_types)
        if not declared:
            raise MalformedDocument("profile declares no types at all")
        if set(self.vocab) != declared:
            raise MalformedDocument(
                "vocab keys must exactly cover predicate and attribute types"
            )
        for type_name, values in self.vocab.items():
            if not values:
                raise MalformedDocument(f"empty vocabulary for type {type_name!r}")
            if len(set(values)) != len(values):
                raise MalformedDocument(f"duplicate values in {type_name!r} vocabulary")
        keys: set[str] = set()
        for cat in self.category_set:
            if cat.key in keys:
                raise MalformedDocument(f"categories lists {cat.key!r} more than once")
            keys.add(cat.key)
            allowed = self.predicate_types if cat.target == "predicate" else self.attribute_types
            if cat.fine_type not in allowed:
                raise MalformedDocument(
                    f"category {cat.key!r}: fine type not a {cat.target} type of this profile"
                )

    @cached_property
    def vocab_sets(self) -> dict[str, frozenset[str]]:
        """Membership sets; vocab order stays authoritative for sampling."""
        return {k: frozenset(v) for k, v in self.vocab.items()}

    def category(self, key: str) -> ManipulationCategory:
        for cat in self.category_set:
            if cat.key == key:
                return cat
        raise MalformedDocument(f"profile {self.name!r} declares no category {key!r}")


def _parse_category(raw: Any) -> ManipulationCategory:
    if isinstance(raw, str):
        return ManipulationCategory.from_key(raw)
    if not isinstance(raw, dict):
        raise MalformedDocument("category must be a key string or an object")
    return ManipulationCategory(*(require(raw, key, str) for key in ("method", "target", "fine_type")))


def parse_profile(document: Any) -> DatasetProfile:
    """Parse a profile document, as json.loads returns it."""
    vocab = require(document, "vocab", dict)
    return DatasetProfile(
        name=require(document, "name", str),
        predicate_types=require_strings(document, "predicate_types"),
        attribute_types=require_strings(document, "attribute_types"),
        vocab={type_name: require_strings(vocab, type_name) for type_name in vocab},
        category_set=tuple(map(_parse_category, require(document, "categories", list))),
    )


def load_profile(path: str) -> DatasetProfile:
    return read_json(path, ProfileNotFound(f"profile file not found: {path}"), parse_profile)

