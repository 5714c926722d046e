"""Count-first probing agrees with listing every site.

Graphs are drawn with few entities, few distinct times and few values, so
pairs at the same time, with the same key, and with both, are all common
and every term of the site count's inclusion-exclusion is exercised. The
same graphs check that a counterfactual listing, which computes candidates
once per entity, lists exactly the slots with a usable candidate, each
carrying the candidates a naive scan of the graph gives, and that a
neighborhood listing lists exactly the tuples whose subject and object show
different values of the fine type. Every listing is checked through len,
iteration and indexing.
"""

import random
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from eventprobe.errors import ManipulationError
from eventprobe.manipulate import (
    AttributeObservation,
    CounterfactualSite,
    ManipulationRecord,
    NeighborhoodSite,
    TemporalSite,
    apply_corpus,
    apply_site,
    derive_seed,
    enumerate_candidates,
    temporal_attribute_swap,
    temporal_predicate_swap,
)
from .helpers import PROFILE, corpora, graphs, random_profile_corpus

PAIRWISE = tuple(c for c in PROFILE.category_set if c.method == "temporal")
COUNTERFACTUAL = tuple(c for c in PROFILE.category_set if c.method == "counterfactual")
NEIGHBORHOOD = tuple(c for c in PROFILE.category_set if c.method == "neighborhood")
# Only the two values the graphs draw from: a video can then hold every value
# of a type for one entity, which leaves that entity no candidate.
NARROW = replace(PROFILE, vocab={name: values[:2] for name, values in PROFILE.vocab.items()})


def _swap_applies(swap, *operands) -> bool:
    try:
        swap(*operands)
    except ManipulationError:
        return False
    return True


def first_index(attrs, fine_type):
    """The index of the first fine_type attribute, the one a caption shows;
    None if there is none."""
    return next((i for i, a in enumerate(attrs) if a.attr_type == fine_type), None)


def operator_sites(graph, category) -> list:
    """Every pair the category's swap operator accepts, as sites, ordered by
    their items' (tuple_id, attribute index); a predicate tuple is an item
    only when it has an object, which every predicate caption names, and an
    attribute only when it is its tuple's first of the fine type."""
    if category.target == "predicate":
        items = sorted(
            (t.tuple_id, t)
            for t in graph.tuples
            if t.predicate is not None and t.predicate.pred_type == category.fine_type and t.object is not None
        )
        return [
            TemporalSite(ida, None, idb, None)
            for (ida, a), (idb, b) in combinations(items, 2)
            if _swap_applies(temporal_predicate_swap, a, b)
        ]
    items = sorted(
        ((t.tuple_id, i), AttributeObservation(t.subject, t.subject_attrs[i], t.time))
        for t in graph.tuples
        if (i := first_index(t.subject_attrs, category.fine_type)) is not None
    )
    return [
        TemporalSite(*ka, *kb)
        for (ka, a), (kb, b) in combinations(items, 2)
        if _swap_applies(temporal_attribute_swap, a, b)
    ]


def neighborhood_sites(graph, category) -> list:
    """A site for every tuple whose subject and object each carry a fine_type
    attribute, their first of it (the one a caption shows) differing, by
    tuple_id. Only a tuple with an object carries object attributes."""
    sites = []
    for t in sorted(graph.tuples, key=lambda t: t.tuple_id):
        i = first_index(t.subject_attrs, category.fine_type)
        j = first_index(t.object_attrs, category.fine_type)
        if i is not None and j is not None and t.subject_attrs[i].value != t.object_attrs[j].value:
            sites.append(NeighborhoodSite(t.tuple_id))
    return sites


def truthful(graph, entity_id, fine_type, predicate) -> frozenset:
    """Every fine_type value the graph attributes to the entity: a predicate
    as its subject, an attribute in either role."""
    values = set()
    for tup in graph.tuples:
        if predicate:
            if (
                tup.subject.entity_id == entity_id
                and tup.predicate is not None
                and tup.predicate.pred_type == fine_type
            ):
                values.add(tup.predicate.value)
            continue
        if tup.subject.entity_id == entity_id:
            values.update(a.value for a in tup.subject_attrs if a.attr_type == fine_type)
        if tup.object is not None and tup.object.entity_id == entity_id:
            values.update(a.value for a in tup.object_attrs if a.attr_type == fine_type)
    return frozenset(values)


def slots(graph, profile, category) -> list:
    """(site, incumbent) for every counterfactual slot of the category (a
    predicate's only when its tuple has an object, an attribute's only when
    it is its tuple's first of the fine type), the site carrying the
    candidates a naive scan of the graph gives its subject, ordered by
    (tuple_id, attribute index)."""
    predicate = category.target == "predicate"
    found = []
    for t in graph.tuples:
        if predicate:
            here = [(None, t.predicate.value)] if (
                t.predicate is not None and t.predicate.pred_type == category.fine_type and t.object is not None
            ) else []
        else:
            i = first_index(t.subject_attrs, category.fine_type)
            here = [] if i is None else [(i, t.subject_attrs[i].value)]
        for idx, incumbent in here:
            exclusions = truthful(graph, t.subject.entity_id, category.fine_type, predicate)
            candidates = tuple(v for v in profile.vocab[category.fine_type] if v not in exclusions)
            found.append((CounterfactualSite(t.tuple_id, idx, candidates), incumbent))
    return sorted(found, key=lambda f: (f[0].tuple_id, -1 if f[0].attr_index is None else f[0].attr_index))


def usable_slots(graph, profile, category) -> list:
    """The sites of slots with a candidate besides the incumbent."""
    return [
        site
        for site, incumbent in slots(graph, profile, category)
        if [v for v in site.candidates if v != incumbent]
    ]


def listed_records(graphs, category, quota, seed, profile=PROFILE):
    """apply_corpus as walk-every-site, then sample ordinals."""
    category_seed = derive_seed(seed, category.method, category.target, category.fine_type)
    listed = [
        (graph, site)
        for graph in sorted(graphs, key=lambda g: g.video_id)
        for site in enumerate_candidates(graph, profile, category)
    ]
    if quota is None or quota >= len(listed):
        chosen = range(len(listed))
    else:
        picker = random.Random(category_seed)
        chosen = sorted(picker.sample(range(len(listed)), quota))
    records = []
    for ordinal in chosen:
        graph, site = listed[ordinal]
        record_seed = derive_seed(category_seed, ordinal)
        original, manipulated, pool_size = apply_site(
            graph, profile, category, site, random.Random(record_seed)
        )
        records.append(
            ManipulationRecord(
                record_id=f"{category.key}#{ordinal:04d}",
                category=category,
                video_id=graph.video_id,
                original=original,
                manipulated=manipulated,
                seed=record_seed,
                pool_size=pool_size,
            )
        )
    return records


def assert_lists(listing, expected):
    """The listing's length, iteration and indexing all give expected."""
    assert len(listing) == len(expected)
    assert list(listing) == expected
    assert [listing[ordinal] for ordinal in range(len(listing))] == expected
    with pytest.raises(IndexError):
        listing[len(listing)]


@given(graphs())
def test_count_equals_listed_sites(graph):
    for category in PAIRWISE:
        assert_lists(enumerate_candidates(graph, PROFILE, category), operator_sites(graph, category))


@given(graphs())
def test_counterfactual_listing_matches_pools(graph):
    for profile in (PROFILE, NARROW):
        for category in COUNTERFACTUAL:
            listed = enumerate_candidates(graph, profile, category)
            assert_lists(listed, usable_slots(graph, profile, category))


@given(graphs())
def test_neighborhood_listing_matches_operator(graph):
    for category in NEIGHBORHOOD:
        assert_lists(enumerate_candidates(graph, PROFILE, category), neighborhood_sites(graph, category))


@given(st.integers(0, 2**32), st.integers(1, 3))
def test_incumbent_is_an_exclusion_of_its_pool(seed, n_videos):
    """What per-entity candidates rest on: a slot's incumbent is a value its
    video gives the slot's entity, so it is never one of its candidates."""
    for profile in (PROFILE, NARROW):
        for graph in random_profile_corpus(random.Random(seed), profile, n_videos):
            for category in COUNTERFACTUAL:
                for site, incumbent in slots(graph, profile, category):
                    assert incumbent not in site.candidates
                for site in enumerate_candidates(graph, profile, category):
                    incumbent = (
                        graph.tuples_by_id[site.tuple_id].predicate.value
                        if site.attr_index is None
                        else graph.tuples_by_id[site.tuple_id].subject_attrs[site.attr_index].value
                    )
                    assert incumbent not in site.candidates


def test_quota_builds_only_drawn_sites(monkeypatch):
    """At quota 1 per category, apply_corpus builds one counterfactual or
    neighborhood site per record of that method, not one per listed site."""
    corpus = random_profile_corpus(random.Random(3), PROFILE, 12)
    quotas = {category.key: 1 for category in PROFILE.category_set}
    listed = Counter()
    for graph in corpus:
        for category in PROFILE.category_set:
            listed[category.method] += len(enumerate_candidates(graph, PROFILE, category))
    built = Counter()

    def counting(method, new):
        def __new__(cls, *args, **kwargs):
            built[method] += 1
            return new(cls, *args, **kwargs)
        return __new__

    for method, site in (("counterfactual", CounterfactualSite), ("neighborhood", NeighborhoodSite)):
        monkeypatch.setattr(site, "__new__", counting(method, site.__new__))
    drawn = Counter(record.category.method for record in apply_corpus(corpus, PROFILE, quotas, 7))
    for method in ("counterfactual", "neighborhood"):
        assert listed[method] > drawn[method] > 0
        assert built[method] == drawn[method]


@given(corpora, st.integers(0, 2**32))
def test_quota_runs_match_listing(corpus, seed):
    for profile in (PROFILE, NARROW):
        for category in profile.category_set:
            total = sum(len(enumerate_candidates(g, profile, category)) for g in corpus)
            quotas = sorted({q for q in (0, 1, total - 1, total) if q >= 0})
            for quota in (None, *quotas):
                caps = {} if quota is None else {category.key: quota}
                got = apply_corpus(corpus, profile, caps, seed, [category])
                assert got == listed_records(corpus, category, quota, seed, profile)

