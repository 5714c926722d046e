import json
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from eventprobe.captions import render_pair
from eventprobe.errors import MalformedDocument, ManipulationError
from eventprobe.manipulate import (
    AttributeObservation,
    ManipulationRecord,
    TemporalSite,
    _derived,
    apply_corpus,
    apply_site,
    counterfactual_substitute,
    enumerate_candidates,
    neighborhood_attribute_swap,
    records_from_jsonl,
    records_to_jsonl,
    temporal_attribute_swap,
    temporal_predicate_swap,
    time_order,
)
from eventprobe.profiles import ManipulationCategory, parse_profile
from eventprobe.scene_graph import TUPLE_FIELDS, SceneGraph

from .helpers import (
    PROFILE,
    attr,
    corpora,
    entity,
    json_line,
    make_tuple,
    pred,
    random_neighborhood_tuple,
    random_observation_pair,
    random_predicate_pair,
    random_profile_corpus,
    record_to_doc,
    span,
)


class TestTemporalPredicateSwap:
    def test_times_exchanged(self):
        knife = make_tuple(
            "t1",
            entity("e1", "knife"),
            attrs=(attr("silver"), attr("metal", "Material")),
            predicate=pred("sliding"),
            time=span(2, 4),
        )
        oven = make_tuple(
            "t2", entity("e2", "oven"), attrs=(attr("white"),),
            predicate=pred("opened"), time=span(10, 12),
        )
        s1, s2 = temporal_predicate_swap(knife, oven)
        assert s1.time == span(10, 12) and s2.time == span(2, 4)
        assert s1.predicate == knife.predicate
        assert s1.subject_attrs == knife.subject_attrs
        assert s2.predicate == oven.predicate

    def test_same_timestamp(self):
        e1 = make_tuple("t1", entity("e1"), predicate=pred("a"), time=span(0, 5))
        e2 = make_tuple("t2", entity("e2"), predicate=pred("b"), time=span(0, 5))
        with pytest.raises(ManipulationError, match="^both events span "):
            temporal_predicate_swap(e1, e2)

    def test_type_mismatch(self):
        e1 = make_tuple("t1", entity("e1"), predicate=pred("a", "Action"), time=span(0, 5))
        e2 = make_tuple("t2", entity("e2"), predicate=pred("b", "Contact"), time=span(6, 8))
        with pytest.raises(ManipulationError, match="^predicate types differ: Action vs Contact$"):
            temporal_predicate_swap(e1, e2)

    def test_missing_predicate(self):
        e1 = make_tuple("t1", entity("e1"), attrs=(attr("red"),), time=span(0, 5))
        e2 = make_tuple("t2", entity("e2"), predicate=pred("b"), time=span(6, 8))
        with pytest.raises(ManipulationError, match="^both tuples must carry a predicate$"):
            temporal_predicate_swap(e1, e2)

    def test_identical_keys(self):
        e1 = make_tuple("t1", entity("e1"), predicate=pred("a"), time=span(0, 5))
        e2 = make_tuple("t2", entity("e1"), predicate=pred("a"), time=span(6, 8))
        with pytest.raises(ManipulationError, match="^tuples share one key; swapping their times changes nothing$"):
            temporal_predicate_swap(e1, e2)

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(50):
            e1, e2 = random_predicate_pair(rng)
            s1, s2 = temporal_predicate_swap(e1, e2)
            assert temporal_predicate_swap(s1, s2) == (e1, e2)


class TestTemporalAttributeSwap:
    def test_bike_colors(self):
        # Yellow bike early, black bike late; the swap reverses the story.
        bike = entity("e1", "bike")
        o1 = AttributeObservation(bike, attr("yellow"), span(0, 5))
        o2 = AttributeObservation(bike, attr("black"), span(20, 25))
        r1, r2 = temporal_attribute_swap(o1, o2)
        assert r1 == AttributeObservation(bike, attr("black"), span(0, 5))
        assert r2 == AttributeObservation(bike, attr("yellow"), span(20, 25))

    def test_no_observable_change(self):
        bike = entity("e1", "bike")
        o1 = AttributeObservation(bike, attr("black"), span(0, 5))
        o2 = AttributeObservation(bike, attr("black"), span(20, 25))
        with pytest.raises(ManipulationError, match="^both observations read 'black'$"):
            temporal_attribute_swap(o1, o2)

    def test_subject_mismatch(self):
        o1 = AttributeObservation(entity("e1", "bike"), attr("yellow"), span(0, 5))
        o2 = AttributeObservation(entity("e2", "car"), attr("black"), span(20, 25))
        with pytest.raises(ManipulationError, match="^observations belong to 'e1' and 'e2'$"):
            temporal_attribute_swap(o1, o2)

    def test_type_mismatch(self):
        bike = entity("e1", "bike")
        o1 = AttributeObservation(bike, attr("yellow", "Color"), span(0, 5))
        o2 = AttributeObservation(bike, attr("metal", "Material"), span(20, 25))
        with pytest.raises(ManipulationError, match="^attribute types differ: Color vs Material$"):
            temporal_attribute_swap(o1, o2)

    def test_same_interval(self):
        bike = entity("e1", "bike")
        o1 = AttributeObservation(bike, attr("yellow"), span(0, 5))
        o2 = AttributeObservation(bike, attr("black"), span(0, 5))
        with pytest.raises(ManipulationError, match="^both observations span "):
            temporal_attribute_swap(o1, o2)

    def test_involution(self):
        rng = random.Random(8)
        for _ in range(50):
            o1, o2 = random_observation_pair(rng)
            r1, r2 = temporal_attribute_swap(o1, o2)
            assert temporal_attribute_swap(r1, r2) == (o1, o2)


class TestNeighborhoodSwap:
    def test_smoke_ring_and_pipe(self):
        tup = make_tuple(
            "t1",
            entity("e1", "smoke ring"),
            attrs=(attr("white"),),
            obj=entity("e2", "pipe"),
            obj_attrs=(attr("brown"),),
        )
        swapped = neighborhood_attribute_swap(tup)
        assert swapped.subject_attrs == (attr("brown"),)
        assert swapped.object_attrs == (attr("white"),)
        assert swapped.subject == tup.subject and swapped.object == tup.object

    def test_no_object(self):
        tup = make_tuple("t1", entity("e1"), attrs=(attr("white"),))
        with pytest.raises(ManipulationError, match="^tuple 't1' has no object$"):
            neighborhood_attribute_swap(tup)

    def test_no_shared_type(self):
        tup = make_tuple(
            "t1",
            entity("e1"),
            attrs=(attr("white", "Color"),),
            obj=entity("e2"),
            obj_attrs=(attr("metal", "Material"),),
        )
        with pytest.raises(ManipulationError, match="^tuple 't1' has no shared-type subject/object attribute pair$"):
            neighborhood_attribute_swap(tup)

    def test_equal_values(self):
        tup = make_tuple(
            "t1",
            entity("e1"),
            attrs=(attr("white"),),
            obj=entity("e2"),
            obj_attrs=(attr("white"),),
        )
        with pytest.raises(ManipulationError, match="^tuple 't1': all shared-type attribute pairs hold equal values$"):
            neighborhood_attribute_swap(tup)

    def test_type_filter(self):
        tup = make_tuple(
            "t1",
            entity("e1"),
            attrs=(attr("white", "Color"), attr("metal", "Material")),
            obj=entity("e2"),
            obj_attrs=(attr("brown", "Color"), attr("wood", "Material")),
        )
        swapped = neighborhood_attribute_swap(tup, attr_type="Material")
        assert swapped.subject_attrs == (attr("white", "Color"), attr("wood", "Material"))
        assert swapped.object_attrs == (attr("brown", "Color"), attr("metal", "Material"))

    def test_tie_breaks_on_first_sorted_pair(self):
        # Color sorts before Material, so Color gets swapped.
        tup = make_tuple(
            "t1",
            entity("e1"),
            attrs=(attr("metal", "Material"), attr("white", "Color")),
            obj=entity("e2"),
            obj_attrs=(attr("wood", "Material"), attr("brown", "Color")),
        )
        swapped = neighborhood_attribute_swap(tup)
        assert swapped.subject_attrs == (attr("metal", "Material"), attr("brown", "Color"))

    def test_swaps_the_attributes_captions_show(self):
        # Only each side's first Color is shown, so red is never swapped.
        tup = make_tuple(
            "t1",
            entity("e1"),
            attrs=(attr("white"), attr("red")),
            obj=entity("e2"),
            obj_attrs=(attr("brown"), attr("white")),
        )
        swapped = neighborhood_attribute_swap(tup)
        assert swapped.subject_attrs == (attr("brown"), attr("red"))
        assert swapped.object_attrs == (attr("white"), attr("white"))
        same_first = make_tuple(
            "t2",
            entity("e1"),
            attrs=(attr("white"), attr("red")),
            obj=entity("e2"),
            obj_attrs=(attr("white"), attr("brown")),
        )
        with pytest.raises(ManipulationError, match="^tuple 't2': all shared-type attribute pairs hold equal values$"):
            neighborhood_attribute_swap(same_first)

    def test_involution(self):
        rng = random.Random(9)
        for _ in range(50):
            tup = random_neighborhood_tuple(rng)
            assert neighborhood_attribute_swap(neighborhood_attribute_swap(tup)) == tup


COLORS = ("yellow", "black", "white", "shiny", "red", "blue")


class TestCounterfactualSubstitute:
    def test_parked_bike_gets_false_color(self):
        bike = make_tuple(
            "t1", entity("e1", "bike"), attrs=(attr("black"),),
            predicate=pred("parks"), time=span(0, 5),
        )
        candidates = tuple(v for v in COLORS if v != "black")
        result = counterfactual_substitute(bike, "Color", 0, candidates, random.Random(3))
        new_value = result.subject_attrs[0].value
        assert new_value in candidates
        assert result.subject_attrs[0].attr_type == "Color"
        assert result.predicate == bike.predicate

    def test_deterministic_given_seed(self):
        bike = make_tuple("t1", entity("e1", "bike"), attrs=(attr("black"),))
        first = counterfactual_substitute(bike, "Color", 0, COLORS, random.Random(11))
        second = counterfactual_substitute(bike, "Color", 0, COLORS, random.Random(11))
        assert first == second

    def test_incumbent_never_sampled(self):
        bike = make_tuple("t1", entity("e1", "bike"), attrs=(attr("black"),))
        for seed in range(50):
            result = counterfactual_substitute(bike, "Color", 0, COLORS, random.Random(seed))
            assert result.subject_attrs[0].value != "black"

    def test_empty_pool(self):
        bike = make_tuple("t1", entity("e1", "bike"), attrs=(attr("black"),))
        for candidates in ((), ("black",)):
            with pytest.raises(ManipulationError, match="^no usable Color candidate for tuple 't1'$"):
                counterfactual_substitute(bike, "Color", 0, candidates, random.Random(0))

    def test_slot_absent(self):
        bike = make_tuple("t1", entity("e1", "bike"), attrs=(attr("black"),))
        for fine_type, attr_index in (("Color", None), ("Color", 1), ("Material", 0)):
            with pytest.raises(ManipulationError, match=f"^tuple 't1' has no {fine_type} (predicate|subject attribute at index {attr_index})$"):
                counterfactual_substitute(bike, fine_type, attr_index, COLORS, random.Random(0))


def two_color_profile():
    return parse_profile(
        {
            "name": "two-color",
            "predicate_types": ["Action"],
            "attribute_types": ["Color"],
            "vocab": {
                "Action": ["runs", "sits", "naps"],
                "Color": ["yellow", "black", "red", "blue"],
            },
            "categories": [
                "temporal.attribute.Color",
                "counterfactual.attribute.Color",
                "counterfactual.predicate.Action",
            ],
        }
    )


def bike_graph():
    bike = entity("e1", "bike")
    return SceneGraph(
        video_id="v-bike",
        duration_s=60.0,
        entities=(bike,),
        tuples=(
            make_tuple("t1", bike, attrs=(attr("yellow"),), time=span(0, 5)),
            make_tuple("t2", bike, attrs=(attr("black"),), time=span(20, 25)),
        ),
    )


def site_candidates(graph, profile, category_key, tuple_id):
    """The candidates of the category's listed site at tuple_id."""
    sites = enumerate_candidates(graph, profile, ManipulationCategory.from_key(category_key))
    (candidates,) = [site.candidates for site in sites if site.tuple_id == tuple_id]
    return candidates


class TestBuildPool:
    """The candidates each listed counterfactual site carries."""

    def test_exclusions_cover_all_truthful_values(self):
        # Hand enumeration: bike is yellow and black over time, so from the
        # vocabulary {yellow, black, red, blue} only {red, blue} is usable.
        graph = bike_graph()
        candidates = site_candidates(graph, two_color_profile(), "counterfactual.attribute.Color", "t1")
        assert candidates == ("red", "blue")

    def test_entity_without_attribute_type(self):
        dog, ball = entity("e1", "dog"), entity("e2", "ball")
        graph = SceneGraph(
            "v", 10.0, (dog, ball), (make_tuple("t1", dog, predicate=pred("runs"), obj=ball),)
        )
        candidates = site_candidates(graph, two_color_profile(), "counterfactual.predicate.Action", "t1")
        assert candidates == ("sits", "naps")
        graph2 = SceneGraph(
            "v", 10.0, (dog,), (make_tuple("t1", dog, attrs=(attr("yellow"),)),)
        )
        candidates2 = site_candidates(graph2, two_color_profile(), "counterfactual.attribute.Color", "t1")
        assert candidates2 == ("black", "red", "blue")

    def test_object_attrs_count_as_truthful(self):
        dog, bed = entity("e1", "dog"), entity("e2", "bed")
        graph = SceneGraph(
            "v",
            10.0,
            (dog, bed),
            (
                make_tuple(
                    "t1", dog, predicate=pred("naps"), obj=bed,
                    obj_attrs=(attr("blue"),),
                ),
                make_tuple("t2", bed, attrs=(attr("red"),), time=span(2, 3)),
            ),
        )
        candidates = site_candidates(graph, two_color_profile(), "counterfactual.attribute.Color", "t2")
        # bed is blue (as object) and red (as subject); both are excluded.
        assert candidates == ("yellow", "black")

    def test_unknown_type(self):
        category = ManipulationCategory("counterfactual", "attribute", "Sound")
        with pytest.raises(ManipulationError, match="^fine type 'Sound' not in profile "):
            enumerate_candidates(bike_graph(), two_color_profile(), category)

    def test_exhausted_vocab_leads_to_empty_pool(self):
        profile = parse_profile(
            {
                "name": "cramped",
                "predicate_types": ["Action"],
                "attribute_types": ["Color"],
                "vocab": {"Action": ["runs"], "Color": ["yellow", "black"]},
                "categories": [],
            }
        )
        graph = bike_graph()
        category = ManipulationCategory.from_key("counterfactual.attribute.Color")
        assert list(enumerate_candidates(graph, profile, category)) == []
        # The bike's slots would carry no candidate: every value is truthful.
        with pytest.raises(ManipulationError, match="^no usable Color candidate for tuple "):
            counterfactual_substitute(graph.tuples[0], "Color", 0, (), random.Random(0))


class TestEnumerate:
    def test_two_action_tuples_one_temporal_site(self, kitchen, profile):
        category = ManipulationCategory("temporal", "predicate", "Action")
        sites = enumerate_candidates(kitchen, profile, category)
        assert len(sites) == 1
        assert list(sites) == [TemporalSite("k1", None, "k2", None)]

    def test_apply_site_rejects_what_is_not_a_site(self, kitchen, profile):
        category = ManipulationCategory("temporal", "predicate", "Action")
        with pytest.raises(ManipulationError, match=r"^unsupported site \('k1', 'k2'\)$"):
            apply_site(kitchen, profile, category, ("k1", "k2"), None)

    def test_single_tuple_no_temporal_sites(self, profile):
        dog = entity("e1", "dog")
        graph = SceneGraph(
            "v", 10.0, (dog,), (make_tuple("t1", dog, predicate=pred("slices")),)
        )
        category = ManipulationCategory("temporal", "predicate", "Action")
        assert len(enumerate_candidates(graph, profile, category)) == 0

    def test_tuple_without_object_no_neighborhood_sites(self, profile):
        dog = entity("e1", "dog")
        graph = SceneGraph(
            "v", 10.0, (dog,), (make_tuple("t1", dog, attrs=(attr("white"),)),)
        )
        category = ManipulationCategory("neighborhood", "attribute", "Color")
        assert list(enumerate_candidates(graph, profile, category)) == []

    def test_frame_invariance(self, corpus, profile):
        for graph in corpus:
            permuted = SceneGraph(
                video_id=graph.video_id,
                duration_s=graph.duration_s,
                entities=graph.entities,
                tuples=tuple(reversed(graph.tuples)),
            )
            for category in profile.category_set:
                assert list(enumerate_candidates(graph, profile, category)) == \
                    list(enumerate_candidates(permuted, profile, category))


class TestApply:
    def test_deterministic(self, corpus, profile):
        first = apply_corpus(corpus, profile, {}, 42)
        second = apply_corpus(corpus, profile, {}, 42)
        assert first == second
        assert records_to_jsonl(first) == records_to_jsonl(second)

    def test_quota_caps_selection(self):
        profile = two_color_profile()
        entities = tuple(entity(f"e{i}", f"thing{i}") for i in range(5))
        tuples = tuple(
            make_tuple(f"t{i}", entities[i], attrs=(attr("yellow"),), time=span(i, i + 1))
            for i in range(5)
        )
        graph = SceneGraph("v", 30.0, entities, tuples)
        category_key = "counterfactual.attribute.Color"
        records = apply_corpus([graph], profile, {category_key: 2}, 7)
        per_category = [r for r in records if r.category.key == category_key]
        assert len(per_category) == 2

    def test_empty_graph(self, profile):
        graph = SceneGraph("v", 10.0, (entity("e1"),), ())
        assert apply_corpus([graph], profile, {}, 42) == []

    def test_quota_on_one_category_leaves_others_stable(self, corpus, profile):
        baseline = apply_corpus(corpus, profile, {}, 42)
        capped = apply_corpus(
            corpus, profile, {"counterfactual.attribute.Color": 1}, 42
        )
        key = "counterfactual.attribute.Color"
        assert len([r for r in capped if r.category.key == key]) == 1
        others_baseline = [r for r in baseline if r.category.key != key]
        others_capped = [r for r in capped if r.category.key != key]
        assert others_baseline == others_capped

    def test_falsity_and_type_preserved(self, corpus, profile):
        records = apply_corpus(corpus, profile, {}, 42)
        by_video = {g.video_id: g for g in corpus}
        for record in records:
            if record.category.method != "counterfactual":
                continue
            graph = by_video[record.video_id]
            orig, manip = record.original[0], record.manipulated[0]
            if record.category.target == "predicate":
                truthful = {
                    t.predicate.value
                    for t in graph.tuples
                    if t.predicate is not None
                    and t.subject.entity_id == orig.subject.entity_id
                    and t.predicate.pred_type == record.category.fine_type
                }
                assert manip.predicate.value not in truthful
                assert manip.predicate.pred_type == orig.predicate.pred_type
            else:
                changed = [
                    (o, m)
                    for o, m in zip(orig.subject_attrs, manip.subject_attrs)
                    if o != m
                ]
                assert len(changed) == 1
                old, new = changed[0]
                assert new.attr_type == old.attr_type == record.category.fine_type

    def test_records_jsonl_round_trip(self, corpus, profile):
        records = apply_corpus(corpus, profile, {}, 42)
        assert records_from_jsonl(records_to_jsonl(records), corpus, "records.jsonl") == records

    def test_record_lines_carry_only_changed_fields(self, corpus, profile):
        records = apply_corpus(corpus, profile, {}, 42)
        lines = records_to_jsonl(records).splitlines()
        assert len(lines) == len(records)
        for record, line in zip(records, lines):
            doc = json.loads(line)
            assert doc["format"] == 2 and "original" not in doc
            assert doc["source_tuple_ids"] == list(record.source_tuple_ids)
            for orig, manip, change in zip(record.original, record.manipulated, doc["manipulated"]):
                assert change["tuple_id"] == orig.tuple_id
                changed = {name for name in TUPLE_FIELDS if getattr(orig, name) != getattr(manip, name)}
                assert set(change) == {"tuple_id", *changed} and changed

    def test_a_new_video_shifts_later_ids_and_redraws_their_counterfactuals(
        self, corpus, forrest, profile, templates
    ):
        """Records are numbered over the corpus in video_id order and seeded
        by that number, so a video that sorts first shifts the ids of the
        videos after it, and some of their counterfactual foils change.
        Temporal and neighborhood foils draw nothing and keep their text."""

        def pairs(graphs):
            return [render_pair(r, templates) for r in apply_corpus(graphs, profile, {}, 42)]

        grown = pairs([*corpus, SceneGraph("aaa0000", forrest.duration_s, forrest.entities, forrest.tuples)])
        added = Counter(p.category.key for p in grown if p.video_id == "aaa0000")
        before, after = pairs(corpus), [p for p in grown if p.video_id != "aaa0000"]
        assert len(after) == len(before)
        redrawn = []
        for old, new in zip(before, after):
            assert (new.category, new.video_id, new.positive) == (old.category, old.video_id, old.positive)
            old_ordinal, new_ordinal = (int(p.pair_id.split("#")[1]) for p in (old, new))
            assert new_ordinal == old_ordinal + added[old.category.key]
            if old.category.method == "counterfactual":
                redrawn.append(new.negative != old.negative)
            else:
                assert new.negative == old.negative
        assert any(redrawn) and any(added[p.category.key] for p in before)

    def test_a_record_cannot_change_a_tuples_subject(self, kitchen):
        tup = kitchen.tuples_by_id["k1"]
        other = next(e for e in kitchen.entities if e != tup.subject)
        record = ManipulationRecord(
            "r", ManipulationCategory.from_key("temporal.predicate.Action"), kitchen.video_id,
            (tup,), (_derived(tup, subject=other),), 7,
        )
        with pytest.raises(MalformedDocument, match=(
            "^tuple 'k1': a record only changes subject_attrs, predicate, object_attrs, time$"
        )):
            records_to_jsonl([record])

    def test_a_record_that_drops_a_predicate_round_trips(self, kitchen):
        """A tuple with subject attributes may lose its predicate; the record
        writes it as null, as json.dumps would, and reads it back."""
        tup = kitchen.tuples_by_id["k3"]
        record = ManipulationRecord(
            "r", ManipulationCategory.from_key("counterfactual.predicate.Contact"), kitchen.video_id,
            (tup,), (_derived(tup, predicate=None),), 7,
        )
        text = records_to_jsonl([record])
        assert text == json_line(record_to_doc(record)) and '"predicate":null' in text
        assert records_from_jsonl(text, [kitchen], "records.jsonl") == [record]


def test_time_order_breaks_a_start_tie_by_end_time():
    """Tuples that start together go in end order, before tuple_id order."""
    ends_late = make_tuple("t0", entity("e0"), attrs=(attr("red"),), time=span(1.0, 5.0))
    ends_early = make_tuple("t1", entity("e1"), attrs=(attr("red"),), time=span(1.0, 2.0))
    same_span = make_tuple("t2", entity("e2"), attrs=(attr("red"),), time=span(1.0, 2.0))
    assert time_order([same_span, ends_late, ends_early]) == [ends_early, same_span, ends_late]


CATEGORY_KEYS = tuple(c.key for c in PROFILE.category_set)


@given(
    corpora,
    st.lists(st.sampled_from((None, 0, 1, 2, 5)), min_size=len(CATEGORY_KEYS), max_size=len(CATEGORY_KEYS)),
    st.integers(0, 2**32),
)
def test_records_round_trip_on_random_corpora(corpus, quotas, seed):
    chosen = {key: quota for key, quota in zip(CATEGORY_KEYS, quotas) if quota is not None}
    records = apply_corpus(corpus, PROFILE, chosen, seed)
    assert records_from_jsonl(records_to_jsonl(records), corpus, "records.jsonl") == records


def held_values(graph: SceneGraph) -> set[tuple[str, str, str]]:
    """(entity id, type, value) for every value the video attributes to an
    entity: a predicate to its subject, an attribute to its entity in either
    role."""
    held = set()
    for t in graph.tuples:
        if t.predicate is not None:
            held.add((t.subject.entity_id, t.predicate.pred_type, t.predicate.value))
        held.update((t.subject.entity_id, a.attr_type, a.value) for a in t.subject_attrs)
        if t.object is not None:
            held.update((t.object.entity_id, a.attr_type, a.value) for a in t.object_attrs)
    return held


@given(st.integers(0, 2**32), st.integers(1, 3))
def test_counterfactual_negatives_are_false_in_their_video(seed, n_videos):
    corpus = random_profile_corpus(random.Random(seed), PROFILE, n_videos)
    held = {graph.video_id: held_values(graph) for graph in corpus}
    records = [r for r in apply_corpus(corpus, PROFILE, {}, seed) if r.category.method == "counterfactual"]
    for record in records:
        (orig,), (manip,) = record.original, record.manipulated
        fine_type = record.category.fine_type
        if record.category.target == "predicate":
            new = manip.predicate.value
        else:
            (new,) = [m.value for o, m in zip(orig.subject_attrs, manip.subject_attrs) if o != m]
        assert new in PROFILE.vocab[fine_type]
        assert (orig.subject.entity_id, fine_type, new) not in held[record.video_id], record.record_id
