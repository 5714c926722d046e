import pytest
from hypothesis import given, strategies as st

from eventprobe.errors import MalformedDocument
from eventprobe.captions import Caption, CaptionPair
from eventprobe.manipulate import (
    AttributeObservation,
    CounterfactualSite,
    ManipulationRecord,
    NeighborhoodSite,
    TemporalSite,
    _derived,
    apply_corpus,
    records_from_jsonl,
    records_to_jsonl,
)
from eventprobe.profiles import ManipulationCategory
from eventprobe.scene_graph import (
    AttributeValue,
    EntityRef,
    EventTuple,
    PredicateValue,
    SceneGraph,
    TimeInterval,
    graphs_from_jsonl,
    graphs_to_jsonl,
    parse_scene_graph,
    validate,
)

from .helpers import attr, entity, make_tuple, pred, span


MINIMAL_DOC = {
    "video_id": "v0",
    "duration_s": 10.0,
    "entities": [{"entity_id": "e1", "name": "dog"}],
    "tuples": [],
}


def tuple_doc(**overrides):
    doc = {
        "tuple_id": "t1",
        "subject": "e1",
        "subject_attrs": [{"value": "brown", "attr_type": "Color"}],
        "object_attrs": [],
        "time": {"start_s": 1.0, "end_s": 2.0},
    }
    doc.update(overrides)
    return doc


class TestParse:
    def test_minimal_document(self):
        graph = parse_scene_graph(MINIMAL_DOC)
        assert len(graph.entities) == 1
        assert len(graph.tuples) == 0

    def test_dangling_entity(self):
        doc = dict(MINIMAL_DOC, tuples=[tuple_doc(subject="e9")])
        with pytest.raises(MalformedDocument, match="^tuple 't1' references unknown entity 'e9'$"):
            parse_scene_graph(doc)

    def test_dangling_object(self):
        doc = dict(MINIMAL_DOC, tuples=[tuple_doc(object="e9")])
        with pytest.raises(MalformedDocument, match="^tuple 't1' references unknown entity 'e9'$"):
            parse_scene_graph(doc)

    @pytest.mark.parametrize("subject", [entity("e9"), entity("e1", "cat")], ids=["unknown-id", "other-entity"])
    def test_graph_built_directly_checks_its_references(self, subject):
        tup = make_tuple("t1", subject, attrs=(attr("brown"),))
        with pytest.raises(MalformedDocument, match=f"^tuple 't1' references unknown entity {subject.entity_id!r}$"):
            SceneGraph("v0", 10.0, (entity("e1", "dog"),), (tup,))

    def test_fixture_counts(self, forrest):
        # Hand count of tests/fixtures/forrest.json: 2 entities, 3 tuples.
        assert len(forrest.entities) == 2
        assert len(forrest.tuples) == 3

    def test_interval_beyond_duration(self):
        doc = dict(
            MINIMAL_DOC, tuples=[tuple_doc(time={"start_s": 1.0, "end_s": 99.0})]
        )
        with pytest.raises(MalformedDocument, match="^tuple 't1' ends at 99.0s, beyond duration 10.0s$"):
            parse_scene_graph(doc)

    def test_inverted_interval(self):
        doc = dict(
            MINIMAL_DOC, tuples=[tuple_doc(time={"start_s": 5.0, "end_s": 1.0})]
        )
        with pytest.raises(MalformedDocument, match=r"^invalid interval \[5\.0, 1\.0\]$"):
            parse_scene_graph(doc)

    def test_negative_start(self):
        with pytest.raises(MalformedDocument, match=r"^invalid interval \[-1\.0, 2\.0\]$"):
            TimeInterval(start_s=-1.0, end_s=2.0)

    def test_bad_json(self):
        with pytest.raises(MalformedDocument):
            parse_scene_graph("{not json")

    def test_missing_key(self):
        with pytest.raises(MalformedDocument):
            parse_scene_graph({"video_id": "v0"})

    def test_duplicate_tuple_id(self):
        doc = dict(MINIMAL_DOC, tuples=[tuple_doc(), tuple_doc()])
        with pytest.raises(MalformedDocument):
            parse_scene_graph(doc)

    def test_duplicate_entity_id(self):
        doc = dict(
            MINIMAL_DOC,
            entities=[
                {"entity_id": "e1", "name": "dog"},
                {"entity_id": "e1", "name": "cat"},
            ],
        )
        with pytest.raises(MalformedDocument, match="duplicate entity_id 'e1' in video 'v0'"):
            parse_scene_graph(doc)

    def test_tuple_needs_predicate_or_attrs(self):
        doc = dict(MINIMAL_DOC, tuples=[tuple_doc(subject_attrs=[])])
        with pytest.raises(MalformedDocument):
            parse_scene_graph(doc)

    def test_object_attrs_require_object(self):
        doc = dict(
            MINIMAL_DOC,
            tuples=[tuple_doc(object_attrs=[{"value": "red", "attr_type": "Color"}])],
        )
        with pytest.raises(MalformedDocument):
            parse_scene_graph(doc)


class TestValidate:
    def test_clean_graph(self, profile, corpus):
        for graph in corpus:
            validate(graph, profile)

    def test_licensed_attribute(self, profile):
        graph = SceneGraph(
            video_id="v",
            duration_s=10.0,
            entities=(entity("e1"),),
            tuples=(make_tuple("t1", entity("e1"), attrs=(attr("white", "Color"),)),),
        )
        validate(graph, profile)

    def test_unknown_predicate_type(self, profile):
        graph = SceneGraph(
            video_id="v",
            duration_s=10.0,
            entities=(entity("e1"),),
            tuples=(
                make_tuple("t1", entity("e1"), predicate=pred("zap", "Teleport")),
            ),
        )
        with pytest.raises(MalformedDocument, match=(
            r"^vocabulary the profile does not license: "
            r"tuple 't1': UnknownPredicateType \(predicate type 'Teleport' not in profile\)$"
        )):
            validate(graph, profile)

    def test_out_of_vocabulary_value(self, profile):
        graph = SceneGraph(
            video_id="v",
            duration_s=10.0,
            entities=(entity("e1"),),
            tuples=(make_tuple("t1", entity("e1"), attrs=(attr("purple", "Color"),)),),
        )
        with pytest.raises(MalformedDocument, match=(
            r"^vocabulary the profile does not license: "
            r"tuple 't1': OutOfVocabularyValue \(value 'purple' not in Color vocabulary\)$"
        )):
            validate(graph, profile)

    def test_unknown_attribute_type(self, profile):
        graph = SceneGraph(
            video_id="v",
            duration_s=10.0,
            entities=(entity("e1"),),
            tuples=(make_tuple("t1", entity("e1"), attrs=(attr("tall", "Height"),)),),
        )
        with pytest.raises(MalformedDocument, match=(
            r"^vocabulary the profile does not license: "
            r"tuple 't1': UnknownAttributeType \(attribute type 'Height' not in profile\)$"
        )):
            validate(graph, profile)


# --- round-trip property ----------------------------------------------------

_words = st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=8)


@st.composite
def scene_graphs(draw):
    n_entities = draw(st.integers(min_value=1, max_value=4))
    entities = tuple(
        EntityRef(
            entity_id=f"e{i}",
            name=draw(_words),
            entity_class=draw(st.sampled_from([None, "person", "object"])),
        )
        for i in range(n_entities)
    )
    tuples = []
    for t in range(draw(st.integers(min_value=0, max_value=5))):
        subject = draw(st.sampled_from(entities))
        attrs = tuple(
            AttributeValue(value=draw(_words), attr_type=draw(st.sampled_from(["Color", "Material"])))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        )
        predicate = (
            PredicateValue(value=draw(_words), pred_type=draw(st.sampled_from(["Action", "Contact"])))
            if draw(st.booleans()) or not attrs
            else None
        )
        obj = draw(st.sampled_from(entities)) if draw(st.booleans()) else None
        obj_attrs = (
            tuple(
                AttributeValue(value=draw(_words), attr_type="Color")
                for _ in range(draw(st.integers(min_value=0, max_value=2)))
            )
            if obj is not None
            else ()
        )
        start = draw(st.floats(min_value=0, max_value=50, allow_nan=False))
        end = start + draw(st.floats(min_value=0, max_value=40, allow_nan=False))
        tuples.append(
            EventTuple(
                tuple_id=f"t{t}",
                subject=subject,
                subject_attrs=attrs,
                predicate=predicate,
                object=obj,
                object_attrs=obj_attrs,
                time=TimeInterval(start_s=start, end_s=end),
            )
        )
    return SceneGraph(
        video_id=draw(_words), duration_s=100.0, entities=entities, tuples=tuple(tuples)
    )


class TestRoundTrip:
    @given(scene_graphs())
    def test_serialize_parse_identity(self, graph):
        assert graphs_from_jsonl(graphs_to_jsonl([graph]), "graphs.jsonl") == [graph]

    def test_fixture_round_trip(self, corpus):
        assert graphs_from_jsonl(graphs_to_jsonl(corpus), "graphs.jsonl") == list(corpus)


class TestInterning:
    """Parsing builds one object per distinct attribute and predicate value."""

    @staticmethod
    def signed_zero_graph() -> SceneGraph:
        """Times 0.0 and -0.0, which compare equal but serialize apart, and
        one attribute value on every tuple, each built on its own."""
        kite, ball = entity("e1", "kite"), entity("e2", "ball")
        return SceneGraph("v0", 10.0, (kite, ball), (
            make_tuple("t1", kite, attrs=(attr("red"),), predicate=pred("carries"), obj=ball, time=span(0.0, 1.0)),
            make_tuple("t2", kite, attrs=(attr("red"),), predicate=pred("folds"), obj=ball, time=span(-0.0, 1.0)),
            make_tuple("t3", ball, attrs=(attr("red"),), predicate=pred("opens"), obj=kite, time=span(2.0, 3.0)),
        ))

    def test_signed_zero_and_shared_values_round_trip(self, profile):
        text = graphs_to_jsonl([self.signed_zero_graph()])
        assert '"start_s":-0.0' in text and '"start_s":0.0' in text
        graphs = graphs_from_jsonl(text, "graphs.jsonl")
        assert graphs_to_jsonl(graphs) == text
        t1, t2, t3 = graphs[0].tuples
        assert t1.subject_attrs[0] is t2.subject_attrs[0] is t3.subject_attrs[0]
        assert t1.time is not t2.time

        records_text = records_to_jsonl(apply_corpus(graphs, profile, {}, 7))
        assert '"start_s":-0.0' in records_text and '"start_s":0.0' in records_text
        assert records_to_jsonl(records_from_jsonl(records_text, graphs, "records.jsonl")) == records_text

    @pytest.mark.parametrize("case", [
        "AttributeValue", "PredicateValue", "EntityRef", "TimeInterval", "EventTuple",
        "AttributeObservation", "ManipulationRecord", "TemporalPredicateSite",
        "TemporalAttributeSite", "NeighborhoodSite", "CounterfactualSite", "Caption", "CaptionPair",
    ])
    def test_shared_values_reject_assignment(self, case):
        """Interned values are shared by many tuples, and every value type is
        hashed as a key: none takes a field or any other attribute. A
        temporal site is checked with both slot kinds: predicate slots
        (index None) and attribute slots."""
        tup = graphs_from_jsonl(graphs_to_jsonl([self.signed_zero_graph()]), "graphs.jsonl")[0].tuples[0]
        record = ManipulationRecord(
            "r", ManipulationCategory.from_key("temporal.predicate.Action"), "v0",
            (tup,), (_derived(tup, time=span(5.0, 6.0)),), 7,
        )
        caption = Caption("a red kite", "template")
        value = {
            "AttributeValue": tup.subject_attrs[0],
            "PredicateValue": tup.predicate,
            "EntityRef": tup.subject,
            "TimeInterval": tup.time,
            "EventTuple": tup,
            "AttributeObservation": AttributeObservation(tup.subject, tup.subject_attrs[0], tup.time),
            "ManipulationRecord": record,
            "TemporalPredicateSite": TemporalSite("t1", None, "t3", None),
            "TemporalAttributeSite": TemporalSite("t1", 0, "t3", 0),
            "NeighborhoodSite": NeighborhoodSite("t1"),
            "CounterfactualSite": CounterfactualSite("t1", None, ("opens",)),
            "Caption": caption,
            "CaptionPair": CaptionPair("p", "v0", record.category, caption, Caption("a blue kite", "template")),
        }[case]
        kind = type(value)
        for name in (*kind._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, "changed")
