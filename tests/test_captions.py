import json
import random
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from eventprobe.captions import (
    Caption,
    CaptionPair,
    benchmark_categories,
    default_templates,
    pair_from_doc,
    pairs_from_jsonl,
    pairs_to_jsonl,
    parse_templates,
    protected_values,
    render_pair,
)
from eventprobe.errors import (
    EmptyInput,
    MalformedDocument,
    OutputExists,
    TemplateError,
)
from eventprobe.manipulate import _derived, apply_corpus
from eventprobe.pipeline import PipelineConfig, run_pipeline, run_stages
from eventprobe.profiles import ManipulationCategory

from .goldens import GOLDEN_TEXTS, build_golden_records, record_for
from .helpers import attr, default_profile, entity, json_line, make_tuple, pair_to_doc, pred, random_profile_corpus, span


@pytest.fixture(scope="module")
def golden_records():
    return build_golden_records()


class TestGoldenRenderings:
    def test_all_categories_match_goldens(self, golden_records, templates):
        for key, record in golden_records.items():
            pair = render_pair(record, templates)
            expected_pos, expected_neg = GOLDEN_TEXTS[key]
            assert pair.positive.text == expected_pos, key
            assert pair.negative.text == expected_neg, key

    def test_carries_assembles_contrast(self, golden_records, templates):
        pair = render_pair(
            golden_records["counterfactual.predicate.Action"], default_templates()
        )
        assert "carries" in pair.positive.text
        assert "assembles" in pair.negative.text

    def test_rendering_is_deterministic(self, golden_records, templates):
        for record in golden_records.values():
            assert render_pair(record, templates) == render_pair(record, templates)


class TestRenderErrors:
    def test_template_slot_missing(self, templates):
        greg = make_tuple(
            "m1", entity("g1", "Greg Focker"), predicate=pred("carries"), time=span(5, 15)
        )
        record = record_for(
            "counterfactual.predicate.Action",
            [greg],
            [_derived(greg, predicate=pred("assembles"))],
        )
        with pytest.raises(TemplateError, match=r"^record 'counterfactual\.predicate\.Action#0000' cannot fill slot 'object' of template 't1\.counterfactual\.predicate\.Action\.positive'$"):
            render_pair(record, templates)

    def test_template_missing(self, golden_records):
        table = parse_templates({"table_id": "empty", "templates": {}})
        with pytest.raises(TemplateError, match="^no positive template for category 'counterfactual.attribute.Color'$"):
            render_pair(golden_records["counterfactual.attribute.Color"], table)

    def test_attr_slot_never_filled_from_other_type(self, templates):
        # A Color-category record whose tuples only carry Material attributes
        # must fail loudly instead of rendering the wrong slot.
        from .helpers import attr

        tup = make_tuple("t1", entity("e1", "bike"), attrs=(attr("metal", "Material"),))
        record = record_for(
            "counterfactual.attribute.Color",
            [tup],
            [_derived(tup, subject_attrs=(attr("wood", "Material"),))],
        )
        with pytest.raises(TemplateError, match=r"^record 'counterfactual\.attribute\.Color#0000' cannot fill slot 'subject_attr' of template 't1\.counterfactual\.attribute\.Color\.positive'$"):
            render_pair(record, templates)

    def test_unknown_slot_rejected_at_load(self):
        with pytest.raises(MalformedDocument):
            parse_templates(
                {
                    "templates": {
                        "counterfactual.attribute.Color": {
                            "positive": "the {creature} is {subject_attr}",
                            "negative": "x {subject_attr}",
                        }
                    }
                }
            )


class TestSlotFidelity:
    def test_protected_values_appear_verbatim(self, corpus, profile, templates):
        records = apply_corpus(corpus, profile, {}, 42)
        assert records
        # Captions show a kite's first Color, the only one a foil changes.
        kite = make_tuple("t1", entity("k1", "kite"), attrs=(attr("red"), attr("blue")))
        two_colors = record_for(
            "counterfactual.attribute.Color",
            [kite],
            [_derived(kite, subject_attrs=(attr("green"), attr("blue")))],
        )
        for record in [*records, two_colors]:
            pair = render_pair(record, templates)
            required = protected_values(record)
            for value in required["positive"]:
                assert value in pair.positive.text, record.record_id
            for value in required["negative"]:
                assert value in pair.negative.text, record.record_id
        assert protected_values(two_colors) == {"positive": ("red",), "negative": ("green",)}

    # Predicate tuples without an object give no predicate sites, so the
    # generated corpora render as they are.
    @given(st.integers(0, 2**32), st.integers(1, 3))
    def test_protected_values_survive_on_random_corpora(self, seed, n_videos):
        profile = default_profile()
        corpus = random_profile_corpus(random.Random(seed), profile, n_videos)
        pairs = {}
        for record in apply_corpus(corpus, profile, {}, seed):
            pair = pairs[record.record_id] = render_pair(record, default_templates())
            required = protected_values(record)
            assert all(value in pair.positive.text for value in required["positive"]), record.record_id
            assert all(value in pair.negative.text for value in required["negative"]), record.record_id
        positives = {(p.video_id, p.category, p.positive.text) for p in pairs.values()}
        for pair in pairs.values():
            if pair.category.method == "counterfactual":
                assert (pair.video_id, pair.category, pair.negative.text) not in positives

    def test_temporal_polarity_asymmetry(self, corpus, profile, templates):
        records = apply_corpus(corpus, profile, {}, 42)
        for record in records:
            if record.category.method != "temporal":
                continue
            pair = render_pair(record, templates)
            assert pair.positive.text != pair.negative.text


class TestEmit:
    def make_pairs(self, n=2, category="counterfactual.attribute.Color"):
        pairs = []
        for i in range(n):
            pairs.append(
                CaptionPair(
                    pair_id=f"pair-{i}",
                    video_id="v",
                    category=ManipulationCategory.from_key(category),
                    positive=Caption(f"the bike is black {i}", "template"),
                    negative=Caption(f"the bike is red {i}", "template"),
                )
            )
        return pairs

    def test_two_pairs_two_lines(self):
        text = pairs_to_jsonl(self.make_pairs(2))
        assert len(text.splitlines()) == 2
        assert [p.pair_id for p in pairs_from_jsonl(text, "benchmark.jsonl")] == ["pair-0", "pair-1"]

    def test_output_exists(self, tmp_path, fixtures_dir):
        profile = resources.files("eventprobe.data").joinpath("profile_default.json").read_text("utf-8")
        (tmp_path / "profile.json").write_text(profile, encoding="utf-8")
        config = PipelineConfig.from_doc({
            "global_seed": 42,
            "profile_path": str(tmp_path / "profile.json"),
            "input_glob": str(fixtures_dir / "*.json"),
            "output_dir": str(tmp_path / "out"),
        })
        run_pipeline(config)
        with pytest.raises(OutputExists):
            run_stages(config, ["emit"])
        assert run_stages(replace(config, force=True), ["emit"]) is not None

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            benchmark_categories([])

    def test_per_category_counts(self):
        pairs = self.make_pairs(2) + [
            CaptionPair(
                pair_id="pair-x",
                video_id="v",
                category=ManipulationCategory.from_key("temporal.attribute.Color"),
                positive=Caption("a then b", "template"),
                negative=Caption("b then a", "template"),
            )
        ]
        assert benchmark_categories(pairs) == {
            "counterfactual.attribute.Color": 2,
            "temporal.attribute.Color": 1,
        }

    def test_duplicate_pair_ids_rejected(self):
        pairs = self.make_pairs(1) * 2
        with pytest.raises(MalformedDocument):
            benchmark_categories(pairs)


class TestPairSerialization:
    def test_round_trip(self, golden_records, templates):
        pairs = [render_pair(r, templates) for r in golden_records.values()]
        restored = pairs_from_jsonl(pairs_to_jsonl(pairs), "benchmark.jsonl")
        assert [p.pair_id for p in restored] == [p.pair_id for p in pairs]
        assert [p.positive.text for p in restored] == [p.positive.text for p in pairs]
        assert [p.negative.text for p in restored] == [p.negative.text for p in pairs]

    def test_doc_field_order(self, golden_records, templates):
        pair = render_pair(
            golden_records["counterfactual.attribute.Color"], templates
        )
        line = pairs_to_jsonl([pair])
        assert line == json_line(pair_to_doc(pair))
        assert list(json.loads(line)) == ["pair_id", "video_id", "category", "positive", "negative"]
        assert pair_from_doc(pair_to_doc(pair)).pair_id == pair.pair_id


PAIR_DOC = {"pair_id": "p", "video_id": "v", "category": "temporal.predicate.Action",
            "positive": {"text": "a"}, "negative": {"text": "b"}}


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "top-level value must be a JSON object"),
    ({"nope": 1}, "missing key 'pair_id'"),
    ({**PAIR_DOC, "positive": "a"}, "'positive' must be a JSON object"),
    ({**PAIR_DOC, "negative": None}, "'negative' must be a JSON object"),
    ({**PAIR_DOC, "negative": {"renderer": "template"}}, "missing key 'text' in 'negative'"),
    ({**PAIR_DOC, "video_id": 5}, "pair 'p': ids, category and texts must be strings"),
], ids=["array", "no-pair-id", "positive-string", "negative-null", "negative-no-text", "video-id-number"])
def test_a_malformed_pair_says_what_it_lacks(doc, message):
    """Each doc is PAIR_DOC, which reads, with one fault."""
    with pytest.raises(MalformedDocument) as caught:
        pair_from_doc(doc)
    assert str(caught.value) == message
    assert pair_from_doc(PAIR_DOC) == CaptionPair("p", "v", ManipulationCategory.from_key(PAIR_DOC["category"]),
                                                  Caption("a", "template"), Caption("b", "template"))
