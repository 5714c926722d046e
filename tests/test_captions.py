from dataclasses import replace
from importlib import resources

import pytest

from eventprobe.captions import (
    Caption,
    CaptionPair,
    benchmark_categories,
    default_templates,
    pair_from_doc,
    pair_to_doc,
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
    TemplateMissing,
    TemplateSlotMissing,
)
from eventprobe.manipulate import apply_corpus
from eventprobe.pipeline import PipelineConfig, run_pipeline, run_stages
from eventprobe.profiles import ManipulationCategory

from .goldens import GOLDEN_TEXTS, build_golden_records, record_for
from .helpers import entity, make_tuple, pred, span


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
            [replace(greg, predicate=pred("assembles"))],
        )
        with pytest.raises(TemplateSlotMissing):
            render_pair(record, templates)

    def test_template_missing(self, golden_records):
        table = parse_templates({"table_id": "empty", "templates": {}})
        with pytest.raises(TemplateMissing):
            render_pair(golden_records["counterfactual.attribute.Color"], table)

    def test_attr_slot_never_filled_from_other_type(self, templates):
        # A Color-category record whose tuples only carry Material attributes
        # must fail loudly instead of rendering the wrong slot.
        from .helpers import attr

        tup = make_tuple("t1", entity("e1", "bike"), attrs=(attr("metal", "Material"),))
        record = record_for(
            "counterfactual.attribute.Color",
            [tup],
            [replace(tup, subject_attrs=(attr("wood", "Material"),))],
        )
        with pytest.raises(TemplateSlotMissing):
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
        for record in records:
            pair = render_pair(record, templates)
            required = protected_values(record)
            for value in required["positive"]:
                assert value in pair.positive.text, record.record_id
            for value in required["negative"]:
                assert value in pair.negative.text, record.record_id

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
                    positive=Caption(text=f"the bike is black {i}", polarity="positive", record_id=f"pair-{i}"),
                    negative=Caption(text=f"the bike is red {i}", polarity="negative", record_id=f"pair-{i}"),
                )
            )
        return pairs

    def test_two_pairs_two_lines(self):
        text = pairs_to_jsonl(self.make_pairs(2))
        assert len(text.splitlines()) == 2
        assert [p.pair_id for p in pairs_from_jsonl(text)] == ["pair-0", "pair-1"]

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
                positive=Caption(text="a then b", polarity="positive", record_id="pair-x"),
                negative=Caption(text="b then a", polarity="negative", record_id="pair-x"),
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
        restored = pairs_from_jsonl(pairs_to_jsonl(pairs))
        assert [p.pair_id for p in restored] == [p.pair_id for p in pairs]
        assert [p.positive.text for p in restored] == [p.positive.text for p in pairs]
        assert [p.negative.text for p in restored] == [p.negative.text for p in pairs]

    def test_doc_field_order(self, golden_records, templates):
        pair = render_pair(
            golden_records["counterfactual.attribute.Color"], templates
        )
        doc = pair_to_doc(pair)
        assert list(doc) == ["pair_id", "video_id", "category", "positive", "negative"]
        assert pair_from_doc(doc).pair_id == pair.pair_id
