import json
from importlib import resources
from pathlib import Path

import pytest

import eventprobe.decorator
from eventprobe.errors import ConfigError, ProfileNotFound, StageFailed
from eventprobe.pipeline import PipelineConfig, RunManifest, run_pipeline

# Hand-enumerated site counts over tests/fixtures/{focker,forrest,kitchen}.json,
# frozen before the enumerator existed (see also test_acceptance).
EXPECTED_SITE_COUNTS = {
    "temporal.predicate.Action": 2,
    "temporal.predicate.Contact": 3,
    "temporal.attribute.Color": 1,
    "neighborhood.attribute.Color": 3,
    "counterfactual.predicate.Action": 4,
    "counterfactual.predicate.Contact": 3,
    "counterfactual.predicate.SpatialRelationship": 2,
    "counterfactual.attribute.Color": 6,
}


def write_profile(tmp_path: Path) -> Path:
    text = resources.files("eventprobe.data").joinpath("profile_default.json").read_text("utf-8")
    path = tmp_path / "profile.json"
    path.write_text(text, encoding="utf-8")
    return path


def make_config(tmp_path: Path, fixtures_dir: Path, out_name: str = "out", **extra) -> PipelineConfig:
    doc = {
        "global_seed": 42,
        "profile_path": str(write_profile(tmp_path)),
        "input_glob": str(fixtures_dir / "*.json"),
        "output_dir": str(tmp_path / out_name),
    }
    doc.update(extra)
    return PipelineConfig.from_doc(doc)


class TestConfig:
    def test_seed_is_required(self, tmp_path, fixtures_dir):
        with pytest.raises(ConfigError):
            PipelineConfig.from_doc(
                {
                    "profile_path": "p",
                    "input_glob": "g",
                    "output_dir": str(tmp_path),
                }
            )

    def test_flag_overrides_win(self, tmp_path, fixtures_dir):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "global_seed": 1,
                    "profile_path": "p",
                    "input_glob": "g",
                    "output_dir": "d",
                }
            )
        )
        config = PipelineConfig.from_file(path, global_seed=99, output_dir="elsewhere")
        assert config.global_seed == 99
        assert config.output_dir == "elsewhere"

    def test_digest_stable_and_sensitive(self, tmp_path, fixtures_dir):
        c1 = make_config(tmp_path, fixtures_dir)
        c2 = make_config(tmp_path, fixtures_dir)
        assert c1.digest() == c2.digest()
        c3 = make_config(tmp_path, fixtures_dir, global_seed=43)
        assert c3.digest() != c1.digest()

    def test_unknown_quota_key_rejected(self, tmp_path, fixtures_dir):
        config = make_config(
            tmp_path, fixtures_dir, quotas={"counterfactual.attribute.Smell": 1}
        )
        with pytest.raises(StageFailed) as info:
            run_pipeline(config)
        assert isinstance(info.value.cause, ConfigError)


class TestRunPipeline:
    def test_two_runs_are_byte_identical(self, tmp_path, fixtures_dir):
        config = make_config(tmp_path, fixtures_dir)
        manifest_a = run_pipeline(config)
        bytes_a = (tmp_path / "out" / "benchmark.jsonl").read_bytes()
        rerun = make_config(tmp_path, fixtures_dir, force=True)
        manifest_b = run_pipeline(rerun)
        bytes_b = (tmp_path / "out" / "benchmark.jsonl").read_bytes()
        assert bytes_a == bytes_b
        assert manifest_a.digest() == manifest_b.digest()
        assert isinstance(manifest_a, RunManifest)

    def test_unquoted_run_covers_all_sites(self, tmp_path, fixtures_dir):
        config = make_config(tmp_path, fixtures_dir)
        manifest = run_pipeline(config)
        assert dict(manifest.per_category) == EXPECTED_SITE_COUNTS
        assert manifest.stage_counts == {
            "videos": 3,
            "records": sum(EXPECTED_SITE_COUNTS.values()),
            "pairs": sum(EXPECTED_SITE_COUNTS.values()),
        }

    def test_explicit_category_subset(self, tmp_path, fixtures_dir):
        config = make_config(
            tmp_path,
            fixtures_dir,
            categories=["temporal.attribute.Color", "counterfactual.predicate.Action"],
        )
        manifest = run_pipeline(config)
        assert dict(manifest.per_category) == {
            "temporal.attribute.Color": 1,
            "counterfactual.predicate.Action": 4,
        }

    def test_unknown_category_key_rejected(self, tmp_path, fixtures_dir):
        config = make_config(tmp_path, fixtures_dir, categories=["temporal.attribute.Sound"])
        with pytest.raises(StageFailed) as info:
            run_pipeline(config)
        assert isinstance(info.value.cause, ConfigError)

    def test_quota_shows_up_in_manifest(self, tmp_path, fixtures_dir):
        config = make_config(
            tmp_path, fixtures_dir, quotas={"counterfactual.attribute.Color": 1}
        )
        manifest = run_pipeline(config)
        expected = dict(EXPECTED_SITE_COUNTS, **{"counterfactual.attribute.Color": 1})
        assert dict(manifest.per_category) == expected

    def test_missing_profile_is_fatal_and_names_path(self, tmp_path, fixtures_dir):
        config = PipelineConfig.from_doc(
            {
                "global_seed": 42,
                "profile_path": str(tmp_path / "missing_profile.json"),
                "input_glob": str(fixtures_dir / "*.json"),
                "output_dir": str(tmp_path / "out"),
            }
        )
        with pytest.raises(StageFailed) as info:
            run_pipeline(config)
        assert info.value.stage == "ingest"
        assert isinstance(info.value.cause, ProfileNotFound)
        assert "missing_profile.json" in str(info.value)

    def test_partial_outputs_removed_on_failure(self, tmp_path, fixtures_dir):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for name in ("forrest.json", "kitchen.json"):
            (corpus_dir / name).write_text(
                (fixtures_dir / name).read_text(encoding="utf-8"), encoding="utf-8"
            )
        (corpus_dir / "broken.json").write_text("{not json", encoding="utf-8")
        out_dir = tmp_path / "out"
        config = PipelineConfig.from_doc(
            {
                "global_seed": 42,
                "profile_path": str(write_profile(tmp_path)),
                "input_glob": str(corpus_dir / "*.json"),
                "output_dir": str(out_dir),
            }
        )
        with pytest.raises(StageFailed):
            run_pipeline(config)
        assert list(out_dir.iterdir()) == []

    def test_stage_files_written(self, tmp_path, fixtures_dir):
        config = make_config(tmp_path, fixtures_dir)
        run_pipeline(config)
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "benchmark.jsonl", "graphs.jsonl", "records.jsonl", "run_manifest.json"
        ]
        saved = json.loads((out / "run_manifest.json").read_text())
        assert saved["digest"]
        assert saved["per_category"] == EXPECTED_SITE_COUNTS


class TestDecoratorWiring:
    def test_no_network_when_disabled(self, tmp_path, fixtures_dir, monkeypatch):
        def bomb(*args, **kwargs):  # pragma: no cover
            raise AssertionError("network transport must not be touched")

        monkeypatch.setattr(eventprobe.decorator, "_http_transport", bomb)
        config = make_config(tmp_path, fixtures_dir)
        manifest = run_pipeline(config)
        assert manifest.decorator_failures == 0

    def decorated_config(self, tmp_path, fixtures_dir):
        return make_config(
            tmp_path,
            fixtures_dir,
            decorator={
                "enabled": True,
                "endpoint": "https://rewriter.test/v1",
                "model_name": "rewriter-1",
                "api_key_env": "PROBE_DECORATOR_KEY",
            },
        )

    def test_decorated_run_counts_failures(self, tmp_path, fixtures_dir, monkeypatch):
        monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

        def flaky(endpoint, payload, headers, timeout):
            raise TimeoutError("down")

        config = self.decorated_config(tmp_path, fixtures_dir)
        manifest = run_pipeline(config, transport=flaky)
        assert manifest.decorator_failures == 2 * manifest.stage_counts["pairs"]

    def test_decorated_run_rewrites_captions(self, tmp_path, fixtures_dir, monkeypatch):
        monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

        def echoing(endpoint, payload, headers, timeout):
            sentence = payload["prompt"].rsplit("Sentence: ", 1)[1]
            return {"candidates": [f"In the clip, {sentence}"]}

        config = self.decorated_config(tmp_path, fixtures_dir)
        manifest = run_pipeline(config, transport=echoing)
        assert manifest.decorator_failures == 0
        lines = (tmp_path / "out" / "benchmark.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        assert first["positive"]["renderer"] == "llm"
        assert first["positive"]["text"].startswith("In the clip, ")
