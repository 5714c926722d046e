import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

import eventprobe.decorator
from eventprobe.errors import ConfigError, MalformedDocument, ProfileNotFound
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

    @pytest.mark.parametrize(
        "key, value", [("force", "false"), ("output_dir", None), ("profile_path", None), ("input_glob", 5)]
    )
    def test_path_and_force_values_keep_their_json_type(self, tmp_path, fixtures_dir, key, value):
        with pytest.raises(ConfigError, match=key):
            make_config(tmp_path, fixtures_dir, **{key: value})

    def test_null_optional_values_take_their_defaults(self, tmp_path, fixtures_dir):
        nulls = dict.fromkeys(("quotas", "categories", "templates_path", "decorator"))
        assert make_config(tmp_path, fixtures_dir, **nulls) == make_config(tmp_path, fixtures_dir)

    def test_all_from_profile_is_every_category(self, tmp_path, fixtures_dir):
        config = make_config(tmp_path, fixtures_dir, categories="all-from-profile")
        assert config.categories is None and config == make_config(tmp_path, fixtures_dir)

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
        with pytest.raises(ConfigError, match="^stage 'probe' failed: "):
            run_pipeline(config)


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

    @pytest.mark.parametrize(
        "quota, digests",
        [
            (None, {
                "graphs.jsonl": "c7d747f3b3b675c3d8fe78613344b96c14e999400eaa9c120e690c7130c43f6f",
                "records.jsonl": "4b31c36570f877afac6b9284d0cd00d83f1af67b75fdf228343ca49572385961",
                "benchmark.jsonl": "2c9241e310448b8004e9c4caee17dc1f00a113ac1bae679126466d008e5e6964",
            }),
            (1, {
                "graphs.jsonl": "c7d747f3b3b675c3d8fe78613344b96c14e999400eaa9c120e690c7130c43f6f",
                "records.jsonl": "5fa556312b0a73ea1621031ed6252d7668955d8c55ae1481d0ebaf7847bf49eb",
                "benchmark.jsonl": "0ee404ea24a1d8eefacc8af169a3476ac173349ddc39072e9640fa026522018b",
            }),
        ],
        ids=["no-quotas", "quota-1"],
    )
    def test_output_bytes_are_pinned(self, tmp_path, fixtures_dir, quota, digests):
        """The fixtures' outputs at seed 42 under the default profile: any
        change to them is a change of the shipped benchmark."""
        quotas = {} if quota is None else {key: quota for key in EXPECTED_SITE_COUNTS}
        run_pipeline(make_config(tmp_path, fixtures_dir, quotas=quotas))
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name

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

    def test_category_order_does_not_matter(self, tmp_path, fixtures_dir):
        """A categories list acts as a set, as the config digest reads it:
        the categories run in profile order whatever order it names them in."""
        keys = ["temporal.predicate.Contact", "counterfactual.attribute.Color"]
        manifests, benchmarks = [], []
        for order in (keys, keys[::-1]):
            manifests.append(run_pipeline(make_config(tmp_path, fixtures_dir, categories=order, force=True)))
            benchmarks.append((tmp_path / "out" / "benchmark.jsonl").read_bytes())
        assert benchmarks[0] == benchmarks[1]
        assert manifests[0].digest() == manifests[1].digest()

    def test_unknown_category_key_rejected(self, tmp_path, fixtures_dir):
        config = make_config(tmp_path, fixtures_dir, categories=["temporal.attribute.Sound"])
        with pytest.raises(ConfigError, match="^stage 'probe' failed: "):
            run_pipeline(config)

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
        with pytest.raises(ProfileNotFound, match="^stage 'ingest' failed: .*missing_profile.json"):
            run_pipeline(config)

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
        with pytest.raises(MalformedDocument, match="^stage 'ingest' failed: .*broken.json"):
            run_pipeline(config)
        assert not out_dir.exists()

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

        monkeypatch.setattr(eventprobe.decorator, "_http_transport", flaky)
        config = self.decorated_config(tmp_path, fixtures_dir)
        manifest = run_pipeline(config)
        assert manifest.decorator_failures == 2 * manifest.stage_counts["pairs"]

    def test_decorated_run_rewrites_captions(self, tmp_path, fixtures_dir, monkeypatch):
        monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

        def echoing(endpoint, payload, headers, timeout):
            sentence = payload["prompt"].rsplit("Sentence: ", 1)[1]
            return {"candidates": [f"In the clip, {sentence}"]}

        monkeypatch.setattr(eventprobe.decorator, "_http_transport", echoing)
        config = self.decorated_config(tmp_path, fixtures_dir)
        manifest = run_pipeline(config)
        assert manifest.decorator_failures == 0
        lines = (tmp_path / "out" / "benchmark.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        assert first["positive"]["renderer"] == "llm"
        assert first["positive"]["text"].startswith("In the clip, ")
