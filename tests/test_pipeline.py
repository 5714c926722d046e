import hashlib
import json

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


class TestConfig:
    def test_seed_is_required(self, tmp_path):
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
    def test_path_and_force_values_keep_their_json_type(self, ws, key, value):
        with pytest.raises(ConfigError, match=key):
            ws.pipeline_config(**{key: value})

    def test_null_optional_values_take_their_defaults(self, ws):
        nulls = dict.fromkeys(("quotas", "categories", "templates_path", "decorator"))
        assert ws.pipeline_config(**nulls) == ws.pipeline_config()

    def test_all_from_profile_is_every_category(self, ws):
        config = ws.pipeline_config(categories="all-from-profile")
        assert config.categories is None and config == ws.pipeline_config()

    def test_flag_overrides_win(self, ws):
        config = PipelineConfig.from_file(ws.config, global_seed=99, output_dir="elsewhere")
        assert config.global_seed == 99
        assert config.output_dir == "elsewhere"

    def test_digest_stable_and_sensitive(self, ws):
        c1 = ws.pipeline_config()
        c2 = ws.pipeline_config()
        assert c1.digest() == c2.digest()
        c3 = ws.pipeline_config(global_seed=43)
        assert c3.digest() != c1.digest()

    def test_unknown_quota_key_rejected(self, ws):
        config = ws.pipeline_config(quotas={"counterfactual.attribute.Smell": 1})
        with pytest.raises(ConfigError, match="^stage 'probe' failed: "):
            run_pipeline(config)


class TestRunPipeline:
    def test_two_runs_are_byte_identical(self, ws):
        config = ws.pipeline_config()
        manifest_a = run_pipeline(config)
        bytes_a = (ws.out / "benchmark.jsonl").read_bytes()
        rerun = ws.pipeline_config(force=True)
        manifest_b = run_pipeline(rerun)
        bytes_b = (ws.out / "benchmark.jsonl").read_bytes()
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
    def test_output_bytes_are_pinned(self, ws, quota, digests):
        """The fixtures' outputs at seed 42 under the default profile: any
        change to them is a change of the shipped benchmark."""
        quotas = {} if quota is None else {key: quota for key in EXPECTED_SITE_COUNTS}
        run_pipeline(ws.pipeline_config(quotas=quotas))
        for name, digest in digests.items():
            assert hashlib.sha256((ws.out / name).read_bytes()).hexdigest() == digest, name

    def test_unquoted_run_covers_all_sites(self, ws):
        config = ws.pipeline_config()
        manifest = run_pipeline(config)
        assert dict(manifest.per_category) == EXPECTED_SITE_COUNTS
        assert manifest.stage_counts == {
            "videos": 3,
            "records": sum(EXPECTED_SITE_COUNTS.values()),
            "pairs": sum(EXPECTED_SITE_COUNTS.values()),
        }

    def test_explicit_category_subset(self, ws):
        config = ws.pipeline_config(categories=["temporal.attribute.Color", "counterfactual.predicate.Action"])
        manifest = run_pipeline(config)
        assert dict(manifest.per_category) == {
            "temporal.attribute.Color": 1,
            "counterfactual.predicate.Action": 4,
        }

    def test_category_order_does_not_matter(self, ws):
        """A categories list acts as a set, as the config digest reads it:
        the categories run in profile order whatever order it names them in."""
        keys = ["temporal.predicate.Contact", "counterfactual.attribute.Color"]
        manifests, benchmarks = [], []
        for order in (keys, keys[::-1]):
            manifests.append(run_pipeline(ws.pipeline_config(categories=order, force=True)))
            benchmarks.append((ws.out / "benchmark.jsonl").read_bytes())
        assert benchmarks[0] == benchmarks[1]
        assert manifests[0].digest() == manifests[1].digest()

    def test_unknown_category_key_rejected(self, ws):
        config = ws.pipeline_config(categories=["temporal.attribute.Sound"])
        with pytest.raises(ConfigError, match="^stage 'probe' failed: "):
            run_pipeline(config)

    def test_quota_shows_up_in_manifest(self, ws):
        config = ws.pipeline_config(quotas={"counterfactual.attribute.Color": 1})
        manifest = run_pipeline(config)
        expected = dict(EXPECTED_SITE_COUNTS, **{"counterfactual.attribute.Color": 1})
        assert dict(manifest.per_category) == expected

    def test_missing_profile_is_fatal_and_names_path(self, ws):
        config = ws.pipeline_config(profile_path=str(ws.tmp / "missing_profile.json"))
        with pytest.raises(ProfileNotFound, match="^stage 'ingest' failed: .*missing_profile.json"):
            run_pipeline(config)

    def test_partial_outputs_removed_on_failure(self, ws):
        (ws.corpus / "broken.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(MalformedDocument, match="^stage 'ingest' failed: .*broken.json"):
            run_pipeline(ws.pipeline_config())
        assert not ws.out.exists()

    def test_stage_files_written(self, ws):
        config = ws.pipeline_config()
        run_pipeline(config)
        out = ws.out
        assert sorted(p.name for p in out.iterdir()) == [
            "benchmark.jsonl", "graphs.jsonl", "records.jsonl", "run_manifest.json"
        ]
        saved = json.loads((out / "run_manifest.json").read_text())
        assert saved["digest"]
        assert saved["per_category"] == EXPECTED_SITE_COUNTS


class TestDecoratorWiring:
    def test_no_network_when_disabled(self, ws, monkeypatch):
        def bomb(*args, **kwargs):  # pragma: no cover
            raise AssertionError("network transport must not be touched")

        monkeypatch.setattr(eventprobe.decorator, "_http_transport", bomb)
        config = ws.pipeline_config()
        manifest = run_pipeline(config)
        assert manifest.decorator_failures == 0

    def decorated_config(self, ws):
        return ws.pipeline_config(decorator={
            "enabled": True,
            "endpoint": "https://rewriter.test/v1",
            "model_name": "rewriter-1",
            "api_key_env": "PROBE_DECORATOR_KEY",
        })

    def test_decorated_run_counts_failures(self, ws, monkeypatch):
        monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

        def flaky(endpoint, payload, headers, timeout):
            raise TimeoutError("down")

        monkeypatch.setattr(eventprobe.decorator, "_http_transport", flaky)
        config = self.decorated_config(ws)
        manifest = run_pipeline(config)
        assert manifest.decorator_failures == 2 * manifest.stage_counts["pairs"]

    def test_decorated_run_rewrites_captions(self, ws, monkeypatch):
        monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

        def echoing(endpoint, payload, headers, timeout):
            sentence = payload["prompt"].rsplit("Sentence: ", 1)[1]
            return {"candidates": [f"In the clip, {sentence}"]}

        monkeypatch.setattr(eventprobe.decorator, "_http_transport", echoing)
        config = self.decorated_config(ws)
        manifest = run_pipeline(config)
        assert manifest.decorator_failures == 0
        lines = (ws.out / "benchmark.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        assert first["positive"]["renderer"] == "llm"
        assert first["positive"]["text"].startswith("In the clip, ")
