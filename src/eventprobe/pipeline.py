"""End-to-end pipeline: ingest, manipulate, render, emit, with a run manifest.

With the decorator disabled the emitted benchmark is a pure function of the
input documents and the configuration, so two runs with one seed produce
byte-identical output files and equal manifest digests (timestamps are kept
out of the digest).
"""

from __future__ import annotations

import glob
import hashlib
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import __version__
from .captions import (
    CaptionPair,
    TemplateTable,
    default_templates,
    emit_benchmark,
    load_templates,
    protected_values,
    render_pair,
)
from .decorator import DecoratorConfig, Transport, decorate
from .errors import (
    ConfigError,
    EmptyInput,
    MalformedDocument,
    OutputExists,
    StageFailed,
)
from .manipulate import apply_corpus, derive_seed, records_to_jsonl
from .profiles import DatasetProfile, load_profile
from .scene_graph import SceneGraph, load_scene_graph, scene_graph_to_doc, validate


@dataclass(frozen=True)
class PipelineConfig:
    """One hashable document that reproduces a benchmark run."""

    global_seed: int
    profile_path: str
    input_glob: str
    output_dir: str
    quotas: Mapping[str, int] = field(default_factory=dict)
    categories: tuple[str, ...] | None = None  # None means all-from-profile
    templates_path: str | None = None
    decorator: DecoratorConfig = field(default_factory=DecoratorConfig)
    force: bool = False
    jobs: int = 1

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any], **overrides: Any) -> "PipelineConfig":
        if not isinstance(doc, Mapping):
            raise ConfigError("config must be a JSON object")
        merged = dict(doc)
        for key, value in overrides.items():
            if value is not None:
                merged[key] = value
        if "global_seed" not in merged or merged["global_seed"] is None:
            raise ConfigError("global_seed is required; there is no wall-clock default")
        try:
            decorator_doc = merged.get("decorator") or {}
            if isinstance(decorator_doc, DecoratorConfig):
                decorator = decorator_doc
            else:
                decorator = DecoratorConfig(**decorator_doc)
            raw_categories = merged.get("categories")
            if raw_categories in (None, "all-from-profile"):
                categories = None
            elif isinstance(raw_categories, str):
                raise ConfigError(
                    f"categories must be a list of category keys or \"all-from-profile\", "
                    f"got the string {raw_categories!r}"
                )
            else:
                categories = tuple(str(c) for c in raw_categories)
            raw_quotas = merged.get("quotas") or {}
            if not isinstance(raw_quotas, Mapping):
                raise ConfigError("quotas must map category keys to counts")
            return cls(
                global_seed=int(merged["global_seed"]),
                profile_path=str(merged["profile_path"]),
                input_glob=str(merged["input_glob"]),
                output_dir=str(merged["output_dir"]),
                quotas={str(k): int(v) for k, v in raw_quotas.items()},
                categories=categories,
                templates_path=merged.get("templates_path"),
                decorator=decorator,
                force=bool(merged.get("force", False)),
                jobs=int(merged.get("jobs", 1)),
            )
        except KeyError as exc:
            raise ConfigError(f"config lacks required key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from None

    @classmethod
    def from_file(cls, path: str | Path, **overrides: Any) -> "PipelineConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_doc(doc, **overrides)

    def digest(self) -> str:
        doc = {
            "global_seed": self.global_seed,
            "profile_path": self.profile_path,
            "input_glob": self.input_glob,
            "output_dir": self.output_dir,
            "quotas": dict(sorted(self.quotas.items())),
            "categories": sorted(self.categories) if self.categories is not None else None,
            "templates_path": self.templates_path,
            "decorator": {
                "enabled": self.decorator.enabled,
                "endpoint": self.decorator.endpoint,
                "model_name": self.decorator.model_name,
                "temperature": self.decorator.temperature,
                "api_key_env": self.decorator.api_key_env,
                "timeout_s": self.decorator.timeout_s,
                "max_candidates": self.decorator.max_candidates,
            },
        }
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode("utf-8")
        ).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Counts, digests, and timestamps for one pipeline run."""

    tool_version: str
    config_digest: str
    stage_counts: Mapping[str, int]
    per_category: Mapping[str, int]
    decorator_failures: int
    started_at: float
    finished_at: float

    def digest(self) -> str:
        doc = {
            "tool_version": self.tool_version,
            "config_digest": self.config_digest,
            "stage_counts": dict(sorted(self.stage_counts.items())),
            "per_category": dict(sorted(self.per_category.items())),
            "decorator_failures": self.decorator_failures,
        }
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def to_doc(self) -> dict[str, Any]:
        return {
            "tool_version": self.tool_version,
            "config_digest": self.config_digest,
            "stage_counts": dict(sorted(self.stage_counts.items())),
            "per_category": dict(sorted(self.per_category.items())),
            "decorator_failures": self.decorator_failures,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "digest": self.digest(),
        }


def _load_graphs(paths: Sequence[str], jobs: int) -> list[SceneGraph]:
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            graphs = list(pool.map(load_scene_graph, paths))
    else:
        graphs = [load_scene_graph(p) for p in paths]
    return sorted(graphs, key=lambda g: g.video_id)


def ingest_corpus(
    config: PipelineConfig, profile: DatasetProfile
) -> list[SceneGraph]:
    """Parse and profile-validate every document matched by the input glob."""
    paths = sorted(glob.glob(config.input_glob))
    if not paths:
        raise EmptyInput(f"input glob {config.input_glob!r} matched no files")
    graphs = _load_graphs(paths, config.jobs)
    problems = []
    for graph in graphs:
        for violation in validate(graph, profile):
            problems.append(f"{graph.video_id}/{violation.tuple_id}: {violation.kind} ({violation.detail})")
    if problems:
        raise MalformedDocument(
            "corpus uses vocabulary the profile does not license:\n  " + "\n  ".join(problems)
        )
    return graphs


def _validate_quotas(config: PipelineConfig, profile: DatasetProfile) -> None:
    known = {cat.key for cat in profile.category_set}
    unknown = sorted(set(config.quotas) - known)
    if unknown:
        raise ConfigError(f"quota keys not in profile categories: {', '.join(unknown)}")


def resolve_categories(config: PipelineConfig, profile: DatasetProfile):
    """Categories the run processes: the config's subset, or all-from-profile."""
    if config.categories is None:
        return None
    try:
        return tuple(profile.category(key) for key in config.categories)
    except MalformedDocument as exc:
        raise ConfigError(str(exc)) from None


def run_pipeline(
    config: PipelineConfig, transport: Transport | None = None
) -> RunManifest:
    """Execute ingest, manipulate, render, and emit; returns the run manifest.

    The first failing stage aborts the run with a StageFailed error naming
    the stage, and any files already written into the output directory by
    this run are removed.
    """
    started_at = time.time()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write(name: str, text: str) -> Path:
        path = out_dir / name
        if path.exists() and not config.force:
            raise OutputExists(f"{path} exists; rerun with force")
        path.write_text(text, encoding="utf-8")
        written.append(path)
        return path

    try:
        try:
            profile = load_profile(config.profile_path)
            _validate_quotas(config, profile)
            graphs = ingest_corpus(config, profile)
            graph_lines = "".join(
                json.dumps(scene_graph_to_doc(g), ensure_ascii=False, separators=(",", ":")) + "\n"
                for g in graphs
            )
            write("graphs.jsonl", graph_lines)
        except StageFailed:
            raise
        except Exception as exc:
            raise StageFailed("ingest", exc) from exc

        try:
            selected = resolve_categories(config, profile)
            records = apply_corpus(
                graphs, profile, config.quotas, config.global_seed, categories=selected
            )
            write("records.jsonl", records_to_jsonl(records))
        except Exception as exc:
            raise StageFailed("probe", exc) from exc

        try:
            if config.templates_path:
                templates: TemplateTable = load_templates(config.templates_path)
            else:
                templates = default_templates()
            pairs: list[CaptionPair] = []
            for record in records:
                pair = render_pair(record, templates)
                if config.decorator.enabled:
                    pair = decorate(
                        pair,
                        config.decorator,
                        random.Random(derive_seed(record.seed, "decorate")),
                        required=protected_values(record),
                        transport=transport,
                    )
                pairs.append(pair)
        except Exception as exc:
            raise StageFailed("render", exc) from exc

        try:
            if not pairs:
                raise EmptyInput("no caption pairs produced; check quotas and inputs")
            benchmark_path = out_dir / "benchmark.jsonl"
            if benchmark_path.exists() and not config.force:
                raise OutputExists(f"{benchmark_path} exists; rerun with force")
            manifest = emit_benchmark(
                pairs,
                benchmark_path,
                seed=config.global_seed,
                profile_name=profile.name,
                force=True,
            )
            written.append(benchmark_path)
        except Exception as exc:
            raise StageFailed("emit", exc) from exc

        decorator_failures = 0
        if config.decorator.enabled:
            for pair in pairs:
                decorator_failures += sum(
                    caption.renderer == "template"
                    for caption in (pair.positive, pair.negative)
                )

        run_manifest = RunManifest(
            tool_version=__version__,
            config_digest=config.digest(),
            stage_counts={
                "videos": len(graphs),
                "records": len(records),
                "pairs": manifest.total,
            },
            per_category=dict(manifest.per_category),
            decorator_failures=decorator_failures,
            started_at=started_at,
            finished_at=time.time(),
        )
        path = out_dir / "run_manifest.json"
        path.write_text(
            json.dumps(run_manifest.to_doc(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(path)
        return run_manifest
    except Exception:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise
