"""End-to-end pipeline: one table of stages, run whole or one stage at a time.

`STAGES` lists ingest, probe, render and emit, each with the stages whose
outputs it reads, its output file, its function, and that file's writer and
reader. `run` executes every row in memory; a stage command executes one row
over the earlier stages' files. Either way every output is first written as
`<name>.tmp` and moved into place only after all of the command's stages
have succeeded, so a failed command leaves the output directory as it was. A
successful command then removes the outputs of later stages, which no longer
follow from it. `render` writes the benchmark and `emit` the run manifest.

With the decorator disabled the emitted benchmark is a pure function of the
input documents and the configuration, so two runs with one seed produce
byte-identical output files and equal manifest digests (timestamps are kept
out of the digest).
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from . import __version__
from .captions import (
    benchmark_categories,
    default_templates,
    load_templates,
    pairs_from_jsonl,
    pairs_to_jsonl,
    protected_values,
    render_pair,
)
from .decorator import DecoratorConfig, Transport, decorate
from .documents import read_json, read_text, write_outputs
from .errors import (
    ConfigError,
    EmptyInput,
    MalformedDocument,
    OutputExists,
    StageFailed,
)
from .manipulate import apply_corpus, records_from_jsonl, records_to_jsonl
from .profiles import DatasetProfile, load_profile
from .scene_graph import (
    graphs_from_jsonl,
    graphs_to_jsonl,
    load_scene_graph,
    validate,
)


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
        if not _is_int(merged["global_seed"]):
            raise ConfigError(
                f"malformed config: global_seed must be an integer, got {merged['global_seed']!r}"
            )
        try:
            decorator = DecoratorConfig(**(merged.get("decorator") or {}))
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
                if len(set(categories)) < len(categories):
                    repeated = next(c for i, c in enumerate(categories) if c in categories[:i])
                    raise ConfigError(f"malformed config: categories lists {repeated!r} more than once")
            raw_quotas = merged.get("quotas") or {}
            if not isinstance(raw_quotas, Mapping):
                raise ConfigError("quotas must map category keys to counts")
            for key, quota in raw_quotas.items():
                if not (_is_int(quota) and quota >= 0):
                    raise ConfigError(
                        f"malformed config: quota for {key!r} must be a non-negative integer, got {quota!r}"
                    )
            templates_path = merged.get("templates_path")
            if templates_path is not None and not isinstance(templates_path, str):
                raise ConfigError(f"templates_path must be a path string, got {templates_path!r}")
            return cls(
                global_seed=merged["global_seed"],
                profile_path=str(merged["profile_path"]),
                input_glob=str(merged["input_glob"]),
                output_dir=str(merged["output_dir"]),
                quotas={str(k): v for k, v in raw_quotas.items()},
                categories=categories,
                templates_path=templates_path,
                decorator=decorator,
                force=bool(merged.get("force", False)),
            )
        except KeyError as exc:
            raise ConfigError(f"config lacks required key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from None

    @classmethod
    def from_file(cls, path: str | Path, **overrides: Any) -> "PipelineConfig":
        """from_doc over one file; every error names the file."""
        try:
            doc = read_json(path, ConfigError(f"config file not found: {path}"))
        except MalformedDocument as exc:
            raise ConfigError(str(exc)) from None
        try:
            return cls.from_doc(doc, **overrides)
        except ConfigError as exc:
            raise ConfigError(f"{exc} (config file {path})") from None

    def digest(self) -> str:
        doc = dataclasses.asdict(self)
        del doc["force"]
        if self.categories is not None:
            doc["categories"] = sorted(self.categories)
        return _sha256(doc)


def _is_int(value: Any) -> bool:
    """Whether value is a JSON integer: an int, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _sha256(doc: Mapping[str, Any]) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


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
        """Over every field but the timestamps."""
        doc = dataclasses.asdict(self)
        del doc["started_at"], doc["finished_at"]
        return _sha256(doc)

    def to_json(self) -> str:
        doc = {**dataclasses.asdict(self), "digest": self.digest()}
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def resolve_categories(config: PipelineConfig, profile: DatasetProfile):
    """Categories the run processes: the config's subset, or all-from-profile.
    Raises ConfigError for a quota or category key the profile lacks."""
    unknown = sorted(set(config.quotas) - {cat.key for cat in profile.category_set})
    if unknown:
        raise ConfigError(f"quota keys not in profile categories: {', '.join(unknown)}")
    if config.categories is None:
        return None
    try:
        return tuple(profile.category(key) for key in config.categories)
    except MalformedDocument as exc:
        raise ConfigError(str(exc)) from None


# Each stage function takes the config, the values of the stages before it
# by name (computed in this command or loaded from their files), the
# decorator transport and the time the command started, and returns its
# stage's value.
def _ingest(config: PipelineConfig, values: Mapping[str, Any], transport: Transport | None, started_at: float) -> list:
    """Parse and profile-validate every document matched by the input glob."""
    profile = load_profile(config.profile_path)
    paths = sorted(glob.glob(config.input_glob))
    if not paths:
        raise EmptyInput(f"input glob {config.input_glob!r} matched no files")
    graphs = sorted((load_scene_graph(p) for p in paths), key=lambda g: g.video_id)
    problems = []
    for graph in graphs:
        for violation in validate(graph, profile):
            problems.append(f"{graph.video_id}/{violation.tuple_id}: {violation.kind} ({violation.detail})")
    if problems:
        raise MalformedDocument(
            "corpus uses vocabulary the profile does not license:\n  " + "\n  ".join(problems)
        )
    return graphs


def _probe(config: PipelineConfig, values: Mapping[str, Any], transport: Transport | None, started_at: float) -> list:
    profile = load_profile(config.profile_path)
    categories = resolve_categories(config, profile)
    return apply_corpus(
        values["ingest"], profile, config.quotas, config.global_seed, categories=categories
    )


def _render(config: PipelineConfig, values: Mapping[str, Any], transport: Transport | None, started_at: float) -> list:
    templates = (
        load_templates(config.templates_path) if config.templates_path else default_templates()
    )
    pairs = []
    for record in values["probe"]:
        pair = render_pair(record, templates)
        if config.decorator.enabled:
            pair = decorate(
                pair, config.decorator, required=protected_values(record), transport=transport
            )
        pairs.append(pair)
    benchmark_categories(pairs)  # raises on no pairs or a repeated pair_id
    return pairs


def _emit(config: PipelineConfig, values: Mapping[str, Any], transport: Transport | None, started_at: float) -> RunManifest:
    """The run manifest. Its stage_counts are the line counts of the earlier
    outputs, one line per item, so that `emit` run on its own reports what
    `run` does: a stage this command did not load is counted on disk."""

    def lines(name: str) -> int:
        if name in values:
            return len(values[name])
        return _read_output(Path(config.output_dir), STAGE_BY_NAME[name]).count("\n")

    pairs = values["render"]
    captions = [caption for pair in pairs for caption in (pair.positive, pair.negative)]
    return RunManifest(
        tool_version=__version__,
        config_digest=config.digest(),
        stage_counts={"videos": lines("ingest"), "records": lines("probe"), "pairs": len(pairs)},
        per_category=benchmark_categories(pairs),
        decorator_failures=(
            sum(c.renderer == "template" for c in captions) if config.decorator.enabled else 0
        ),
        started_at=started_at,
        finished_at=time.time(),
    )


@dataclass(frozen=True)
class Stage:
    """One row of the pipeline. A command that runs this stage on its own
    first loads the outputs of the stages named in reads, in table order;
    read gets the text and path of this stage's output and the values
    loaded so far."""

    name: str
    reads: tuple[str, ...]
    output: str
    fn: Callable[[PipelineConfig, Mapping[str, Any], Transport | None, float], Any]
    write: Callable[[Any], str]
    read: Callable[[str, str, Mapping[str, Any]], Any] | None


STAGES: tuple[Stage, ...] = (
    Stage("ingest", (), "graphs.jsonl", _ingest, graphs_to_jsonl,
          lambda text, name, values: graphs_from_jsonl(text, name)),
    Stage("probe", ("ingest",), "records.jsonl", _probe, records_to_jsonl,
          lambda text, name, values: records_from_jsonl(text, values["ingest"], name)),
    # records.jsonl is relative to graphs.jsonl, so render loads both.
    Stage("render", ("ingest", "probe"), "benchmark.jsonl", _render, pairs_to_jsonl,
          lambda text, name, values: pairs_from_jsonl(text, name)),
    Stage("emit", ("render",), "run_manifest.json", _emit, RunManifest.to_json, None),
)
STAGE_BY_NAME = {stage.name: stage for stage in STAGES}


def _read_output(out_dir: Path, stage: Stage) -> str:
    path = out_dir / stage.output
    return read_text(path, EmptyInput(f"{path} not found; run {stage.name} first"))


def run_stages(
    config: PipelineConfig, names: Sequence[str], transport: Transport | None = None
) -> RunManifest | None:
    """Execute one stage, or every stage in table order; returns the run
    manifest when emit is among them, else None.

    The stages before the first named one contribute their output files in
    the output directory. The first failing stage aborts the command with a
    StageFailed error naming the stage, and the directory is left as it was.
    """
    started_at = time.time()
    stages = [stage for stage in STAGES if stage.name in names]
    out_dir = Path(config.output_dir)
    first, last = STAGES.index(stages[0]), STAGES.index(stages[-1])
    if not config.force:
        for stage in STAGES[first : last + 1]:
            if (out_dir / stage.output).exists():
                raise OutputExists(f"{out_dir / stage.output} exists; rerun with force")
    out_dir.mkdir(parents=True, exist_ok=True)

    values: dict[str, Any] = {}
    texts: dict[str, str] = {}
    for stage in stages:
        try:
            for name in stage.reads:
                if name not in values:
                    source = STAGE_BY_NAME[name]
                    text = _read_output(out_dir, source)
                    values[name] = source.read(text, str(out_dir / source.output), values)
            values[stage.name] = stage.fn(config, values, transport, started_at)
            texts[stage.output] = stage.write(values[stage.name])
        except Exception as exc:
            raise StageFailed(stage.name, exc) from exc
    write_outputs(out_dir, texts, remove=[stage.output for stage in STAGES[last + 1 :]])
    return values.get("emit")


def run_pipeline(
    config: PipelineConfig, transport: Transport | None = None
) -> RunManifest:
    """Execute every stage in memory; returns the run manifest."""
    return run_stages(config, list(STAGE_BY_NAME), transport)
