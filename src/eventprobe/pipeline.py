"""End-to-end pipeline: one table of stages, run whole or one stage at a time.

`STAGES` lists ingest, probe, render and emit, each with its output file,
its function, and that file's writer and reader. `run` executes every row
in memory; a stage command executes one row over the earlier stages' files.
Either way every output is first written as `<name>.tmp` and moved into
place only after all of the command's stages have succeeded, so a failed
command leaves the output directory as it was. A successful command then
removes the outputs of later stages, which no longer follow from it.
`render` writes the benchmark and `emit` the run manifest.

Where two CPUs are usable, a command with work to overlap uses both:
`run` composes graphs.jsonl in a forked child while its later stages run,
and a lone `probe` or `render` computes the second half of its categories
or records in one while it computes the first. The bytes, errors and exit
codes are those of one pass in one process.

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
import os
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

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
from .decorator import DecoratorConfig, decorate
from .documents import (
    in_child, in_halves, jsonl_lines, naming, read_json, read_text, require, require_strings, write_outputs,
)
from .errors import (
    ConfigError,
    EmptyInput,
    EventProbeError,
    MalformedDocument,
    OutputExists,
)
from .manipulate import ManipulationRecord, apply_corpus, records_from_jsonl, records_to_jsonl
from .profiles import DatasetProfile, load_profile
from .scene_graph import (
    graphs_from_jsonl,
    graphs_to_jsonl,
    load_scene_graph,
    validate,
)


@dataclass(frozen=True)
class PipelineConfig:
    """The document that reproduces a benchmark run, identified by digest()."""

    global_seed: int
    profile_path: str
    input_glob: str
    output_dir: str
    quotas: Mapping[str, int]
    categories: tuple[str, ...] | None  # None means all-from-profile
    templates_path: str | None
    decorator: DecoratorConfig
    force: bool

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any], **overrides: Any) -> "PipelineConfig":
        merged = dict(doc)
        for key, value in overrides.items():
            if value is not None:
                merged[key] = value
        unknown = sorted(set(merged) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(f"malformed config: unknown key {', '.join(map(repr, unknown))}")
        if merged.get("global_seed") is None:
            raise ConfigError("global_seed is required; there is no wall-clock default")
        try:
            quotas = {} if merged.get("quotas") is None else require(merged, "quotas", dict)
            with naming("quotas"):
                for key in quotas:
                    if require(quotas, key, int) < 0:
                        raise MalformedDocument(f"key {key!r} must be a non-negative integer, got {quotas[key]}")
            categories = merged.get("categories")
            if categories == "all-from-profile":
                categories = None
            elif isinstance(categories, str):
                raise MalformedDocument(
                    f"categories must be a list of category keys or \"all-from-profile\", "
                    f"got the string {categories!r}"
                )
            elif categories is not None:
                categories = require_strings(merged, "categories")
                if len(set(categories)) < len(categories):
                    repeated = next(c for i, c in enumerate(categories) if c in categories[:i])
                    raise MalformedDocument(f"categories lists {repeated!r} more than once")
            output_dir = require(merged, "output_dir", str)
            if not output_dir:  # Path("") is the working directory
                raise MalformedDocument("key 'output_dir' must name a directory, got an empty string")
            templates_path = merged.get("templates_path")
            if templates_path is not None and not require(merged, "templates_path", str):
                raise MalformedDocument("key 'templates_path' must name a file, got an empty string")
            decorator = {} if merged.get("decorator") is None else require(merged, "decorator", dict)
            return cls(
                global_seed=require(merged, "global_seed", int),
                profile_path=require(merged, "profile_path", str),
                input_glob=require(merged, "input_glob", str),
                output_dir=output_dir,
                quotas=dict(quotas),
                categories=categories,
                templates_path=templates_path,
                decorator=DecoratorConfig(**decorator),
                force=require(merged, "force", bool) if "force" in merged else False,
            )
        except (MalformedDocument, TypeError) as exc:  # TypeError: an unknown decorator key
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
    """Categories the run processes: the config's subset in profile order, or
    all-from-profile (None). The config's list acts as a set, as it does in
    the config digest. Raises ConfigError for a quota or category key the
    profile lacks, and EmptyInput when no category is left to probe."""
    unknown = sorted(set(config.quotas) - {cat.key for cat in profile.category_set})
    if unknown:
        raise ConfigError(f"quota keys not in profile categories: {', '.join(unknown)}")
    if config.categories == ():
        raise EmptyInput("config key 'categories' lists no category; nothing to probe")
    if config.categories is None:
        if not profile.category_set:
            raise EmptyInput(f"profile {config.profile_path} declares no categories; nothing to probe")
        return None
    try:
        named = {profile.category(key) for key in config.categories}
    except MalformedDocument as exc:
        raise ConfigError(str(exc)) from None
    return tuple(cat for cat in profile.category_set if cat in named)


# Each stage function takes the config, the values of the stages before it
# by name (computed in this command or loaded from their files) and the time
# the command started, and returns its stage's value.
def _ingest(config: PipelineConfig, values: Mapping[str, Any], started_at: float) -> list:
    """Parse and profile-validate every document matched by the input glob."""
    profile = load_profile(config.profile_path)
    paths = sorted(glob.glob(config.input_glob))
    if not paths:
        raise EmptyInput(f"input glob {config.input_glob!r} matched no files")
    sources: dict[str, str] = {}  # video_id -> the file that gave it
    graphs = []
    for path in paths:
        graph = load_scene_graph(path)
        if graph.video_id in sources:
            raise MalformedDocument(f"{sources[graph.video_id]} and {path} both have video_id {graph.video_id!r}")
        sources[graph.video_id] = path
        graphs.append(graph)
    graphs.sort(key=lambda g: g.video_id)
    for graph in graphs:
        with naming(sources[graph.video_id]):
            validate(graph, profile)
    return graphs


def _probe(config: PipelineConfig, values: Mapping[str, Any], started_at: float) -> list:
    profile = load_profile(config.profile_path)
    categories = resolve_categories(config, profile)
    return apply_corpus(
        values["ingest"], profile, config.quotas, config.global_seed, categories=categories
    )


def _render_records(config: PipelineConfig, records: Sequence[ManipulationRecord]) -> list:
    """The caption pair of each record, decorated when the config asks."""
    templates = (
        load_templates(config.templates_path) if config.templates_path is not None else default_templates()
    )
    pairs = []
    for record in records:
        pair = render_pair(record, templates)
        if config.decorator.enabled:
            pair = decorate(pair, config.decorator, required=protected_values(record))
        pairs.append(pair)
    return pairs


def _render(config: PipelineConfig, values: Mapping[str, Any], started_at: float) -> list:
    pairs = _render_records(config, values["probe"])
    benchmark_categories(pairs)  # raises on no pairs or a repeated pair_id
    return pairs


def _emit(config: PipelineConfig, values: Mapping[str, Any], started_at: float) -> RunManifest:
    """The run manifest. Its stage_counts are the item counts of the earlier
    outputs, so that `emit` run on its own reports what `run` does: it loads
    the pairs from benchmark.jsonl, and counts a stage this command did not
    compute on disk, one item per line that parse_jsonl would parse."""
    out_dir = Path(config.output_dir)

    def lines(name: str) -> int:
        if name in values:
            return len(values[name])
        return sum(1 for _ in jsonl_lines(_read_output(out_dir, STAGE_BY_NAME[name])))

    pairs = values["render"] if "render" in values else _load(out_dir, "render")
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


# The `alone` functions of the stage table: each reads the earlier outputs
# itself and returns its stage's output text, and computes the second half
# of its work through documents.in_halves.
def _probe_alone(config: PipelineConfig, out_dir: Path) -> str:
    """records.jsonl for the first half of the categories, in profile order,
    then for the second. Records are seeded and numbered per category, so
    the halves joined are the bytes of one pass."""
    graphs = _load(out_dir, "ingest")
    profile = load_profile(config.profile_path)
    categories = resolve_categories(config, profile) or profile.category_set
    cut = (len(categories) + 1) // 2
    for graph in graphs:
        graph.groups  # built here, once, not in both processes
    first, second = in_halves(
        (categories[:cut], categories[cut:]),
        (lambda group: apply_corpus(graphs, profile, config.quotas, config.global_seed, categories=group),
         records_to_jsonl),
        f"{out_dir / STAGE_BY_NAME['probe'].output}: the process writing it",
    )
    return first + second


def _render_alone(config: PipelineConfig, out_dir: Path) -> str:
    """benchmark.jsonl for records.jsonl cut at the line boundary nearest
    the middle of its text: the pairs of each part, parsed with the line
    numbers of the whole file and rendered, then checked and written
    together."""
    graphs = _load(out_dir, "ingest")
    source = STAGE_BY_NAME["probe"]
    text, name = _read_output(out_dir, source), str(out_dir / source.output)
    middle = len(text) // 2
    before, after = text.rfind("\n", 0, middle) + 1, text.find("\n", middle) + 1 or len(text)
    cut = before if middle - before <= after - middle else after
    first, second = in_halves(
        ((text[:cut], 1), (text[cut:], text.count("\n", 0, cut) + 1)),
        (lambda part: records_from_jsonl(part[0], graphs, name, part[1]), partial(_render_records, config)),
        f"{out_dir / STAGE_BY_NAME['render'].output}: the process writing it",
    )
    pairs = first + second
    benchmark_categories(pairs)
    return pairs_to_jsonl(pairs)


@dataclass(frozen=True)
class Stage:
    """One row of the pipeline. read, when set, parses the text of this
    stage's output, given the file's path for its errors. A command that
    runs this stage on its own calls alone when it is set, which gives the
    text, and the error, that loading the earlier outputs, fn and write
    would; otherwise it calls fn, which loads what it needs."""

    name: str
    output: str
    fn: Callable[[PipelineConfig, Mapping[str, Any], float], Any]
    write: Callable[[Any], str]
    read: Callable[[str, str], Any] | None
    alone: Callable[[PipelineConfig, Path], str] | None = None


STAGES: tuple[Stage, ...] = (
    Stage("ingest", "graphs.jsonl", _ingest, graphs_to_jsonl, graphs_from_jsonl),
    # records.jsonl is read relative to graphs.jsonl, by _render_alone.
    Stage("probe", "records.jsonl", _probe, records_to_jsonl, None, _probe_alone),
    Stage("render", "benchmark.jsonl", _render, pairs_to_jsonl, pairs_from_jsonl, _render_alone),
    Stage("emit", "run_manifest.json", _emit, RunManifest.to_json, None),
)
STAGE_BY_NAME = {stage.name: stage for stage in STAGES}


def _read_output(out_dir: Path, stage: Stage) -> str:
    path = out_dir / stage.output
    return read_text(path, EmptyInput(f"{path} not found; run {stage.name} first"))


def _load(out_dir: Path, name: str) -> Any:
    """The value of stage name's output in out_dir."""
    source = STAGE_BY_NAME[name]
    return source.read(_read_output(out_dir, source), str(out_dir / source.output))


@contextmanager
def _failing(stage: Stage) -> Iterator[None]:
    """Raises an error from inside again with the stage's name in front."""
    try:
        yield
    except Exception as exc:
        klass = type(exc) if isinstance(exc, EventProbeError) else EventProbeError
        raise klass(f"stage '{stage.name}' failed: {exc}") from exc


def run_stages(config: PipelineConfig, names: Sequence[str]) -> RunManifest | None:
    """Execute one stage, or every stage in table order; returns the run
    manifest when emit is among them, else None.

    The stages before the first named one contribute their output files in
    the output directory. The first failing stage aborts the command, and
    the directory is left as it was. Its error is raised again as the same
    class, its message prefixed with "stage '<name>' failed: "; any other
    exception becomes an EventProbeError with that prefix. Either way the
    new error is chained from the original.

    When later stages follow ingest, as in `run`, none of them reads
    graphs.jsonl's text, so it is composed by documents.in_child, in a
    forked child while they run when two CPUs are usable, and taken just
    before the outputs are written. A lone probe or render runs its stage's
    `alone` instead, which computes the second half of its work through
    documents.in_halves. A lone ingest or emit never forks. The bytes,
    errors and exit codes are the same whether a child computes or this
    process does; a child that ends without its value fails its stage with
    an EventProbeError naming the file it was computing.
    """
    started_at = time.time()
    stages = [stage for stage in STAGES if stage.name in names]
    out_dir = Path(config.output_dir)
    first, last = STAGES.index(stages[0]), STAGES.index(stages[-1])
    # Name an output directory at or under a file before a stage reads there.
    existing = next((path for path in (out_dir, *out_dir.parents) if os.path.exists(path)), out_dir)
    if not os.path.isdir(existing):
        raise ConfigError(f"cannot write output directory {out_dir}: Not a directory")
    if not config.force:
        for stage in STAGES[first : last + 1]:
            if (out_dir / stage.output).exists():
                raise OutputExists(f"{out_dir / stage.output} exists; rerun with force")

    values: dict[str, Any] = {}
    texts: dict[str, str] = {}
    take_graphs_text = None  # set when ingest has later stages to overlap
    with ExitStack() as children:
        for stage in stages:
            with _failing(stage):
                if stage.alone is not None and len(stages) == 1:
                    texts[stage.output] = stage.alone(config, out_dir)
                    continue
                value = values[stage.name] = stage.fn(config, values, started_at)
                if stage is STAGES[0] and stage is not stages[-1]:
                    take_graphs_text = children.enter_context(in_child(
                        partial(stage.write, value), f"{out_dir / stage.output}: the process writing it"
                    ))
                else:
                    texts[stage.output] = stage.write(value)
        if take_graphs_text is not None:
            with _failing(STAGES[0]):
                texts = {STAGES[0].output: take_graphs_text(), **texts}
    write_outputs(out_dir, texts, remove=[stage.output for stage in STAGES[last + 1 :]])
    return values.get("emit")


def run_pipeline(config: PipelineConfig) -> RunManifest:
    """Execute every stage in memory; returns the run manifest."""
    return run_stages(config, list(STAGE_BY_NAME))
