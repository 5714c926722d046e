"""Command-line interface.

`run` executes the whole pipeline from one JSON config; the stage commands
(ingest, probe, render, emit) operate on the previous stage's files in the
configured output directory, so external score matrices can be injected
between emit and eval. Exit codes are stable per error class (see
EXIT_CODES).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import __version__, errors
from .captions import (
    emit_benchmark,
    default_templates,
    load_templates,
    pairs_from_jsonl,
    pairs_to_jsonl,
    protected_values,
    render_pair,
)
from .decorator import decorate
from .errors import EventProbeError, StageFailed
from .evaluate import (
    DIRECTIONS,
    evaluate_pools,
    gap_rows_from_csv,
    load_score_matrix,
    summarize,
)
from .losses import LossBatch, LossParams, finite_diff_check, hn_nce_forward
from .manipulate import (
    apply_corpus,
    derive_seed,
    records_from_jsonl,
    records_to_jsonl,
)
from .pipeline import PipelineConfig, ingest_corpus, resolve_categories, run_pipeline
from .profiles import load_profile
from .scene_graph import parse_jsonl, parse_scene_graph, scene_graph_to_doc

EXIT_CODES: tuple[tuple[type[EventProbeError], int], ...] = (
    (errors.ConfigError, 2),
    (errors.ProfileNotFound, 3),
    (errors.OutputExists, 5),
    (errors.EmptyInput, 6),
    (errors.TemplateMissing, 7),
    (errors.TemplateSlotMissing, 7),
    (errors.MissingNegative, 8),
    (errors.UnknownId, 8),
    (errors.EmptyMatrix, 8),
    (errors.ZeroBaseline, 8),
    (errors.ManipulationError, 9),
    (errors.MalformedDocument, 4),
)


def exit_code_for(exc: Exception) -> int:
    if isinstance(exc, StageFailed) and isinstance(exc.cause, Exception):
        return exit_code_for(exc.cause)
    for klass, code in EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 1


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig.from_file(
        args.config,
        global_seed=args.seed,
        output_dir=args.out,
        force=True if args.force else None,
        jobs=args.jobs,
    )


def _write_jsonl(path: Path, lines: str, force: bool) -> None:
    if path.exists() and not force:
        raise errors.OutputExists(f"{path} exists; pass --force to overwrite")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(lines, encoding="utf-8")


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    manifest = run_pipeline(config)
    print(json.dumps(manifest.to_doc(), indent=2, sort_keys=True))
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    profile = load_profile(config.profile_path)
    graphs = ingest_corpus(config, profile)
    lines = "".join(
        json.dumps(scene_graph_to_doc(g), ensure_ascii=False, separators=(",", ":")) + "\n"
        for g in graphs
    )
    out = Path(config.output_dir) / "graphs.jsonl"
    _write_jsonl(out, lines, config.force)
    print(f"ingested {len(graphs)} videos -> {out}")
    return 0


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise errors.MalformedDocument(f"{path} is not UTF-8: {exc}") from None


def _read_graphs(path: Path) -> list:
    if not path.exists():
        raise errors.EmptyInput(f"{path} not found; run ingest first")
    return parse_jsonl(_read_text(path), parse_scene_graph, "graphs.jsonl")


def cmd_probe(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    profile = load_profile(config.profile_path)
    graphs = _read_graphs(Path(config.output_dir) / "graphs.jsonl")
    records = apply_corpus(
        graphs,
        profile,
        config.quotas,
        config.global_seed,
        categories=resolve_categories(config, profile),
    )
    out = Path(config.output_dir) / "records.jsonl"
    _write_jsonl(out, records_to_jsonl(records), config.force)
    print(f"produced {len(records)} manipulation records -> {out}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    graphs = _read_graphs(Path(config.output_dir) / "graphs.jsonl")
    records_path = Path(config.output_dir) / "records.jsonl"
    if not records_path.exists():
        raise errors.EmptyInput(f"{records_path} not found; run probe first")
    records = records_from_jsonl(_read_text(records_path), graphs)
    templates = (
        load_templates(config.templates_path)
        if config.templates_path
        else default_templates()
    )
    pairs = []
    for record in records:
        pair = render_pair(record, templates)
        if config.decorator.enabled:
            pair = decorate(
                pair,
                config.decorator,
                random.Random(derive_seed(record.seed, "decorate")),
                required=protected_values(record),
            )
        pairs.append(pair)
    out = Path(config.output_dir) / "pairs.jsonl"
    _write_jsonl(out, pairs_to_jsonl(pairs), config.force)
    print(f"rendered {len(pairs)} caption pairs -> {out}")
    return 0


def cmd_emit(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    pairs_path = Path(config.output_dir) / "pairs.jsonl"
    if not pairs_path.exists():
        raise errors.EmptyInput(f"{pairs_path} not found; run render first")
    pairs = pairs_from_jsonl(_read_text(pairs_path))
    profile = load_profile(config.profile_path)
    out = Path(config.output_dir) / "benchmark.jsonl"
    manifest = emit_benchmark(
        pairs,
        out,
        seed=config.global_seed,
        profile_name=profile.name,
        force=config.force,
    )
    manifest_path = Path(config.output_dir) / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest.to_doc(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"emitted {manifest.total} pairs -> {out}")
    return 0


def _eval_flags(args: argparse.Namespace) -> tuple[list[int], list[str]]:
    """--ks and --directions as lists; ConfigError unless each is a non-empty
    comma-separated list of distinct valid values."""
    ks = [k.strip() for k in args.ks.split(",") if k.strip()]
    if not ks or not all(k.isdecimal() and int(k) >= 1 for k in ks) or len(set(map(int, ks))) < len(ks):
        raise errors.ConfigError(f"--ks {args.ks!r}: need distinct integers >= 1, comma-separated")
    directions = [d.strip() for d in args.directions.split(",") if d.strip()]
    if not directions or not set(directions) <= set(DIRECTIONS) or len(set(directions)) < len(directions):
        raise errors.ConfigError(
            f"--directions {args.directions!r}: need distinct values from {','.join(DIRECTIONS)}"
        )
    return [int(k) for k in ks], directions


def cmd_eval(args: argparse.Namespace) -> int:
    ks, directions = _eval_flags(args)
    benchmark = Path(args.benchmark)
    if not benchmark.is_file():
        raise errors.EmptyInput(f"benchmark file not found: {benchmark}")
    for scores in (args.scores, args.scores_control):
        if not Path(scores).is_file():
            raise errors.EmptyInput(f"score file not found: {scores}")
    pairs = pairs_from_jsonl(_read_text(benchmark))
    positive = load_score_matrix(args.scores)
    control = load_score_matrix(args.scores_control)
    recalls, gaps = evaluate_pools(pairs, positive, control, ks=ks, directions=directions)
    out_dir = Path(args.out)
    paths = summarize(gaps, out_dir, model=args.model)
    recalls_path = out_dir / "recalls.csv"
    with recalls_path.open("w", encoding="utf-8") as fh:
        fh.write("category,direction,k,pool,value\n")
        for report in recalls:
            fh.write(
                f"{report.category},{report.direction},{report.k},{report.pool},{report.value!r}\n"
            )
    print(f"wrote {paths['gaps']}, {paths['scatter']}, {recalls_path}")
    return 0


def cmd_gap_report(args: argparse.Namespace) -> int:
    path = Path(args.recalls)
    if not path.exists():
        raise errors.EmptyInput(f"recall CSV not found: {path}")
    gaps = gap_rows_from_csv(_read_text(path))
    paths = summarize(gaps, Path(args.out), model=args.model)
    print(f"wrote {paths['gaps']}, {paths['scatter']}")
    return 0


def cmd_loss_selftest(args: argparse.Namespace) -> int:
    if args.input:
        text = _read_text(Path(args.input))
    else:
        text = sys.stdin.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise errors.MalformedDocument(f"self-test input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise errors.MalformedDocument("self-test input must be a JSON object with V and T")
    for name in ("V", "T"):
        if name not in doc:
            raise errors.MalformedDocument(f"self-test input has no {name!r} field")
    params = LossParams(tau=doc.get("tau", 0.05), beta=doc.get("beta", 0.5))
    batch = LossBatch(V=doc["V"], T=doc["T"], G=doc.get("G") or ())
    loss = hn_nce_forward(batch, params)
    err = finite_diff_check(batch, params, h=args.step)
    print(json.dumps({"loss": loss, "fd_max_rel_err": err}))
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override global_seed")
    parser.add_argument("--out", default=None, help="override output_dir")
    parser.add_argument("--force", action="store_true", help="overwrite existing outputs")
    parser.add_argument("--jobs", type=int, default=None, help="parallel workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventprobe",
        description="Scene-graph probing benchmarks for video-language models",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_text in (
        ("run", cmd_run, "run the full pipeline"),
        ("ingest", cmd_ingest, "parse and validate scene-graph documents"),
        ("probe", cmd_probe, "enumerate sites and apply manipulations"),
        ("render", cmd_render, "render caption pairs from records"),
        ("emit", cmd_emit, "write the benchmark JSONL and manifest"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("eval", help="score recalls and gaps from external matrices")
    p.add_argument("--benchmark", required=True, help="benchmark JSONL")
    p.add_argument("--scores", required=True, help="positive-pool scores (.csv, or .npz by suffix)")
    p.add_argument("--scores-control", required=True, help="control-pool scores (.csv, or .npz by suffix)")
    p.add_argument("--ks", default="1,5", help="comma-separated distinct k values >= 1")
    p.add_argument("--directions", default="T2V,V2T", help="comma-separated subset of T2V,V2T")
    p.add_argument("--model", default="unknown", help="model label for reports")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("gap-report", help="recompute gaps from a recall CSV")
    p.add_argument(
        "--recalls",
        required=True,
        help="recalls.csv from eval, or a CSV with category,direction,k,p,p_control",
    )
    p.add_argument("--model", default="unknown")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_gap_report)

    p = sub.add_parser("loss-selftest", help="forward value and gradient check")
    p.add_argument("--input", default=None, help="JSON file (default: stdin)")
    p.add_argument("--step", type=float, default=1e-5, help="finite-difference step")
    p.set_defaults(handler=cmd_loss_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except EventProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
