"""Command-line interface.

`run` executes the whole pipeline from one JSON config; the stage commands
(ingest, probe, render, emit) each execute one stage over the previous
stages' files in the configured output directory, so external score
matrices can be injected between emit and eval. Each error class carries
its stable exit code (see errors.py).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .captions import pairs_from_jsonl
from .documents import decode, in_halves, naming, parse_json, read_text, require_numbers
from .errors import ConfigError, EmptyInput, EventProbeError, MalformedDocument
from .pipeline import STAGE_BY_NAME, PipelineConfig, run_stages

if TYPE_CHECKING:
    from .evaluate import (
        DIRECTIONS, build_control_pool, child_pays, evaluate_pools, gap_rows_from_csv, load_score_matrix, pool_ranks,
        summarize,
    )
    from .losses import LossBatch, LossParams, finite_diff_check, hn_nce_forward

# The names below come from modules that import numpy, which only eval,
# gap-report and loss-selftest use; so a pipeline command starts without it.
# They are bound in this module on first use, and stay reachable as its
# attributes through __getattr__.
_LAZY_NAMES = {
    "evaluate": ("DIRECTIONS", "build_control_pool", "child_pays", "evaluate_pools", "gap_rows_from_csv",
                 "load_score_matrix", "pool_ranks", "summarize"),
    "losses": ("LossBatch", "LossParams", "finite_diff_check", "hn_nce_forward"),
}


def _bind(module: str) -> None:
    """Binds the names this module uses from eventprobe.<module>. A name
    already bound keeps its value, so a wrapper set around it stays."""
    owner = importlib.import_module(f"{__package__}.{module}")
    for name in _LAZY_NAMES[module]:
        globals().setdefault(name, getattr(owner, name))


def __getattr__(name: str):
    for module, names in _LAZY_NAMES.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_stage(args: argparse.Namespace) -> int:
    config = PipelineConfig.from_file(
        args.config,
        global_seed=args.seed,
        output_dir=args.out,
        force=True if args.force else None,
    )
    names = list(STAGE_BY_NAME) if args.command == "run" else [args.command]
    manifest = run_stages(config, names)
    if manifest is None:
        print(f"wrote {Path(config.output_dir) / STAGE_BY_NAME[args.command].output}")
    else:
        print(manifest.to_json(), end="")
    return 0


def _eval_flags(args: argparse.Namespace) -> tuple[list[int], list[str]]:
    """--ks and --directions as lists; ConfigError unless each is a non-empty
    comma-separated list of distinct valid values."""
    ks = [k.strip() for k in args.ks.split(",") if k.strip()]
    if not ks or not all(k.isdecimal() and int(k) >= 1 for k in ks) or len(set(map(int, ks))) < len(ks):
        raise ConfigError(f"--ks {args.ks!r}: need distinct integers >= 1, comma-separated")
    directions = [d.strip() for d in args.directions.split(",") if d.strip()]
    if not directions or not set(directions) <= set(DIRECTIONS) or len(set(directions)) < len(directions):
        raise ConfigError(
            f"--directions {args.directions!r}: need distinct values from {','.join(DIRECTIONS)}"
        )
    return [int(k) for k in ks], directions


def cmd_eval(args: argparse.Namespace) -> int:
    _bind("evaluate")
    ks, directions = _eval_flags(args)
    benchmark, control = args.benchmark, args.scores_control
    text = read_text(benchmark, EmptyInput(f"benchmark file not found: {benchmark}"))
    pools = build_control_pool(pairs_from_jsonl(text, benchmark))
    # Each score matrix is ranked over the pools in the process that reads
    # it: --scores here, --scores-control in a child on a second CPU when
    # that pays. A bad benchmark has won already; of the two files, a load
    # error wins over a rank error, and at one step that of --scores.
    ranks, control_ranks = in_halves(
        (args.scores, control),
        (load_score_matrix, partial(pool_ranks, pools, directions=directions)),
        child_pays(control),
        f"{control}: the process reading it",
    )
    recalls, gaps = evaluate_pools(ranks, control_ranks, ks)
    paths = summarize(gaps, args.out, model=args.model, recalls=recalls)
    print(f"wrote {paths['gaps']}, {paths['scatter']}, {paths['recalls']}")
    return 0


def cmd_gap_report(args: argparse.Namespace) -> int:
    _bind("evaluate")
    path = args.recalls
    text = read_text(path, EmptyInput(f"recall CSV not found: {path}"))
    with naming(path):
        gaps = gap_rows_from_csv(text)
    paths = summarize(gaps, args.out, model=args.model)
    print(f"wrote {paths['gaps']}, {paths['scatter']}")
    return 0


def cmd_loss_selftest(args: argparse.Namespace) -> int:
    _bind("losses")
    import numpy as np  # eventprobe.losses has loaded it
    if args.input:
        text = read_text(args.input, EmptyInput(f"self-test input not found: {args.input}"))
    with naming(args.input or "stdin"):
        doc = parse_json(text if args.input else decode(sys.stdin.buffer.read()))
        params = LossParams(**{key: doc[key] for key in ("tau", "beta") if key in doc})
        G = () if doc.get("G") is None else require_numbers(doc, "G")
        batch = LossBatch(V=require_numbers(doc, "V"), T=require_numbers(doc, "T"), G=G)
        # A similarity v.t / tau past the float range makes the results NaN
        # or infinite: they are checked, not every similarity.
        with np.errstate(over="ignore", invalid="ignore"):
            loss, err = hn_nce_forward(batch, params), finite_diff_check(batch, params)
        if not np.isfinite((loss, err)).all():
            raise MalformedDocument(f"loss {loss}, fd_max_rel_err {err}: a similarity v.t / tau overflows a float")
    print(json.dumps({"loss": loss, "fd_max_rel_err": err}, allow_nan=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventprobe",
        description="Scene-graph probing benchmarks for video-language models",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "run the full pipeline"),
        ("ingest", "parse and validate scene-graph documents into graphs.jsonl"),
        ("probe", "enumerate sites and apply manipulations into records.jsonl"),
        ("render", "render caption pairs from records into benchmark.jsonl"),
        ("emit", "write the run manifest, run_manifest.json"),
    ):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--seed", type=int, default=None, help="override global_seed")
        p.add_argument("--out", default=None, help="override output_dir")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        p.set_defaults(handler=cmd_stage)

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
    p.set_defaults(handler=cmd_loss_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except EventProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
