"""eventprobe benchmark: seeded inputs, one workload per run, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; eventprobe is imported from its
`src/`. The run generates the workload's inputs from the seed (untimed),
measures set-up in several fresh processes, then runs the workload's jobs
in one more fresh process for S seconds. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it spends half the time untraced and
half traced and reports the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A fuller record, with provenance and the traced spans, is written under
perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("probe-dense", "stages-wide", "eval-csv", "loss-step")
SETUP_SAMPLES = 7  # fresh processes whose set-up time is measured, worker included
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(int(current), nproc)) if current.isdigit() and int(current) > 0 else str(nproc)
    return env


def run_worker(args: list[str], env: dict[str, str], deadline: float) -> dict:
    """Start one worker, wait for it, and return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=max(deadline - time.monotonic(), 1.0),
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "eventprobe" / "__init__.py").is_file():
        print(f"error: no eventprobe sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    os.environ.update({var: env[var] for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import numpy as np

    import eventprobe
    import gen

    if Path(eventprobe.__file__).resolve().parent != SRC / "eventprobe":
        print(f"error: imported eventprobe from {eventprobe.__file__}", file=sys.stderr)
        return 2

    work = HERE / "_work" / args.workload
    started = time.perf_counter()
    inputs = gen.generate(args.workload, args.seed, work / "inputs")
    generate_s = time.perf_counter() - started
    inputs_path = work / "inputs.json"
    inputs_path.write_text(json.dumps(inputs, indent=1), encoding="utf-8")

    common = ["--workload", args.workload, "--inputs", str(inputs_path)]
    # The first process compiles bytecode and warms the file cache; users
    # do not pay that on every start, so it is not a sample.
    run_worker([*common, "--setup-only"], env, deadline)
    setup_samples = [
        run_worker([*common, "--setup-only"], env, deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    out_dir = HERE / "_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_worker(
        [
            *common,
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--trace-out", str(out_dir / f"spans-{stem}.jsonl"),
        ],
        env,
        deadline,
    )
    setup_samples.append(result["setup_s"])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        values, wanted = result["layers"], spec["per_layer"]
    else:
        values, wanted = dict(result, setup_s=statistics.median(setup_samples)), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "nproc": nproc,
            "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "eventprobe": eventprobe.__version__,
        },
        "generate_s": generate_s,
        "setup_samples_s": setup_samples,
        "inputs": inputs,
        "worker": result,
        "metrics": metrics,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({k: record[k] for k in ("provenance", "generate_s", "setup_samples_s")}))
    if result.get("job_s_p90") is not None:
        print(json.dumps({"job_s_p90": result["job_s_p90"], "samples": result["jobs_timed"]}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
