"""One workload in a fresh process: set-up, closed-loop jobs, checks, trace.

Run by run.py, never concurrently with another worker. Prints one JSON
object as its last line of standard output.

    python3 worker.py --workload NAME --inputs INPUTS.json --seconds S --trace 0|1
    python3 worker.py --workload NAME --inputs INPUTS.json --setup-only

Jobs run back to back with one client (closed loop), after one untimed
warm-up job. Every job's outputs are checked outside its timed region; a
job that raises or fails a check counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

PIPELINE_WORKLOADS = ("probe-dense", "stages-wide")

# On a VM that shares its host, CPU speed drifts by a quarter or more within
# a minute, and a job's time drifts with it. So the fixed calibration task
# below runs between jobs, and every reported time is scaled to the speed at
# which that task takes CAL_REF_S (its typical time on a 2-vCPU x86 VM at
# 2.1 GHz). Raw wall times go to the result file too.
CAL_REF_S = 0.060
_CAL_DOC = [
    {"id": i, "name": f"n{i}", "vals": [i * 0.5, i * 1.5], "tags": ["a", "b"]} for i in range(2000)
]


def calibration_s() -> float:
    """Wall time of a fixed pure-Python task of the kind eventprobe does:
    a JSON round trip, float parsing, sorting and dict building."""
    start = time.perf_counter()
    for _ in range(4):
        docs = json.loads(json.dumps(_CAL_DOC))
        [
            [float(x) for x in f"{d['id']}.125,{d['vals'][0]},{d['vals'][1]}".split(",")]
            for d in docs
        ]
        sorted(docs, key=lambda d: -d["vals"][1])
        {d["name"]: (d["id"], tuple(d["tags"])) for d in docs}
    return time.perf_counter() - start


def setup(workload: str, inputs: dict) -> float:
    """What the workload's fresh process pays before its first job."""
    start = time.perf_counter()
    import eventprobe.cli  # noqa: F401

    if workload in PIPELINE_WORKLOADS:
        from eventprobe.captions import default_templates
        from eventprobe.profiles import load_profile

        config = json.loads(Path(inputs["config"]).read_text(encoding="utf-8"))
        load_profile(config["profile_path"])
        default_templates()
    return time.perf_counter() - start


def run_cli(argv: list[str]) -> None:
    """`eventprobe ARGV` in this process, its stdout discarded; raises on a nonzero exit."""
    from eventprobe import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"eventprobe {argv[0]} exited with {code}")


def _digest_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class PipelineJob:
    """`eventprobe run`, or the four stage commands, over one config."""

    def __init__(self, inputs: dict, staged: bool) -> None:
        self.config = inputs["config"]
        self.out = Path(json.loads(Path(self.config).read_text(encoding="utf-8"))["output_dir"])
        self.staged = staged
        reference = inputs.get("reference_benchmark")
        self.reference = reference and hashlib.sha256(Path(reference).read_bytes()).hexdigest()

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        commands = ("ingest", "probe", "render", "emit") if self.staged else ("run",)
        for command in commands:
            run_cli([command, "--config", self.config])

    def fingerprint(self, result) -> str:
        # run_manifest.json holds wall-clock timestamps; its digest field
        # covers everything else in it.
        files = sorted(p for p in self.out.iterdir() if p.name != "run_manifest.json")
        digest = _digest_files(files)
        manifest = self.out / "run_manifest.json"
        if manifest.exists():
            digest += json.loads(manifest.read_text(encoding="utf-8"))["digest"]
        return digest

    def check(self, result) -> str | None:
        if self.reference is None:
            return None
        produced = hashlib.sha256((self.out / "benchmark.jsonl").read_bytes()).hexdigest()
        if produced != self.reference:
            return "staged benchmark.jsonl differs from `run` on the same config"
        return None


class EvalJob:
    """`eventprobe eval --ks 1,5,10` over a pipeline-built benchmark."""

    def __init__(self, inputs: dict, out: Path) -> None:
        self.inputs = inputs
        self.out = out
        self.expected = json.loads(Path(inputs["expected"]).read_text(encoding="utf-8"))

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        i = self.inputs
        run_cli(
            [
                "eval",
                "--benchmark", i["benchmark"],
                "--scores", i["scores"],
                "--scores-control", i["scores_control"],
                "--ks", i["ks"],
                "--out", str(self.out),
            ]
        )

    def fingerprint(self, result) -> str:
        return _digest_files(sorted(self.out.iterdir()))

    def check(self, result) -> str | None:
        """Every recall equals the sort-based oracle computed by the generator."""
        lines = (self.out / "recalls.csv").read_text(encoding="utf-8").splitlines()
        got = {}
        for line in lines[1:]:
            category, direction, k, pool, value = line.split(",")
            got[f"{category},{direction},{k},{pool}"] = float(value)
        if got != self.expected:
            wrong = sorted(k for k in self.expected if got.get(k) != self.expected[k])
            return f"recalls differ from the oracle at {wrong[:3]}"
        return None


class LossJob:
    """One training step: build the batch, then `hn_nce_grad`."""

    def __init__(self, inputs: dict) -> None:
        import numpy as np

        from eventprobe import losses

        # Calls go through the module, where the tracer wraps them.
        self.losses = losses
        self.params = losses.LossParams(tau=inputs["tau"], beta=inputs["beta"])
        with np.load(inputs["batch"]) as data:
            self.V, self.T, self.G = data["V"], data["T"], tuple(data["G"])
        with np.load(inputs["check"]) as data:
            self.check_batch = losses.LossBatch(V=data["V"], T=data["T"], G=tuple(data["G"]))
        self.gradient_checked = False

    def reset(self) -> None:
        pass

    def run(self):
        batch = self.losses.LossBatch(V=self.V, T=self.T, G=self.G)
        return batch, self.losses.hn_nce_grad(batch, self.params)

    def fingerprint(self, result) -> str:
        _, out = result
        h = hashlib.sha256(repr(out.loss).encode())
        for array in (out.grad_V, out.grad_T, *out.grad_G):
            h.update(array.tobytes())
        return h.hexdigest()

    def check(self, result) -> str | None:
        import numpy as np

        if not self.gradient_checked:
            self.gradient_checked = True
            err = self.losses.finite_diff_check(self.check_batch, self.params, h=1e-5)
            if not err <= 1e-6:
                return f"finite-difference error {err:.3e} > 1e-6 on the sqrt(tau)-scaled batch"
        batch, out = result
        forward = self.losses.hn_nce_forward(batch, self.params)
        if out.loss != forward:
            return f"hn_nce_grad loss {out.loss!r} != hn_nce_forward {forward!r}"
        weights = self.losses.hn_nce_weights(batch, self.params)
        off_diagonal = ~np.eye(batch.n_items, dtype=bool)
        if not (np.isfinite(weights.v2t_in).all() and (weights.v2t_in[off_diagonal] > 0).all()):
            return "in-batch weights are not all finite and positive"
        return None


def make_job(workload: str, inputs: dict, work: Path):
    if workload == "probe-dense":
        return PipelineJob(inputs, staged=False)
    if workload == "stages-wide":
        return PipelineJob(inputs, staged=True)
    if workload == "eval-csv":
        return EvalJob(inputs, work / "reports")
    if workload == "loss-step":
        return LossJob(inputs)
    raise ValueError(f"unknown workload {workload!r}")


class Loop:
    """Closed loop of checked jobs; every job's fingerprint must match the first."""

    def __init__(self, job) -> None:
        self.job = job
        self.reference: str | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def once(self, tracer=None) -> float | None:
        """Run one job; its wall time, or None if it failed."""
        job = self.job
        job.reset()
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                result = job.run()
                elapsed = time.perf_counter() - start
            else:
                tracer.start_job()
                with tracer.span("job"):
                    start = time.perf_counter()
                    result = job.run()
                    elapsed = time.perf_counter() - start
            problem = job.check(result)
            fingerprint = job.fingerprint(result)
        except Exception:
            problem = traceback.format_exc()
        else:
            if self.reference is None:
                self.reference = fingerprint
            elif fingerprint != self.reference:
                problem = "outputs differ from the first job's"
        if problem is not None:
            self.failures.append(problem)
            print(f"job {self.attempted} failed: {problem}", file=sys.stderr)
            return None
        return elapsed

    def for_seconds(self, seconds: float, tracer=None) -> list[tuple[float | None, float]]:
        """(wall time, or None if the job failed; speed factor) per job.

        The speed factor scales a wall time to calibrated seconds, from the
        calibration runs just before and just after the job.
        """
        samples: list[tuple[float | None, float]] = []
        deadline = time.perf_counter() + seconds
        before = calibration_s()
        while time.perf_counter() < deadline or not samples:
            elapsed = self.once(tracer)
            after = calibration_s()
            samples.append((elapsed, 2 * CAL_REF_S / (before + after)))
            before = after
            if len(samples) >= 3 and all(t is None for t, _ in samples):
                break
        return samples


def calibrated(samples: list[tuple[float | None, float]]) -> list[float]:
    return [t * factor for t, factor in samples if t is not None]


def percentile_with_tail(times: list[float], q: float) -> float | None:
    """The q-quantile, only if at least ten samples lie beyond it."""
    if len(times) * (1 - q) < 10:
        return None
    return statistics.quantiles(times, n=100, method="inclusive")[round(q * 100) - 1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="input description from the generator")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))

    setup_wall_s = setup(args.workload, inputs)
    setup_s = setup_wall_s * CAL_REF_S / statistics.median(calibration_s() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    job = make_job(args.workload, inputs, Path(args.inputs).parent)
    loop = Loop(job)
    loop.once()  # warm-up: untimed, but checked and the fingerprint reference

    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "items_per_job": inputs["items"]}
    if args.trace:
        from spans import Tracer

        plain = loop.for_seconds(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = loop.for_seconds(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        if args.trace_out:
            tracer.write(Path(args.trace_out))
        layers = tracer.summary([factor for _, factor in traced])
        layers["trace.overhead_frac"] = layers["trace.job_s"] / statistics.median(calibrated(plain)) - 1
        layers["evaluate.tie_share"] = inputs.get("tie_share", 0.0)
        result.update(layers=layers, missing_callees=tracer.missing, samples=plain + traced)
    else:
        samples = loop.for_seconds(args.seconds)
        times = calibrated(samples)
        result.update(
            samples=samples,
            jobs_timed=len(times),
            job_s_p50=statistics.median(times),
            job_s_p90=percentile_with_tail(times, 0.9),
            items_per_s=inputs["items"] * len(times) / sum(times),
        )
    result.update(
        attempted=loop.attempted,
        failed=len(loop.failures),
        failures=[f[-2000:] for f in loop.failures],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
