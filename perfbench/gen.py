"""Seeded input generator for the benchmark.

Every input a workload hands to eventprobe is made here from the workload
seed: scene-graph corpora valid for the package's default profile, pipeline
configs, score matrices and loss-step embeddings. One seed always gives the
same files. Sizes are fixed per workload so that seeds vary the content of
the inputs, not the amount of work.
"""

from __future__ import annotations

import json
import random
import shutil
from importlib import resources
from pathlib import Path

import numpy as np

from worker import run_cli

WORDS = (
    "amber", "basalt", "cedar", "drift", "ember", "fjord", "garnet", "heath",
    "iris", "jasper", "kelp", "lunar", "moss", "nectar", "onyx", "pearl",
    "quartz", "ripple", "slate", "tundra", "umber", "velvet", "wicker", "zephyr",
)
DURATION_S = 1000.0

# probe-dense: few long videos, a quota of 50 per category, so almost every
# enumerated site is thrown away by sampling.
DENSE_VIDEOS, DENSE_TUPLES, DENSE_QUOTA = 20, 200, 50
# stages-wide: many short videos, no quotas, so every site is materialised.
WIDE_VIDEOS, WIDE_TUPLES = 30, 20
# eval-csv: a pipeline-built benchmark of EVAL_QUOTA pairs per category,
# scored against every video in the corpus.
EVAL_VIDEOS, EVAL_TUPLES, EVAL_QUOTA = 854, 8, 250
# loss-step: one training batch.
LOSS_B, LOSS_D, LOSS_GEN, LOSS_TAU, LOSS_BETA = 512, 256, 4, 0.05, 0.5


def default_profile_text() -> str:
    return resources.files("eventprobe.data").joinpath("profile_default.json").read_text("utf-8")


def scene_graph_doc(rng: random.Random, profile: dict, video_id: str, n_tuples: int) -> dict:
    """One video valid for `profile`; every predicate tuple has an object.

    Which tuple has which predicate type, subject, object and attribute
    slots follows a fixed pattern; the seed draws the values, names and
    times. So the amount of work (sites, records) barely depends on the seed.
    """
    vocab = profile["vocab"]
    pred_types = profile["predicate_types"]
    n_entities = max(4, n_tuples // 8)
    entities = [
        {"entity_id": f"e{i}", "name": f"{rng.choice(WORDS)} {i}"} for i in range(n_entities)
    ]
    tuples = []
    for t in range(n_tuples):
        pred_type = pred_types[t % len(pred_types)] if t % 10 < 7 else None
        subject = t % n_entities
        doc = {"tuple_id": f"t{t:04d}", "subject": f"e{subject}", "subject_attrs": []}
        if pred_type is None or t % 2 == 0:
            doc["subject_attrs"].append({"value": rng.choice(vocab["Color"]), "attr_type": "Color"})
        if t % 10 in (1, 4, 8):
            doc["subject_attrs"].append(
                {"value": rng.choice(vocab["Material"]), "attr_type": "Material"}
            )
        doc["object_attrs"] = []
        if pred_type is not None:
            doc["predicate"] = {"value": rng.choice(vocab[pred_type]), "pred_type": pred_type}
            doc["object"] = f"e{(subject + 1 + t % (n_entities - 1)) % n_entities}"
            if t % 5 < 2:
                doc["object_attrs"].append(
                    {"value": rng.choice(vocab["Color"]), "attr_type": "Color"}
                )
        start = round(rng.uniform(0.0, DURATION_S - 10.0), 2)
        doc["time"] = {"start_s": start, "end_s": round(start + rng.uniform(0.0, 8.0), 2)}
        tuples.append(doc)
    return {
        "video_id": video_id,
        "duration_s": DURATION_S,
        "entities": entities,
        "tuples": tuples,
    }


def write_corpus(
    rng: random.Random, out: Path, n_videos: int, n_tuples: int, quota: int | None, seed: int
) -> dict:
    """Corpus, profile and config under `out`; returns the input description."""
    text = default_profile_text()
    profile = json.loads(text)
    (out / "corpus").mkdir(parents=True)
    (out / "profile.json").write_text(text, encoding="utf-8")
    for v in range(n_videos):
        doc = scene_graph_doc(rng, profile, f"vid{v:04d}", n_tuples)
        (out / "corpus" / f"vid{v:04d}.json").write_text(json.dumps(doc), encoding="utf-8")
    config = {
        "global_seed": seed,
        "profile_path": str(out / "profile.json"),
        "input_glob": str(out / "corpus" / "*.json"),
        "output_dir": str(out / "out"),
        "quotas": {key: quota for key in profile["categories"]} if quota else {},
        "categories": "all-from-profile",
        "templates_path": None,
        "decorator": {"enabled": False},
    }
    (out / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    return {"config": str(out / "config.json"), "items": n_videos * n_tuples}


def _scores_csv(path: Path, video_ids: list[str], caption_ids: list[str], scores: np.ndarray) -> None:
    lines = ["video_id," + ",".join(caption_ids)]
    for vid, row in zip(video_ids, scores):
        lines.append(vid + "," + ",".join(f"{s:.3f}" for s in row.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def oracle_recalls(
    pairs: list[dict], video_ids: list[str], caption_ids: list[str], scores: np.ndarray, ks
) -> tuple[dict, float]:
    """Recall@k per (category, direction, k) by full sorting, plus tie share.

    Independent of eventprobe.evaluate: every query's candidates are sorted
    by descending score and the correct item is placed after all candidates
    tied with it (pessimistic competition ranking). The tie share is the
    fraction of correct items, over both directions, that tie with another
    candidate of their query.
    """
    row = {v: i for i, v in enumerate(video_ids)}
    col = {c: j for j, c in enumerate(caption_ids)}
    by_cat: dict[str, list[dict]] = {}
    for p in pairs:
        by_cat.setdefault(p["category"], []).append(p)
    recalls: dict = {}
    tied_items = correct_items = 0

    def pessimistic_rank(column: np.ndarray, correct: int) -> tuple[int, bool]:
        values = column.tolist()
        order = sorted(range(len(values)), key=lambda i: -values[i])
        s = values[correct]
        last_tied = max(pos for pos, i in enumerate(order) if values[i] >= s)
        tied = sum(1 for v in values if v == s) > 1
        return last_tied + 1, tied

    for category, members in sorted(by_cat.items()):
        cap_ids = sorted(p["pair_id"] for p in members)
        vids = sorted({p["video_id"] for p in members})
        sub = scores[np.ix_([row[v] for v in vids], [col[c] for c in cap_ids])]
        owner = {p["pair_id"]: p["video_id"] for p in members}
        vi = {v: i for i, v in enumerate(vids)}
        t2v = []
        for j, c in enumerate(cap_ids):
            rank, tied = pessimistic_rank(sub[:, j], vi[owner[c]])
            t2v.append(rank)
            tied_items += tied
        v2t = []
        for i, v in enumerate(vids):
            best = None
            for j, c in enumerate(cap_ids):
                if owner[c] == v:
                    rank, tied = pessimistic_rank(sub[i], j)
                    tied_items += tied
                    correct_items += 1
                    best = rank if best is None else min(best, rank)
            v2t.append(best)
        correct_items += len(cap_ids)
        for k in ks:
            recalls[(category, "T2V", k)] = sum(r <= k for r in t2v) / len(t2v)
            recalls[(category, "V2T", k)] = sum(r <= k for r in v2t) / len(v2t)
    return recalls, tied_items / correct_items


def write_eval_inputs(rng: random.Random, out: Path, seed: int) -> dict:
    """Benchmark built by one pipeline run, plus two 3-decimal score CSVs.

    Correct video-caption cells get a higher expected score, a little less
    on the control matrix (a model that partly notices the foils). Rounding
    to three decimals makes ties common.
    """
    pipeline_dir = out / "pipeline"
    pipeline_dir.mkdir(parents=True)
    described = write_corpus(rng, pipeline_dir, EVAL_VIDEOS, EVAL_TUPLES, EVAL_QUOTA, seed)
    run_cli(["run", "--config", described["config"]])
    benchmark = pipeline_dir / "out" / "benchmark.jsonl"
    pairs = [json.loads(line) for line in benchmark.read_text(encoding="utf-8").splitlines()]
    video_ids = [f"vid{v:04d}" for v in range(EVAL_VIDEOS)]
    caption_ids = [p["pair_id"] for p in pairs]
    correct = np.zeros((len(video_ids), len(caption_ids)), dtype=bool)
    row = {v: i for i, v in enumerate(video_ids)}
    for j, p in enumerate(pairs):
        correct[row[p["video_id"]], j] = True
    nprng = np.random.default_rng(seed)
    ks = (1, 5, 10)
    expected = {}
    tie_share = {}
    for pool, signal in (("positive", 0.25), ("control", 0.15)):
        scores = np.round(np.clip(nprng.normal(0.5, 0.1, correct.shape) + signal * correct, 0, 1), 3)
        _scores_csv(out / f"scores_{pool}.csv", video_ids, caption_ids, scores)
        recalls, tie_share[pool] = oracle_recalls(pairs, video_ids, caption_ids, scores, ks)
        for (category, direction, k), value in recalls.items():
            expected[f"{category},{direction},{k},{pool}"] = value
    (out / "expected_recalls.json").write_text(json.dumps(expected, indent=1), encoding="utf-8")
    shutil.rmtree(pipeline_dir / "corpus")
    return {
        "benchmark": str(benchmark),
        "scores": str(out / "scores_positive.csv"),
        "scores_control": str(out / "scores_control.csv"),
        "ks": ",".join(str(k) for k in ks),
        "expected": str(out / "expected_recalls.json"),
        "tie_share": (tie_share["positive"] + tie_share["control"]) / 2,
        "items": 2 * len(video_ids) * len(caption_ids),
    }


def write_loss_inputs(out: Path, seed: int) -> dict:
    """Unit-normalised embeddings for one batch, plus a small checking batch.

    The checking batch is scaled by sqrt(tau), which caps |s|/tau at 2 so
    central differences at h=1e-5 resolve every partial derivative.
    """
    out.mkdir(parents=True, exist_ok=True)
    nprng = np.random.default_rng(seed)

    def unit(shape, scale=1.0):
        X = nprng.normal(size=shape)
        return X / np.linalg.norm(X, axis=-1, keepdims=True) * scale

    np.savez(
        out / "loss_batch.npz",
        V=unit((LOSS_B, LOSS_D)),
        T=unit((LOSS_B, LOSS_D)),
        G=unit((LOSS_B, LOSS_GEN, LOSS_D)),
    )
    scale = LOSS_TAU ** 0.5
    np.savez(
        out / "loss_check.npz",
        V=unit((4, 8), scale),
        T=unit((4, 8), scale),
        G=unit((4, 2, 8), scale),
    )
    return {
        "batch": str(out / "loss_batch.npz"),
        "check": str(out / "loss_check.npz"),
        "tau": LOSS_TAU,
        "beta": LOSS_BETA,
        "items": LOSS_B,
    }


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload under `out` and describe them."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    rng = random.Random(seed)
    if workload == "probe-dense":
        return write_corpus(rng, out, DENSE_VIDEOS, DENSE_TUPLES, DENSE_QUOTA, seed)
    if workload == "stages-wide":
        described = write_corpus(rng, out, WIDE_VIDEOS, WIDE_TUPLES, None, seed)
        # The staged commands must give the same bytes as one `run`.
        reference = out / "reference"
        run_cli(["run", "--config", described["config"], "--out", str(reference)])
        described["reference_benchmark"] = str(reference / "benchmark.jsonl")
        return described
    if workload == "eval-csv":
        return write_eval_inputs(rng, out, seed)
    if workload == "loss-step":
        return write_loss_inputs(out, seed)
    raise ValueError(f"unknown workload {workload!r}")
