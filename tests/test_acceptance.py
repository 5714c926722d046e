"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines.
"""

import math
import random
import time

import numpy as np

from eventprobe.evaluate import GroundTruth, ScoreMatrix, recall_at_k, relative_gap
from eventprobe.captions import render_pair
from eventprobe.losses import (
    LossBatch,
    LossParams,
    finite_diff_check,
    hn_nce_forward,
    hn_nce_weights,
)
from eventprobe.manipulate import (
    CounterfactualSite,
    apply_site,
    enumerate_candidates,
    neighborhood_attribute_swap,
    temporal_attribute_swap,
    temporal_predicate_swap,
)
from eventprobe.pipeline import PipelineConfig, run_pipeline

from .goldens import GOLDEN_TEXTS, build_golden_records
from .helpers import (
    Workspace,
    infonce_oracle,
    oracle_recall,
    random_batch,
    random_neighborhood_tuple,
    random_observation_pair,
    random_predicate_pair,
    random_profile_graph,
)


def _report(number: int, name: str, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"criterion {number:02d} PASS: {name}{suffix}")


def test_criterion_01_involution_suite():
    """Double application of each swap operator restores the originals."""
    rng = random.Random(20240501)
    started = time.perf_counter()
    for _ in range(1000):
        e1, e2 = random_predicate_pair(rng)
        assert temporal_predicate_swap(*temporal_predicate_swap(e1, e2)) == (e1, e2)
    for _ in range(1000):
        o1, o2 = random_observation_pair(rng)
        assert temporal_attribute_swap(*temporal_attribute_swap(o1, o2)) == (o1, o2)
    for _ in range(1000):
        tup = random_neighborhood_tuple(rng)
        assert neighborhood_attribute_swap(neighborhood_attribute_swap(tup)) == tup
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"involution suite took {elapsed:.2f}s"
    _report(1, "involution suite, 1000 pairs per swap operator", elapsed)


def test_criterion_02_counterfactual_validity(profile):
    """Substitutes are false within their graph and keep the fine type."""
    rng = random.Random(20240502)
    started = time.perf_counter()
    categories = [c for c in profile.category_set if c.method == "counterfactual"]
    checked = 0
    while checked < 10_000:
        graph = random_profile_graph(rng, profile)

        def truthful(entity_id, fine_type, predicate_slot):
            values = set()
            for tup in graph.tuples:
                if predicate_slot:
                    if (
                        tup.subject.entity_id == entity_id
                        and tup.predicate is not None
                        and tup.predicate.pred_type == fine_type
                    ):
                        values.add(tup.predicate.value)
                else:
                    if tup.subject.entity_id == entity_id:
                        values.update(
                            a.value for a in tup.subject_attrs if a.attr_type == fine_type
                        )
                    if tup.object is not None and tup.object.entity_id == entity_id:
                        values.update(
                            a.value for a in tup.object_attrs if a.attr_type == fine_type
                        )
            return values

        for category in categories:
            for site in enumerate_candidates(graph, profile, category):
                assert isinstance(site, CounterfactualSite)
                original, manipulated, pool_size = apply_site(
                    graph, profile, category, site, random.Random(checked)
                )
                orig, manip = original[0], manipulated[0]
                if category.target == "predicate":
                    new_value = manip.predicate.value
                    assert manip.predicate.pred_type == category.fine_type
                    assert new_value not in truthful(
                        orig.subject.entity_id, category.fine_type, True
                    )
                else:
                    changed = [
                        (o, m)
                        for o, m in zip(orig.subject_attrs, manip.subject_attrs)
                        if o != m
                    ]
                    assert len(changed) == 1
                    old, new = changed[0]
                    assert new.attr_type == old.attr_type == category.fine_type
                    assert new.value not in truthful(
                        orig.subject.entity_id, category.fine_type, False
                    )
                assert pool_size is not None and pool_size >= 1
                checked += 1
                if checked >= 10_000:
                    break
            if checked >= 10_000:
                break
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"counterfactual validity took {elapsed:.2f}s"
    _report(2, f"counterfactual validity over {checked} seeded substitutions", elapsed)


def test_criterion_03_recall_oracle_equivalence():
    """recall_at_k equals the exhaustive sort-based oracle, ties included."""
    rng = random.Random(20240503)
    started = time.perf_counter()
    for trial in range(200):
        rows = rng.randint(1, 50)
        # Odd trials add unassigned distractor captions to the candidate set.
        cols = rows if trial % 2 == 0 else min(50, rows + rng.randint(1, 5))
        scores = np.empty((rows, cols))
        tie_heavy = trial % 4 < 2
        for r in range(rows):
            for c in range(cols):
                scores[r, c] = rng.randint(0, 4) if tie_heavy else rng.random()
        assigned = rng.sample(range(1, cols + 1), rows)
        gt = GroundTruth.from_mapping(
            {f"v{i+1}": [f"c{assigned[i]}"] for i in range(rows)}
        )
        m = ScoreMatrix(
            video_ids=tuple(f"v{i}" for i in range(1, rows + 1)),
            caption_ids=tuple(f"c{j}" for j in range(1, cols + 1)),
            scores=scores,
        )
        for k in (1, 5, 10):
            for direction in ("T2V", "V2T"):
                assert recall_at_k(m, gt, k, direction) == oracle_recall(m, gt, k, direction)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"recall equivalence took {elapsed:.2f}s"
    _report(3, "recall oracle equivalence on 200 random matrices", elapsed)


def test_criterion_04_relative_gap_formula():
    """Gap formula is exact at machine precision."""
    assert math.isclose(relative_gap(0.5, 0.4), 0.2, rel_tol=0, abs_tol=1e-15)
    rng = random.Random(20240504)
    for _ in range(100):
        p = rng.uniform(1e-9, 1.0)
        assert relative_gap(p, p) == 0.0
    _report(4, "relative performance gap formula")


def test_criterion_05_loss_reduction():
    """beta=1 with no generated negatives matches symmetric InfoNCE.

    With two in-batch items every negative weight collapses to exactly one,
    which is the regime where the weighted loss coincides with the standard
    two-term InfoNCE; single-item batches have no negatives at all and give
    exactly zero.
    """
    rng = np.random.default_rng(20240505)
    for _ in range(100):
        batch = random_batch(rng, n=2, gen_max=0)
        tau = float(rng.uniform(0.05, 1.0))
        ours = hn_nce_forward(batch, LossParams(tau=tau, beta=1.0))
        oracle = infonce_oracle(batch.V, batch.T, tau)
        assert abs(ours - oracle) < 1e-12
    for _ in range(20):
        d = int(rng.integers(1, 16))
        single = LossBatch(V=rng.normal(size=(1, d)), T=rng.normal(size=(1, d)))
        assert hn_nce_forward(single, LossParams(tau=0.05, beta=0.5)) == 0.0
    _report(5, "loss reduces to symmetric InfoNCE (2-item batches, beta=1)")


def test_criterion_06_gradient_check():
    """Analytic gradient agrees with central differences to 1e-6."""
    rng = np.random.default_rng(20240506)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        tau = float(np.exp(rng.uniform(np.log(0.01), 0.0)))
        beta = float(rng.uniform(0.0, 2.0))
        # Tying the embedding scale to tau caps |s|/tau at 2, so no partial
        # falls below what central differencing at h=1e-5 can resolve.
        batch = random_batch(rng, n_max=8, d_max=16, gen_max=4, scale=math.sqrt(tau))
        err = finite_diff_check(batch, LossParams(tau=tau, beta=beta), h=1e-5)
        worst = max(worst, err)
        assert err <= 1e-6, f"fd error {err:.3e} at tau={tau:.4f} beta={beta:.3f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"gradient check took {elapsed:.2f}s"
    _report(6, f"gradient check, worst relative error {worst:.2e}", elapsed)


def test_criterion_07_weight_identity():
    """At beta=1 the text-to-video weights per anchor sum to N-1."""
    rng = np.random.default_rng(20240507)
    for _ in range(100):
        batch = random_batch(rng, n_max=8, d_max=16, gen_max=4)
        n = batch.n_items
        if n == 1:
            continue
        w = hn_nce_weights(batch, LossParams(tau=float(rng.uniform(0.05, 1.0)), beta=1.0))
        for i in range(n):
            total = float(sum(w.t2v[j, i] for j in range(n) if j != i))
            assert abs(total - (n - 1)) <= 1e-9
    _report(7, "weight normalization identity at beta=1")


def test_criterion_08_pipeline_determinism(tmp_path):
    """Two runs with one seed emit byte-identical benchmarks."""
    ws = Workspace(tmp_path)
    first = run_pipeline(PipelineConfig.from_file(ws.config))
    bytes_first = (ws.out / "benchmark.jsonl").read_bytes()
    second = run_pipeline(PipelineConfig.from_file(ws.config, force=True))
    bytes_second = (ws.out / "benchmark.jsonl").read_bytes()
    assert bytes_first == bytes_second
    assert first.digest() == second.digest()
    _report(8, "pipeline determinism at seed 42")


# Hand-enumerated site counts over the fixture corpus, frozen before the
# enumerator was written: see the per-file walkthrough in the fixture JSONs.
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


def test_criterion_09_category_coverage(corpus, profile):
    """Enumerated sites match the hand counts for all 8 categories."""
    counted = {}
    for category in profile.category_set:
        counted[category.key] = sum(
            len(enumerate_candidates(graph, profile, category)) for graph in corpus
        )
    assert counted == EXPECTED_SITE_COUNTS
    _report(9, "category coverage matches hand enumeration (8 categories)")


def test_criterion_10_template_goldens(templates):
    """All 8 categories render both polarities to the frozen golden strings."""
    records = build_golden_records()
    assert set(records) == set(GOLDEN_TEXTS)
    for key, record in records.items():
        pair = render_pair(record, templates)
        expected_positive, expected_negative = GOLDEN_TEXTS[key]
        assert pair.positive.text == expected_positive, key
        assert pair.negative.text == expected_negative, key
    action_pair = render_pair(records["counterfactual.predicate.Action"], templates)
    assert "carries" in action_pair.positive.text
    assert "assembles" in action_pair.negative.text
    _report(10, "template goldens, 8 categories x 2 polarities")
