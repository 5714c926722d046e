"""Retrieval pools, Recall@k, and relative performance gaps.

Similarity scores arrive from outside as CSV matrices (this package never
runs a model). Ranking uses competition ranking with pessimistic ties: every
candidate tied with the correct item counts ahead of it, so constant-score
models never get credit.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .captions import CaptionPair
from .errors import (
    EmptyInput,
    EmptyMatrix,
    MalformedDocument,
    MissingNegative,
    UnknownId,
    ZeroBaseline,
)

T2V = "T2V"
V2T = "V2T"
DIRECTIONS = (T2V, V2T)


@dataclass(frozen=True)
class ScoreMatrix:
    """Dense video-by-caption similarity scores."""

    video_ids: tuple[str, ...]
    caption_ids: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "scores", scores)
        if scores.shape != (len(self.video_ids), len(self.caption_ids)):
            raise MalformedDocument(
                f"score shape {scores.shape} does not match "
                f"{len(self.video_ids)} videos x {len(self.caption_ids)} captions"
            )
        if len(set(self.video_ids)) != len(self.video_ids):
            raise MalformedDocument("duplicate video ids")
        if len(set(self.caption_ids)) != len(self.caption_ids):
            raise MalformedDocument("duplicate caption ids")
        if scores.size and not np.isfinite(scores).all():
            raise MalformedDocument("scores must all be finite")

    def submatrix(
        self, video_ids: Sequence[str], caption_ids: Sequence[str]
    ) -> "ScoreMatrix":
        row_index = {v: i for i, v in enumerate(self.video_ids)}
        col_index = {c: j for j, c in enumerate(self.caption_ids)}
        try:
            rows = [row_index[v] for v in video_ids]
            cols = [col_index[c] for c in caption_ids]
        except KeyError as exc:
            raise UnknownId(f"id {exc.args[0]!r} not in score matrix") from None
        return ScoreMatrix(
            video_ids=tuple(video_ids),
            caption_ids=tuple(caption_ids),
            scores=self.scores[np.ix_(rows, cols)],
        )


def score_matrix_from_csv(text: str) -> ScoreMatrix:
    """Parse the CSV interchange format: header 'video_id,<caption ids...>'."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedDocument("empty score CSV") from None
    if not header or header[0] != "video_id":
        raise MalformedDocument("first header cell must be 'video_id'")
    caption_ids = tuple(header[1:])
    video_ids: list[str] = []
    rows: list[list[float]] = []
    for line in reader:
        if not line:
            continue
        if len(line) != len(caption_ids) + 1:
            raise MalformedDocument(f"row {line[0]!r} has {len(line) - 1} scores")
        video_ids.append(line[0])
        try:
            rows.append([float(cell) for cell in line[1:]])
        except ValueError as exc:
            raise MalformedDocument(f"row {line[0]!r}: {exc}") from None
    return ScoreMatrix(
        video_ids=tuple(video_ids),
        caption_ids=caption_ids,
        scores=np.array(rows, dtype=np.float64).reshape(len(video_ids), len(caption_ids)),
    )


def load_score_matrix(path: str | Path) -> ScoreMatrix:
    return score_matrix_from_csv(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class GroundTruth:
    """Which captions are correct for which video (1-to-1 per caption)."""

    video_to_captions: Mapping[str, frozenset[str]]
    caption_to_video: Mapping[str, str]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable[str]]) -> "GroundTruth":
        video_to_captions: dict[str, frozenset[str]] = {}
        caption_to_video: dict[str, str] = {}
        for video_id, captions in mapping.items():
            caption_set = frozenset(captions)
            if not caption_set:
                raise MalformedDocument(f"video {video_id!r} has no correct caption")
            video_to_captions[video_id] = caption_set
            for caption_id in caption_set:
                if caption_id in caption_to_video:
                    raise MalformedDocument(
                        f"caption {caption_id!r} marked correct for two videos"
                    )
                caption_to_video[caption_id] = video_id
        return cls(video_to_captions=video_to_captions, caption_to_video=caption_to_video)

    @classmethod
    def from_json(cls, text: str) -> "GroundTruth":
        try:
            mapping = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"invalid JSON: {exc}") from exc
        if not isinstance(mapping, dict):
            raise MalformedDocument("ground truth must be an object")
        return cls.from_mapping(mapping)


def _pessimistic_rank(scores: np.ndarray, correct_index: int) -> int:
    """Competition rank of the correct item; ties count ahead of it."""
    s = scores[correct_index]
    greater = int(np.count_nonzero(scores > s))
    tied = int(np.count_nonzero(scores == s)) - 1
    return 1 + greater + tied


def recall_at_k(
    m: ScoreMatrix, gt: GroundTruth, k: int, direction: str
) -> float:
    """Fraction of queries whose correct item ranks within the top k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    if m.scores.size == 0:
        raise EmptyMatrix("score matrix has no entries")

    row_index = {v: i for i, v in enumerate(m.video_ids)}
    col_index = {c: j for j, c in enumerate(m.caption_ids)}

    if direction == T2V:
        hits = 0
        queries = sorted(gt.caption_to_video)
        for caption_id in queries:
            video_id = gt.caption_to_video[caption_id]
            if caption_id not in col_index or video_id not in row_index:
                raise UnknownId(f"{caption_id!r}/{video_id!r} missing from matrix")
            column = m.scores[:, col_index[caption_id]]
            if _pessimistic_rank(column, row_index[video_id]) <= k:
                hits += 1
        return hits / len(queries)

    hits = 0
    queries = sorted(gt.video_to_captions)
    for video_id in queries:
        if video_id not in row_index:
            raise UnknownId(f"video {video_id!r} missing from matrix")
        row = m.scores[row_index[video_id]]
        best_rank = None
        for caption_id in gt.video_to_captions[video_id]:
            if caption_id not in col_index:
                raise UnknownId(f"caption {caption_id!r} missing from matrix")
            rank = _pessimistic_rank(row, col_index[caption_id])
            best_rank = rank if best_rank is None else min(best_rank, rank)
        if best_rank is not None and best_rank <= k:
            hits += 1
    return hits / len(queries)


@dataclass(frozen=True)
class RecallReport:
    direction: str
    k: int
    value: float
    pool: str
    category: str


@dataclass(frozen=True)
class GapReport:
    category: str
    direction: str
    k: int
    p: float
    p_control: float
    delta_p: float


def relative_gap(p: float, p_control: float) -> float:
    """(p - p_control) / p; undefined (ZeroBaseline) when p is zero."""
    if p == 0:
        raise ZeroBaseline("baseline performance is zero; gap undefined")
    return (p - p_control) / p


# --- pools -----------------------------------------------------------------


@dataclass(frozen=True)
class RetrievalPool:
    """One category's candidate set: caption ids aligned with their texts."""

    category: str
    kind: str  # positive | control
    video_ids: tuple[str, ...]
    caption_ids: tuple[str, ...]
    texts: Mapping[str, str]
    gt: GroundTruth


def build_control_pool(
    pairs: Sequence[CaptionPair],
) -> dict[str, tuple[RetrievalPool, RetrievalPool]]:
    """Build per-category (positive, control) pool twins from caption pairs.

    Both pools share caption ids (the pair ids) and ground truth; the control
    pool swaps each caption's text for the pair's negative.
    """
    if not pairs:
        raise EmptyInput("no caption pairs")
    by_category: dict[str, list[CaptionPair]] = {}
    for pair in pairs:
        if not pair.negative.text.strip():
            raise MissingNegative(f"pair {pair.pair_id!r} lacks negative text")
        by_category.setdefault(pair.category.key, []).append(pair)

    pools: dict[str, tuple[RetrievalPool, RetrievalPool]] = {}
    for category, members in sorted(by_category.items()):
        members = sorted(members, key=lambda p: p.pair_id)
        caption_ids = tuple(p.pair_id for p in members)
        video_ids = tuple(sorted({p.video_id for p in members}))
        gt_mapping: dict[str, set[str]] = {}
        for pair in members:
            gt_mapping.setdefault(pair.video_id, set()).add(pair.pair_id)
        gt = GroundTruth.from_mapping(gt_mapping)
        pools[category] = (
            RetrievalPool(
                category=category,
                kind="positive",
                video_ids=video_ids,
                caption_ids=caption_ids,
                texts={p.pair_id: p.positive.text for p in members},
                gt=gt,
            ),
            RetrievalPool(
                category=category,
                kind="control",
                video_ids=video_ids,
                caption_ids=caption_ids,
                texts={p.pair_id: p.negative.text for p in members},
                gt=gt,
            ),
        )
    return pools


def evaluate_pools(
    pairs: Sequence[CaptionPair],
    positive_scores: ScoreMatrix,
    control_scores: ScoreMatrix,
    ks: Sequence[int] = (1, 5),
    directions: Sequence[str] = DIRECTIONS,
) -> tuple[list[RecallReport], list[GapReport]]:
    """Compute per-category recalls on both pools and the resulting gaps.

    Categories whose positive recall is zero yield no gap row (the gap is
    undefined there), but their recall rows are still reported.
    """
    pools = build_control_pool(pairs)
    recalls: list[RecallReport] = []
    gaps: list[GapReport] = []
    for category, (positive_pool, control_pool) in pools.items():
        m_pos = positive_scores.submatrix(
            positive_pool.video_ids, positive_pool.caption_ids
        )
        m_ctl = control_scores.submatrix(
            control_pool.video_ids, control_pool.caption_ids
        )
        for direction in directions:
            for k in ks:
                p = recall_at_k(m_pos, positive_pool.gt, k, direction)
                p_control = recall_at_k(m_ctl, control_pool.gt, k, direction)
                recalls.append(
                    RecallReport(direction=direction, k=k, value=p, pool="positive", category=category)
                )
                recalls.append(
                    RecallReport(direction=direction, k=k, value=p_control, pool="control", category=category)
                )
                if p > 0:
                    gaps.append(
                        GapReport(
                            category=category,
                            direction=direction,
                            k=k,
                            p=p,
                            p_control=p_control,
                            delta_p=relative_gap(p, p_control),
                        )
                    )
    return recalls, gaps


def summarize(
    gaps: Sequence[GapReport],
    out_dir: str | Path,
    model: str = "unknown",
) -> dict[str, Path]:
    """Write the gap CSV and a scatter-data file; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gaps_path = out_dir / "gaps.csv"
    scatter_path = out_dir / "scatter.csv"

    with gaps_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category", "direction", "k", "p", "p_control", "delta_p"])
        for gap in gaps:
            writer.writerow(
                [gap.category, gap.direction, gap.k, repr(gap.p), repr(gap.p_control), repr(gap.delta_p)]
            )

    with scatter_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category", "model", "delta_p"])
        for gap in gaps:
            writer.writerow([gap.category, model, repr(gap.delta_p)])

    return {"gaps": gaps_path, "scatter": scatter_path}


def gap_rows_from_csv(text: str) -> list[GapReport]:
    """Read gap rows from a recall CSV in either of two layouts.

    Wide rows (category,direction,k,p,p_control[,delta_p]) come from
    summarize or by hand. Long rows (category,direction,k,pool,value) are
    what `eval` writes as recalls.csv: each positive row is paired with the
    control row of its category, direction and k. In both layouts, as in
    evaluate_pools, a zero positive recall yields no gap row, unless a wide
    row gives its own delta_p.
    """
    reader = csv.DictReader(io.StringIO(text))
    columns = set(reader.fieldnames or ())
    try:
        if {"category", "direction", "k", "pool", "value"} <= columns:
            return _gap_rows_from_long(reader)
        if not {"category", "direction", "k", "p", "p_control"} <= columns:
            raise MalformedDocument(
                "recall CSV needs columns category,direction,k,pool,value "
                "or category,direction,k,p,p_control"
            )
        rows = []
        for raw in reader:
            p = float(raw["p"])
            p_control = float(raw["p_control"])
            if raw.get("delta_p"):
                delta = float(raw["delta_p"])
            elif p == 0:
                continue
            else:
                delta = relative_gap(p, p_control)
            rows.append(
                GapReport(
                    category=raw["category"],
                    direction=raw["direction"],
                    k=int(raw["k"]),
                    p=p,
                    p_control=p_control,
                    delta_p=delta,
                )
            )
        return rows
    except (TypeError, ValueError) as exc:
        raise MalformedDocument(f"bad recall CSV row: {exc}") from None


def _gap_rows_from_long(reader: csv.DictReader) -> list[GapReport]:
    recalls: dict[tuple[str, str, int], dict[str, float]] = {}
    for raw in reader:
        key = (raw["category"], raw["direction"], int(raw["k"]))
        pools = recalls.setdefault(key, {})
        if raw["pool"] in pools:
            raise MalformedDocument(f"recall CSV: duplicate {raw['pool']} row for {key}")
        pools[raw["pool"]] = float(raw["value"])
    rows = []
    for (category, direction, k), pools in recalls.items():
        if set(pools) != {"positive", "control"}:
            raise MalformedDocument(
                f"recall CSV: {category} {direction} k={k} needs one positive "
                f"and one control row, found {sorted(pools)}"
            )
        p, p_control = pools["positive"], pools["control"]
        if p > 0:
            rows.append(
                GapReport(
                    category=category,
                    direction=direction,
                    k=k,
                    p=p,
                    p_control=p_control,
                    delta_p=relative_gap(p, p_control),
                )
            )
    return rows


def make_gap_report(
    category: str, direction: str, k: int, p: float, p_control: float
) -> GapReport:
    return GapReport(
        category=category,
        direction=direction,
        k=k,
        p=p,
        p_control=p_control,
        delta_p=relative_gap(p, p_control),
    )
