"""Retrieval pools, Recall@k, and relative performance gaps.

Similarity scores arrive from outside as CSV or .npz matrices (this package
never runs a model). Ranking uses competition ranking with pessimistic ties:
every candidate tied with the correct item counts ahead of it, so
constant-score models never get credit.
"""

from __future__ import annotations

import csv
import io
import zipfile
import zlib
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .captions import CaptionPair
from .documents import open_input, write_outputs
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

    def submatrix(self, video_ids: Sequence[str], caption_ids: Sequence[str]) -> "ScoreMatrix":
        rows = _positions(self.video_ids, video_ids, "video")
        cols = _positions(self.caption_ids, caption_ids, "caption")
        return ScoreMatrix(
            video_ids=tuple(video_ids),
            caption_ids=tuple(caption_ids),
            scores=self.scores[np.ix_(rows, cols)],
        )


def _positions(axis: Sequence[str], ids: Iterable[str], kind: str) -> np.ndarray:
    """Index of each id along one matrix axis; UnknownId if one is absent."""
    index = dict(zip(axis, range(len(axis))))
    try:
        return np.fromiter(map(index.__getitem__, ids), dtype=np.intp)
    except KeyError as exc:
        raise UnknownId(f"{kind} {exc.args[0]!r} missing from score matrix") from None


def score_matrix_from_csv(text: str) -> ScoreMatrix:
    """Parse the CSV interchange format: header 'video_id,<caption ids...>'."""
    return _read_score_csv(io.StringIO(text, newline=""))


def load_score_matrix(path: str | Path) -> ScoreMatrix:
    """Read a score matrix: `.npz` by suffix, CSV otherwise. The file is
    streamed into numpy, not read whole, which bounds memory."""
    with open_input(path, EmptyInput(f"score file not found: {path}")) as fh:
        if Path(path).suffix.lower() == ".npz":
            return _read_score_npz(fh)
        return _read_score_csv(io.TextIOWrapper(fh, encoding="utf-8", newline=""))


def _read_score_csv(fh: TextIO) -> ScoreMatrix:
    """Parse a score CSV from a text stream opened with newline="".

    csv reads the header; one numpy pass reads every data row, handing the
    id column to a converter that collects the ids.
    """
    video_ids: list[str] = []
    line = ""

    def rows() -> Iterator[str]:
        # A leading row of the header's width makes numpy hold every data
        # row to that width; the last line read names the row in an error.
        nonlocal line
        yield ",".join("0" * len(header)) + "\n"
        for line in fh:
            yield line

    def collect_id(cell: str) -> float:
        video_ids.append(cell)
        return 0.0

    try:
        header = next(csv.reader(fh), None)
        if header is None:
            raise MalformedDocument("empty score CSV")
        if not header or header[0] != "video_id":
            raise MalformedDocument("first header cell must be 'video_id'")
        cells = np.loadtxt(
            rows(),
            delimiter=",",
            quotechar='"',
            comments=None,
            ndmin=2,
            dtype=np.float64,
            converters={0: collect_id},
        )
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"score CSV is not UTF-8: {exc}") from None
    except csv.Error as exc:
        raise MalformedDocument(f"score CSV header: {exc}") from None
    except ValueError as exc:
        row = next(csv.reader([line]), None) or [""]
        if len(row) != len(header):
            raise MalformedDocument(f"row {row[0]!r} has {len(row) - 1} scores") from None
        raise MalformedDocument(f"row {row[0]!r}: {exc}") from None
    return ScoreMatrix(
        video_ids=tuple(video_ids[1:]),
        caption_ids=tuple(header[1:]),
        scores=np.ascontiguousarray(cells[1:, 1:]),
    )


NPZ_ARRAYS = ("video_ids", "caption_ids", "scores")


def _read_score_npz(fh: BinaryIO) -> ScoreMatrix:
    """Arrays `video_ids` and `caption_ids` (1-D strings) and `scores` (2-D real)."""
    try:
        data = np.load(fh, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise MalformedDocument("holds one array, not an .npz archive")
        with data:
            missing = [name for name in NPZ_ARRAYS if name not in data.files]
            if missing:
                raise MalformedDocument(f"has no {', '.join(missing)} array")
            video_ids, caption_ids, scores = (data[name] for name in NPZ_ARRAYS)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise MalformedDocument(f"not a readable .npz: {exc}") from None
    for name, ids in (("video_ids", video_ids), ("caption_ids", caption_ids)):
        if ids.ndim != 1 or ids.dtype.kind != "U":
            raise MalformedDocument(f"{name} must be a 1-D string array, got {ids.dtype} {ids.shape}")
    if scores.ndim != 2 or scores.dtype.kind not in "iuf":
        raise MalformedDocument(f"scores must be a 2-D real array, got {scores.dtype} {scores.shape}")
    return ScoreMatrix(
        video_ids=tuple(video_ids.tolist()),
        caption_ids=tuple(caption_ids.tolist()),
        scores=scores,
    )


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


def pessimistic_ranks(m: ScoreMatrix, gt: GroundTruth, direction: str) -> np.ndarray:
    """Competition rank of every query's correct item; ties count ahead of it.

    Queries come in sorted id order: captions for T2V, videos for V2T, where
    a video ranks at its best correct caption. With finite scores the count
    of candidates scoring >= the correct one is exactly 1 + greater + tied.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    if m.scores.size == 0:
        raise EmptyMatrix("score matrix has no entries")
    s = m.scores
    if direction == T2V:
        captions = sorted(gt.caption_to_video)
        rows = _positions(m.video_ids, map(gt.caption_to_video.__getitem__, captions), "video")
        cols = _positions(m.caption_ids, captions, "caption")
        return (s[:, cols] >= s[rows, cols]).sum(axis=0)
    videos = sorted(gt.video_to_captions)
    correct = list(map(gt.video_to_captions.__getitem__, videos))
    counts = np.fromiter(map(len, correct), dtype=np.intp, count=len(correct))
    rows = np.repeat(_positions(m.video_ids, videos, "video"), counts)
    cols = _positions(m.caption_ids, chain.from_iterable(correct), "caption")
    pair_ranks = (s[rows] >= s[rows, cols][:, None]).sum(axis=1)
    return np.minimum.reduceat(pair_ranks, np.cumsum(counts) - counts)


def recall_at_k(m: ScoreMatrix, gt: GroundTruth, k: int, direction: str) -> float:
    """Fraction of queries whose correct item ranks within the top k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _share_within(pessimistic_ranks(m, gt, direction), k)


def _share_within(ranks: np.ndarray, k: int) -> float:
    return int(np.count_nonzero(ranks <= k)) / len(ranks)


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
    """One category's candidate set: its videos, caption ids and ground truth."""

    category: str
    video_ids: tuple[str, ...]
    caption_ids: tuple[str, ...]
    gt: GroundTruth


def build_control_pool(pairs: Sequence[CaptionPair]) -> dict[str, RetrievalPool]:
    """Build one pool per category from caption pairs.

    A caption id is a pair id, so the positive and the control score matrix
    are both read over the same pool: the control matrix scores each pair's
    negative text where the positive matrix scores its positive text.
    """
    if not pairs:
        raise EmptyInput("no caption pairs")
    by_category: dict[str, list[CaptionPair]] = {}
    for pair in pairs:
        if not pair.negative.text.strip():
            raise MissingNegative(f"pair {pair.pair_id!r} lacks negative text")
        by_category.setdefault(pair.category.key, []).append(pair)

    pools: dict[str, RetrievalPool] = {}
    for category, members in sorted(by_category.items()):
        members = sorted(members, key=lambda p: p.pair_id)
        gt_mapping: dict[str, set[str]] = {}
        for pair in members:
            gt_mapping.setdefault(pair.video_id, set()).add(pair.pair_id)
        pools[category] = RetrievalPool(
            category=category,
            video_ids=tuple(sorted({p.video_id for p in members})),
            caption_ids=tuple(p.pair_id for p in members),
            gt=GroundTruth.from_mapping(gt_mapping),
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
    if any(k < 1 for k in ks) or len(set(ks)) < len(ks) or len(set(directions)) < len(directions):
        raise ValueError(f"need distinct ks >= 1 and distinct directions, got {ks} and {directions}")
    recalls: list[RecallReport] = []
    for category, pool in build_control_pool(pairs).items():
        m_pos = positive_scores.submatrix(pool.video_ids, pool.caption_ids)
        m_ctl = control_scores.submatrix(pool.video_ids, pool.caption_ids)
        for direction in directions:
            ranks = pessimistic_ranks(m_pos, pool.gt, direction)
            ranks_control = pessimistic_ranks(m_ctl, pool.gt, direction)
            for k in ks:
                recalls.append(RecallReport(direction, k, _share_within(ranks, k), "positive", category))
                recalls.append(RecallReport(direction, k, _share_within(ranks_control, k), "control", category))
    return recalls, _gaps_from_recalls(recalls)


def _csv(rows: Iterable[Sequence[object]]) -> str:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


def summarize(
    gaps: Sequence[GapReport],
    out_dir: str | Path,
    model: str = "unknown",
    recalls: Sequence[RecallReport] | None = None,
) -> dict[str, Path]:
    """Write the gap CSV, a scatter-data file and, when given, the recalls;
    returns the written paths by report name."""
    out_dir = Path(out_dir)
    texts = {
        "gaps.csv": _csv(
            [["category", "direction", "k", "p", "p_control", "delta_p"]]
            + [[g.category, g.direction, g.k, repr(g.p), repr(g.p_control), repr(g.delta_p)] for g in gaps]
        ),
        "scatter.csv": _csv(
            [["category", "model", "delta_p"]] + [[g.category, model, repr(g.delta_p)] for g in gaps]
        ),
    }
    if recalls is not None:
        # The long layout that gap_rows_from_csv reads back.
        texts["recalls.csv"] = "category,direction,k,pool,value\n" + "".join(
            f"{r.category},{r.direction},{r.k},{r.pool},{r.value!r}\n" for r in recalls
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_outputs(out_dir, texts)
    return {name.removesuffix(".csv"): out_dir / name for name in texts}


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
    return _gaps_from_recalls(
        RecallReport(raw["direction"], int(raw["k"]), float(raw["value"]), raw["pool"], raw["category"])
        for raw in reader
    )


def _gaps_from_recalls(recalls: Iterable[RecallReport]) -> list[GapReport]:
    """Pair each positive recall with the control recall of its category,
    direction and k; a zero positive recall yields no gap row."""
    pools: dict[tuple[str, str, int], dict[str, float]] = {}
    for recall in recalls:
        key = (recall.category, recall.direction, recall.k)
        values = pools.setdefault(key, {})
        if recall.pool in values:
            raise MalformedDocument(f"recalls: duplicate {recall.pool} row for {key}")
        values[recall.pool] = recall.value
    rows = []
    for (category, direction, k), values in pools.items():
        if set(values) != {"positive", "control"}:
            raise MalformedDocument(
                f"recalls: {category} {direction} k={k} needs one positive "
                f"and one control row, found {sorted(values)}"
            )
        p, p_control = values["positive"], values["control"]
        if p > 0:
            rows.append(GapReport(category, direction, k, p, p_control, relative_gap(p, p_control)))
    return rows
