"""Retrieval pools, Recall@k, and relative performance gaps.

Similarity scores arrive from outside as CSV or .npz matrices (this package
never runs a model). Ranking uses competition ranking with pessimistic ties:
every candidate tied with the correct item counts ahead of it, so
constant-score models never get credit.
"""

from __future__ import annotations

import csv
import io
import math
import os
import zipfile
import zlib
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .captions import CaptionPair, benchmark_categories
from .documents import open_input, write_outputs
from .errors import EmptyInput, EvaluationError, MalformedDocument

T2V = "T2V"
V2T = "V2T"
DIRECTIONS = (T2V, V2T)


@dataclass(frozen=True)
class ScoreMatrix:
    """Dense video-by-caption similarity scores; name is what errors call
    the matrix: the file it was read from."""

    video_ids: tuple[str, ...]
    caption_ids: tuple[str, ...]
    scores: np.ndarray
    name: str = "score matrix"

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
        rows = _positions(self.video_ids, video_ids, "video", self.name)
        cols = _positions(self.caption_ids, caption_ids, "caption", self.name)
        return ScoreMatrix(
            video_ids=tuple(video_ids),
            caption_ids=tuple(caption_ids),
            scores=self.scores[np.ix_(rows, cols)],
            name=self.name,
        )


def _positions(axis: Sequence[str], ids: Iterable[str], kind: str, name: str) -> np.ndarray:
    """Index of each id along one axis of the matrix called name;
    EvaluationError if one is absent."""
    index = dict(zip(axis, range(len(axis))))
    try:
        return np.fromiter(map(index.__getitem__, ids), dtype=np.intp)
    except KeyError as exc:
        raise EvaluationError(f"{kind} {exc.args[0]!r} missing from {name}") from None


def load_score_matrix(path: str | Path) -> ScoreMatrix:
    """Read a score matrix: `.npz` by suffix, CSV otherwise. The file is
    streamed into numpy, not read whole, which bounds memory."""
    with open_input(path, EmptyInput(f"score file not found: {path}")) as fh:
        if Path(path).suffix.lower() == ".npz":
            return _read_score_npz(fh, str(path))
        with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
            return _read_score_csv(text, str(path))


# On a 2-vCPU x86 VM a score CSV parses at about 85 MB/s. A child that reads
# and ranks the control matrix hands back only its ranks (31 KB for 2,000
# pairs), but costs the fork, the pipe, the reaping and the pages both
# processes write while it runs. In a sweep of eval on 3-decimal CSVs,
# alternating child and in process in one long-lived process (median paired
# differences of 20-40 pairs, child minus in process), the child lost
# 4.5-5.3 ms at 61-95 KiB and 2.1-3.3 ms at 164-382 KiB, was even at 463 KiB
# (+1.2 and -3.8 ms in two rounds), and won 2.4-3.6 ms at 546-879 KiB and
# 7.3-7.6 ms at 1.1-1.5 MiB; 1 MiB keeps a clear margin. An .npz loads at
# disk speed: on an 854 x 2,000 one the child lost 3.2 ms.
CHILD_MIN_CSV_BYTES = 1 << 20


def child_pays(path: str) -> bool:
    """Whether reading and ranking the score file at path in a forked child
    (see documents.in_halves) can save time: path is a CSV of at least
    CHILD_MIN_CSV_BYTES."""
    try:
        size = os.stat(path).st_size
    except OSError:  # load_score_matrix reports it, where the caller takes the value
        return False
    return Path(path).suffix.lower() != ".npz" and size >= CHILD_MIN_CSV_BYTES


def _read_score_csv(fh: TextIO, name: str) -> ScoreMatrix:
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
        try:
            row = next(csv.reader([line]), None) or [""]
        except csv.Error as row_exc:  # a field past csv's size limit, which numpy read
            raise MalformedDocument(f"score CSV row: {row_exc}") from None
        if len(row) != len(header):
            raise MalformedDocument(f"row {row[0]!r} has {len(row) - 1} scores") from None
        raise MalformedDocument(f"row {row[0]!r}: {exc}") from None
    return ScoreMatrix(
        video_ids=tuple(video_ids[1:]),
        caption_ids=tuple(header[1:]),
        scores=np.ascontiguousarray(cells[1:, 1:]),
        name=name,
    )


NPZ_ARRAYS = ("video_ids", "caption_ids", "scores")


def _read_score_npz(fh: BinaryIO, name: str) -> ScoreMatrix:
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
        name=name,
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
        raise EvaluationError("score matrix has no entries")
    s = m.scores
    if direction == T2V:
        captions = sorted(gt.caption_to_video)
        rows = _positions(m.video_ids, map(gt.caption_to_video.__getitem__, captions), "video", m.name)
        cols = _positions(m.caption_ids, captions, "caption", m.name)
        return (s[:, cols] >= s[rows, cols]).sum(axis=0)
    videos = sorted(gt.video_to_captions)
    correct = list(map(gt.video_to_captions.__getitem__, videos))
    counts = np.fromiter(map(len, correct), dtype=np.intp, count=len(correct))
    rows = np.repeat(_positions(m.video_ids, videos, "video", m.name), counts)
    cols = _positions(m.caption_ids, chain.from_iterable(correct), "caption", m.name)
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
    """(p - p_control) / p; undefined (EvaluationError) when p is zero."""
    if p == 0:
        raise EvaluationError("baseline performance is zero; gap undefined")
    return (p - p_control) / p


# --- pools -----------------------------------------------------------------


def build_control_pool(pairs: Sequence[CaptionPair]) -> dict[str, GroundTruth]:
    """One pool per category key, by key: the ground truth of its pairs,
    whose videos and caption ids are the pool's candidates.

    A caption id is a pair id, so the positive and the control score matrix
    are both read over the same pool: the control matrix scores each pair's
    negative text where the positive matrix scores its positive text.
    """
    benchmark_categories(pairs)  # raises on no pairs or a repeated pair_id
    by_category: dict[str, dict[str, set[str]]] = {}
    for pair in pairs:
        if not pair.negative.text.strip():
            raise EvaluationError(f"pair {pair.pair_id!r} lacks negative text")
        by_category.setdefault(pair.category.key, {}).setdefault(pair.video_id, set()).add(pair.pair_id)
    return {category: GroundTruth.from_mapping(gt) for category, gt in sorted(by_category.items())}


def pool_ranks(
    pools: Mapping[str, GroundTruth], m: ScoreMatrix, directions: Sequence[str]
) -> dict[tuple[str, str], np.ndarray]:
    """The pessimistic ranks of each pool's queries in m, by (category,
    direction): categories in sorted order, each ranked on the submatrix of
    its videos and captions, then directions in the order given. An id of a
    pool that m lacks raises EvaluationError naming m."""
    if len(set(directions)) < len(directions):
        raise ValueError(f"need distinct directions, got {directions}")
    ranks = {}
    for category in sorted(pools):
        gt = pools[category]
        pool = m.submatrix(sorted(gt.video_to_captions), sorted(gt.caption_to_video))
        for direction in directions:
            ranks[category, direction] = pessimistic_ranks(pool, gt, direction)
    return ranks


def evaluate_pools(
    ranks: Mapping[tuple[str, str], np.ndarray],
    control_ranks: Mapping[tuple[str, str], np.ndarray],
    ks: Sequence[int],
) -> tuple[list[RecallReport], list[GapReport]]:
    """Per-category recalls on both pools, from pool_ranks of the positive
    and of the control matrix over the same pools and directions, and the
    resulting gaps, in the order of ranks.

    Categories whose positive recall is zero yield no gap row (the gap is
    undefined there), but their recall rows are still reported.
    """
    if any(k < 1 for k in ks) or len(set(ks)) < len(ks):
        raise ValueError(f"need distinct ks >= 1, got {ks}")
    recalls: list[RecallReport] = []
    for (category, direction), positive in ranks.items():
        control = control_ranks[category, direction]
        for k in ks:
            recalls.append(RecallReport(direction, k, _share_within(positive, k), "positive", category))
            recalls.append(RecallReport(direction, k, _share_within(control, k), "control", category))
    return recalls, _gaps_from_recalls(recalls)


def _csv(rows: Iterable[Sequence[object]], lineterminator: str) -> str:
    text = io.StringIO()
    csv.writer(text, lineterminator=lineterminator).writerows(rows)
    return text.getvalue()


def summarize(
    gaps: Sequence[GapReport],
    out_dir: str | Path,
    model: str,
    recalls: Sequence[RecallReport] | None = None,
) -> dict[str, Path]:
    """Write the gap CSV, a scatter-data file and, when given, the recalls;
    returns the written paths by report name."""
    out_dir = Path(out_dir)
    texts = {
        "gaps.csv": _csv(
            [["category", "direction", "k", "p", "p_control", "delta_p"]]
            + [[g.category, g.direction, g.k, repr(g.p), repr(g.p_control), repr(g.delta_p)] for g in gaps],
            "\r\n",
        ),
        "scatter.csv": _csv(
            [["category", "model", "delta_p"]] + [[g.category, model, repr(g.delta_p)] for g in gaps],
            "\r\n",
        ),
    }
    if recalls is not None:
        # The long layout that gap_rows_from_csv reads back.
        texts["recalls.csv"] = _csv(
            [["category", "direction", "k", "pool", "value"]]
            + [[r.category, r.direction, r.k, r.pool, repr(r.value)] for r in recalls],
            "\n",
        )
    write_outputs(out_dir, texts)
    return {name.removesuffix(".csv"): out_dir / name for name in texts}


def _recall(raw: Mapping[str, str], column: str) -> float:
    """The row's column read as a recall: a number in [0, 1]."""
    value = float(raw[column])
    if not 0 <= value <= 1:  # NaN fails this too
        raise ValueError(f"{column} must be a number in [0, 1], got {raw[column]!r}")
    return value


def gap_rows_from_csv(text: str) -> list[GapReport]:
    """Read gap rows from a recall CSV in either of two layouts.

    Wide rows (category,direction,k,p,p_control[,delta_p]) come from
    summarize or by hand. Long rows (category,direction,k,pool,value) are
    what `eval` writes as recalls.csv: each positive row is paired with the
    control row of its category, direction and k. In both layouts, as in
    evaluate_pools, a zero positive recall yields no gap row, unless a wide
    row gives its own delta_p. Every p, p_control and value must be a
    number in [0, 1], each delta_p, given or computed, a finite number, a
    direction one of DIRECTIONS and k an integer >= 1, and no row may
    repeat another's category, direction, k (and pool). A row that breaks
    this raises MalformedDocument naming its line, and a long-layout gap
    that is not finite names its category, direction and k.
    """
    reader = csv.DictReader(io.StringIO(text))
    recalls, rows, seen = [], [], set()
    try:
        columns = set(reader.fieldnames or ())
        long = {"category", "direction", "k", "pool", "value"} <= columns
        if not long and not {"category", "direction", "k", "p", "p_control"} <= columns:
            raise MalformedDocument(
                "recall CSV needs columns category,direction,k,pool,value "
                "or category,direction,k,p,p_control"
            )
        for raw in reader:
            direction, k = raw["direction"], int(raw["k"])
            if direction not in DIRECTIONS or k < 1:
                raise ValueError(f"need a direction in {DIRECTIONS} and k >= 1, got {direction!r} and {k}")
            key = (raw["category"], direction, k, raw["pool"] if long else None)
            if key in seen:
                raise ValueError(f"duplicate row for {raw['category']} {direction} k={k}")
            seen.add(key)
            if long:
                value = _recall(raw, "value")
                recalls.append(RecallReport(direction, k, value, raw["pool"], raw["category"]))
                continue
            p, p_control = _recall(raw, "p"), _recall(raw, "p_control")
            if p == 0 and not raw.get("delta_p"):
                continue
            # A gap is past the float range for a p as small as 5e-324.
            delta = float(raw["delta_p"]) if raw.get("delta_p") else relative_gap(p, p_control)
            if not math.isfinite(delta):
                raise ValueError(f"delta_p must be a finite number, got {raw.get('delta_p') or delta!r}")
            rows.append(GapReport(raw["category"], direction, k, p, p_control, delta))
    except (TypeError, ValueError) as exc:
        raise MalformedDocument(f"recall CSV line {reader.line_num}: {exc}") from None
    except csv.Error as exc:  # a field past csv's size limit, on the line after the last one read
        raise MalformedDocument(f"recall CSV line {reader.line_num + 1}: {exc}") from None
    return _gaps_from_recalls(recalls) if long else rows


def _gaps_from_recalls(recalls: Iterable[RecallReport]) -> list[GapReport]:
    """Pair each positive recall with the control recall of its category,
    direction and k; a zero positive recall yields no gap row. Each caller
    gives at most one recall per category, direction, k and pool."""
    pools: dict[tuple[str, str, int], dict[str, float]] = {}
    for recall in recalls:
        key = (recall.category, recall.direction, recall.k)
        pools.setdefault(key, {})[recall.pool] = recall.value
    rows = []
    for (category, direction, k), values in pools.items():
        if set(values) != {"positive", "control"}:
            raise MalformedDocument(
                f"recalls: {category} {direction} k={k} needs one positive "
                f"and one control row, found {sorted(values)}"
            )
        p, p_control = values["positive"], values["control"]
        if p > 0:
            delta = relative_gap(p, p_control)
            if not math.isfinite(delta):  # only a recall CSV holds a p this small
                raise MalformedDocument(
                    f"recalls: {category} {direction} k={k}: delta_p must be a finite number, got {delta}"
                )
            rows.append(GapReport(category, direction, k, p, p_control, delta))
    return rows
