import csv
import io
import math
import os
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eventprobe.captions import Caption, CaptionPair
from eventprobe.documents import in_child
from eventprobe.errors import EmptyInput, EvaluationError, MalformedDocument
from eventprobe.evaluate import (
    DIRECTIONS,
    GapReport,
    CHILD_MIN_CSV_BYTES,
    GroundTruth,
    ScoreMatrix,
    build_control_pool,
    child_pays,
    evaluate_pools,
    load_score_matrix,
    pessimistic_ranks,
    pool_ranks,
    recall_at_k,
    relative_gap,
    summarize,
)
from eventprobe.profiles import ManipulationCategory

from .helpers import csv_reader_score_matrix, oracle_recall, score_matrix_from_csv

# --- per-query loop oracle ---------------------------------------------------
# Ranks one query at a time by counting: 1 + strictly greater + tied, and
# for V2T the best rank over the video's correct captions.


def loop_rank(scores, correct_index):
    s = scores[correct_index]
    greater = int(np.count_nonzero(scores > s))
    tied = int(np.count_nonzero(scores == s)) - 1
    return 1 + greater + tied


def loop_ranks(m, gt, direction):
    row_index = {v: i for i, v in enumerate(m.video_ids)}
    col_index = {c: j for j, c in enumerate(m.caption_ids)}
    if direction == "T2V":
        return [
            loop_rank(m.scores[:, col_index[c]], row_index[gt.caption_to_video[c]])
            for c in sorted(gt.caption_to_video)
        ]
    return [
        min(loop_rank(m.scores[row_index[v]], col_index[c]) for c in gt.video_to_captions[v])
        for v in sorted(gt.video_to_captions)
    ]


def loop_recall(m, gt, k, direction):
    ranks = loop_ranks(m, gt, direction)
    return sum(rank <= k for rank in ranks) / len(ranks)


def identity_gt(n, prefix_v="v", prefix_c="c"):
    return GroundTruth.from_mapping(
        {f"{prefix_v}{i}": [f"{prefix_c}{i}"] for i in range(1, n + 1)}
    )


def matrix(scores, n=None):
    scores = np.asarray(scores, dtype=float)
    rows, cols = scores.shape
    return ScoreMatrix(
        video_ids=tuple(f"v{i}" for i in range(1, rows + 1)),
        caption_ids=tuple(f"c{j}" for j in range(1, cols + 1)),
        scores=scores,
    )


class TestRecall:
    def test_diagonal_is_perfect(self):
        m = matrix([[0.9, 0.1, 0.1], [0.1, 0.9, 0.1], [0.1, 0.1, 0.9]])
        gt = identity_gt(3)
        assert recall_at_k(m, gt, 1, "T2V") == 1.0
        assert recall_at_k(m, gt, 1, "V2T") == 1.0

    def test_spelled_out_fixture(self, fixtures_dir):
        # Hand-derived from the fixture: captions c1 and c3 rank their videos
        # first; c2 loses to v1; c4 is a four-way tie, pessimistic rank 4.
        m = load_score_matrix(fixtures_dir / "score_matrix_f1.csv")
        gt = identity_gt(4)
        assert recall_at_k(m, gt, 1, "T2V") == 0.5
        for k in (1, 2, 3, 4):
            for direction in ("T2V", "V2T"):
                assert recall_at_k(m, gt, k, direction) == oracle_recall(m, gt, k, direction)

    def test_all_equal_scores_never_hit_at_1(self):
        m = matrix(np.ones((10, 10)))
        gt = identity_gt(10)
        assert recall_at_k(m, gt, 1, "T2V") == 0.0
        assert recall_at_k(m, gt, 1, "V2T") == 0.0
        assert recall_at_k(m, gt, 10, "T2V") == 1.0

    def test_non_decreasing_in_k(self):
        rng = np.random.default_rng(0)
        m = matrix(rng.normal(size=(8, 8)))
        gt = identity_gt(8)
        for direction in ("T2V", "V2T"):
            values = [recall_at_k(m, gt, k, direction) for k in range(1, 9)]
            assert values == sorted(values)
            assert values[-1] == 1.0

    def test_rank_only_dependence(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(6, 6))
        gt = identity_gt(6)
        base = matrix(scores)
        affine = matrix(2.0 * scores + 1.0)
        monotone = matrix(np.exp(scores))
        for k in (1, 3, 6):
            for direction in ("T2V", "V2T"):
                expected = recall_at_k(base, gt, k, direction)
                assert recall_at_k(affine, gt, k, direction) == expected
                assert recall_at_k(monotone, gt, k, direction) == expected

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(5, 5))
        gt = identity_gt(5)
        base = matrix(scores)
        perm_r = rng.permutation(5)
        perm_c = rng.permutation(5)
        shuffled = ScoreMatrix(
            video_ids=tuple(base.video_ids[i] for i in perm_r),
            caption_ids=tuple(base.caption_ids[j] for j in perm_c),
            scores=scores[np.ix_(perm_r, perm_c)],
        )
        for k in (1, 2, 5):
            for direction in ("T2V", "V2T"):
                assert recall_at_k(shuffled, gt, k, direction) == recall_at_k(
                    base, gt, k, direction
                )

    def test_oracle_equivalence_with_ties(self):
        rng = random.Random(3)
        for _ in range(30):
            rows = rng.randint(1, 12)
            cols = rows
            discrete = rng.random() < 0.5
            scores = [
                [
                    float(rng.randint(0, 3)) if discrete else rng.random()
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ]
            m = matrix(np.array(scores))
            gt = identity_gt(rows)
            for k in (1, 2, 5):
                for direction in ("T2V", "V2T"):
                    assert recall_at_k(m, gt, k, direction) == oracle_recall(
                        m, gt, k, direction
                    )

    @given(st.data())
    def test_loop_oracle_several_correct_captions(self, data):
        n_videos = data.draw(st.integers(1, 8))
        n_captions = data.draw(st.integers(n_videos, n_videos + 6))
        # Caption i < n_videos belongs to video i; the rest belong to a
        # random video or to none (a distractor).
        owners = list(range(n_videos)) + data.draw(
            st.lists(st.one_of(st.none(), st.integers(0, n_videos - 1)),
                     min_size=n_captions - n_videos, max_size=n_captions - n_videos)
        )
        levels = data.draw(st.integers(1, 4))
        scores = data.draw(
            st.lists(st.integers(0, levels - 1), min_size=n_videos * n_captions,
                     max_size=n_videos * n_captions)
        )
        m = matrix(np.array(scores, dtype=float).reshape(n_videos, n_captions))
        mapping = {}
        for caption, owner in enumerate(owners):
            if owner is not None:
                mapping.setdefault(f"v{owner + 1}", []).append(f"c{caption + 1}")
        gt = GroundTruth.from_mapping(mapping)
        for direction in ("T2V", "V2T"):
            assert pessimistic_ranks(m, gt, direction).tolist() == loop_ranks(m, gt, direction)
            for k in range(1, n_captions + 2):
                assert recall_at_k(m, gt, k, direction) == loop_recall(m, gt, k, direction)

    def test_unknown_id(self):
        m = matrix(np.ones((2, 2)))
        gt = GroundTruth.from_mapping({"v1": ["c1"], "nope": ["c2"]})
        with pytest.raises(EvaluationError, match="^video 'nope' missing from score matrix$"):
            recall_at_k(m, gt, 1, "V2T")

    def test_empty_matrix(self):
        m = ScoreMatrix(video_ids=(), caption_ids=(), scores=np.zeros((0, 0)))
        with pytest.raises(EvaluationError, match="^score matrix has no entries$"):
            recall_at_k(m, identity_gt(1), 1, "T2V")

    def test_bad_k(self):
        m = matrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            recall_at_k(m, identity_gt(2), 0, "T2V")

    def test_bad_direction(self):
        m = matrix(np.ones((2, 2)))
        with pytest.raises(ValueError, match="^direction must be one of "):
            recall_at_k(m, identity_gt(2), 1, "X2Y")


class TestRelativeGap:
    def test_formula(self):
        assert math.isclose(relative_gap(0.5, 0.4), 0.2, rel_tol=0, abs_tol=1e-15)

    def test_equal_performance_is_zero(self):
        for p in (0.1, 0.25, 1.0):
            assert relative_gap(p, p) == 0.0

    def test_zero_baseline(self):
        with pytest.raises(EvaluationError, match="^baseline performance is zero; gap undefined$"):
            relative_gap(0.0, 0.4)

    def test_strictly_decreasing_in_control(self):
        gaps = [relative_gap(0.8, pc) for pc in (0.1, 0.3, 0.5, 0.7)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


def make_pair(pair_id, video_id, category="counterfactual.attribute.Color",
              positive="the bike is black", negative="the bike is red"):
    return CaptionPair(
        pair_id=pair_id,
        video_id=video_id,
        category=ManipulationCategory.from_key(category),
        positive=Caption(positive, "template"),
        negative=Caption(negative, "template"),
    )


class TestPools:
    def test_aligned_pools(self):
        pairs = [make_pair(f"p{i}", f"v{i % 2}") for i in range(3)]
        gt = build_control_pool(pairs)["counterfactual.attribute.Color"]
        assert gt.video_to_captions == {"v0": frozenset({"p0", "p2"}), "v1": frozenset({"p1"})}
        assert gt.caption_to_video == {"p0": "v0", "p1": "v1", "p2": "v0"}

    def test_one_pool_pair_per_category(self):
        pairs = [
            make_pair("p0", "v0"),
            make_pair("p1", "v1", category="temporal.attribute.Color",
                      positive="a, then b", negative="b, then a"),
        ]
        pools = build_control_pool(pairs)
        assert set(pools) == {
            "counterfactual.attribute.Color",
            "temporal.attribute.Color",
        }

    def test_missing_negative(self):
        pair = make_pair("p0", "v0", negative=" ")
        with pytest.raises(EvaluationError, match="^pair 'p0' lacks negative text$"):
            build_control_pool([pair])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_control_pool([])

    def test_repeated_pair_id(self):
        with pytest.raises(MalformedDocument, match="duplicate pair_id 'p0'"):
            build_control_pool([make_pair("p0", "v0"), make_pair("p0", "v0")])


def evaluated(pairs, positive, control, ks, directions):
    """evaluate_pools over the ranks of both matrices on the pools of pairs."""
    pools = build_control_pool(pairs)
    return evaluate_pools(pool_ranks(pools, positive, directions), pool_ranks(pools, control, directions), ks)


class TestEvaluatePools:
    def test_end_to_end_gap(self):
        pairs = [make_pair(f"p{i}", f"v{i}") for i in range(4)]
        video_ids = tuple(sorted(p.video_id for p in pairs))
        caption_ids = tuple(sorted(p.pair_id for p in pairs))
        diagonal = np.eye(4)
        positive = ScoreMatrix(video_ids, caption_ids, diagonal)
        control = ScoreMatrix(video_ids, caption_ids, np.ones((4, 4)))
        recalls, gaps = evaluated(pairs, positive, control, ks=(1,), directions=("T2V",))
        assert len(recalls) == 2
        assert len(gaps) == 1
        gap = gaps[0]
        assert gap.p == 1.0 and gap.p_control == 0.0 and gap.delta_p == 1.0

    @given(st.data())
    def test_loop_oracle_on_tied_pools(self, data):
        n_pairs = data.draw(st.integers(1, 10))
        n_videos = data.draw(st.integers(1, n_pairs))
        pairs = [
            make_pair(
                f"p{i}",
                f"v{data.draw(st.integers(0, n_videos - 1)) if i >= n_videos else i}",
                category=data.draw(
                    st.sampled_from(("counterfactual.attribute.Color", "temporal.attribute.Color"))
                ),
            )
            for i in range(n_pairs)
        ]
        video_ids = tuple(f"v{i}" for i in range(n_videos))
        caption_ids = tuple(p.pair_id for p in pairs) + ("distractor",)
        shape = (len(video_ids), len(caption_ids))
        positive, control = (
            ScoreMatrix(video_ids, caption_ids, data.draw(
                st.lists(st.integers(0, 2), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
                .map(lambda cells: np.array(cells, dtype=float).reshape(shape))
            ))
            for _ in range(2)
        )
        ks = (1, 2, 5)
        recalls, gaps = evaluated(pairs, positive, control, ks=ks, directions=DIRECTIONS)
        expected_recalls, expected_gaps = [], []
        for category, gt in build_control_pool(pairs).items():
            videos = sorted({p.video_id for p in pairs if p.category.key == category})
            captions = sorted(p.pair_id for p in pairs if p.category.key == category)
            pos = positive.submatrix(videos, captions)
            ctl = control.submatrix(videos, captions)
            for direction in ("T2V", "V2T"):
                for k in ks:
                    p = loop_recall(pos, gt, k, direction)
                    p_control = loop_recall(ctl, gt, k, direction)
                    expected_recalls.append((category, direction, k, "positive", p))
                    expected_recalls.append((category, direction, k, "control", p_control))
                    if p > 0:
                        expected_gaps.append((category, direction, k, p, p_control))
        assert [(r.category, r.direction, r.k, r.pool, r.value) for r in recalls] == expected_recalls
        assert [(g.category, g.direction, g.k, g.p, g.p_control) for g in gaps] == expected_gaps

    def test_zero_positive_recall_reports_no_gap(self):
        pairs = [make_pair(f"p{i}", f"v{i}") for i in range(3)]
        video_ids = tuple(sorted(p.video_id for p in pairs))
        caption_ids = tuple(sorted(p.pair_id for p in pairs))
        constant = ScoreMatrix(video_ids, caption_ids, np.ones((3, 3)))
        recalls, gaps = evaluated(pairs, constant, constant, ks=(1,), directions=("T2V",))
        assert gaps == []
        assert len(recalls) == 2

    @pytest.mark.parametrize(
        "ks, directions, message",
        [((0,), ("T2V",), "ks >= 1"), ((1, 1), ("T2V",), "ks >= 1"), ((1,), ("T2V", "T2V"), "directions")],
        ids=["k-zero", "k-repeated", "direction-repeated"],
    )
    def test_bad_ks_or_directions(self, ks, directions, message):
        """cli checks --ks and --directions first; a library caller meets
        this check instead: pool_ranks checks the directions, evaluate_pools
        the ks."""
        pairs = [make_pair(f"p{i}", f"v{i}") for i in range(2)]
        scores = ScoreMatrix(("v0", "v1"), ("p0", "p1"), np.eye(2))
        with pytest.raises(ValueError, match=f"^need distinct {message}, got "):
            evaluated(pairs, scores, scores, ks=ks, directions=directions)


class TestSummarize:
    def test_single_row(self, tmp_path):
        gap = GapReport("counterfactual.attribute.Color", "T2V", 1, 0.5, 0.4, relative_gap(0.5, 0.4))
        paths = summarize([gap], tmp_path, model="demo")
        rows = paths["gaps"].read_text().splitlines()
        assert rows[0] == "category,direction,k,p,p_control,delta_p"
        fields = rows[1].split(",")
        assert fields[:5] == ["counterfactual.attribute.Color", "T2V", "1", "0.5", "0.4"]
        assert math.isclose(float(fields[5]), 0.2, rel_tol=0, abs_tol=1e-15)
        scatter = paths["scatter"].read_text().splitlines()
        assert scatter[0] == "category,model,delta_p"
        assert scatter[1].startswith("counterfactual.attribute.Color,demo,")

    def test_full_grid_row_count(self, tmp_path):
        categories = [f"cat{i}" for i in range(8)]
        gaps = [
            GapReport(c, d, k, 0.5, 0.25, relative_gap(0.5, 0.25))
            for c in categories
            for d in ("T2V", "V2T")
            for k in (1, 5)
        ]
        paths = summarize(gaps, tmp_path, model="unknown")
        assert len(paths["gaps"].read_text().splitlines()) == 1 + 32

    def test_empty_input_writes_header_only(self, tmp_path):
        paths = summarize([], tmp_path, model="unknown")
        assert paths["gaps"].read_text().splitlines() == [
            "category,direction,k,p,p_control,delta_p"
        ]


# Id characters that exercise RFC-4180 quoting: the delimiter, the quote, a
# newline, a comment sign numpy must not honour, blanks and a non-ASCII letter.
ID_ALPHABET = 'ab,"\n# \té'


class TestScoreMatrixCsv:
    def test_round_trip(self, fixtures_dir):
        m = load_score_matrix(fixtures_dir / "score_matrix_f1.csv")
        assert m.video_ids == ("v1", "v2", "v3", "v4")
        assert m.caption_ids == ("c1", "c2", "c3", "c4")
        assert m.scores[0, 0] == 0.9

    def test_bad_header(self):
        with pytest.raises(MalformedDocument):
            score_matrix_from_csv("nope,c1\nv1,0.5\n")

    def test_ragged_row(self):
        with pytest.raises(MalformedDocument):
            score_matrix_from_csv("video_id,c1,c2\nv1,0.5\n")

    def test_non_numeric(self):
        with pytest.raises(MalformedDocument):
            score_matrix_from_csv("video_id,c1\nv1,abc\n")

    def test_non_finite_rejected(self):
        with pytest.raises(MalformedDocument):
            score_matrix_from_csv("video_id,c1\nv1,nan\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty score CSV"),
            ("video_id,c1\nv1,0.5\nv2,0.5,0.7\n", "row 'v2' has 2 scores"),
            ("video_id,c1,c2\nv1,0.5,1\nv2,0.5\n", "row 'v2' has 1 scores"),
            ("video_id,c1,c2\nv1,0.5\nv2,0.5,1\n", "row 'v1' has 1 scores"),
            ("video_id,c1\nv1,0.5\nv2,abc\n", "row 'v2'"),
            ("video_id,c1\nv1,1_0\n", "row 'v1'"),
            ("video_id,c1\nv1,\n", "row 'v1'"),
            ('video_id,c1\nv1,0.5\n"v2,0.5\n\n', "row ''"),
        ],
        ids=["empty-file", "long-row", "short-row", "short-first-row", "non-numeric",
             "python-only-spelling", "empty-cell", "unclosed-quote-before-blank-line"],
    )
    def test_malformed_rows_name_the_video(self, text, message):
        with pytest.raises(MalformedDocument, match=message):
            score_matrix_from_csv(text)

    def test_header_only_is_empty_and_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = score_matrix_from_csv("video_id,c1,c2\n")
        assert m.video_ids == () and m.caption_ids == ("c1", "c2")
        assert m.scores.shape == (0, 2)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"video_id,c1\nv\xff,0.5\n")
        with pytest.raises(MalformedDocument, match="UTF-8"):
            load_score_matrix(path)

    @given(
        st.lists(st.text(ID_ALPHABET, max_size=4), max_size=4, unique=True),
        st.lists(st.text(ID_ALPHABET, min_size=1, max_size=4), max_size=5, unique=True),
        st.data(),
    )
    def test_csv_reader_oracle(self, caption_ids, video_ids, data):
        spell = data.draw(st.sampled_from((repr, "{:.3f}".format, "{:e}".format, "{:.2E}".format)))
        cell = st.floats(-1e300, 1e300, allow_nan=False).map(spell) | st.integers(-999, 999).map(str)
        terminator = data.draw(st.sampled_from(("\n", "\r\n")))
        # At most one row is broken: one score too many or too few, or a bad cell.
        broken = data.draw(st.sampled_from((None, *video_ids)))
        out = io.StringIO()
        writer = csv.writer(out, lineterminator=terminator)
        writer.writerow(["video_id", *caption_ids])
        for video_id in video_ids:
            out.write(terminator * data.draw(st.integers(0, 2)))
            row = [video_id, *(data.draw(cell) for _ in caption_ids)]
            if video_id == broken:
                fault = data.draw(st.sampled_from(("short", "long", "", "x", "nan")))
                if fault == "short":
                    row.pop()
                elif fault == "long":
                    row.append("0.5")
                else:
                    row[-1] = fault
            writer.writerow(row)
        text = out.getvalue()
        try:
            expected = csv_reader_score_matrix(text)
        except MalformedDocument:
            with pytest.raises(MalformedDocument):
                score_matrix_from_csv(text)
            return
        got = score_matrix_from_csv(text)
        assert (got.video_ids, got.caption_ids) == (expected.video_ids, expected.caption_ids)
        assert got.scores.shape == expected.scores.shape
        assert got.scores.tobytes() == expected.scores.tobytes()

    def test_duplicate_caption_for_two_videos_rejected(self):
        with pytest.raises(MalformedDocument):
            GroundTruth.from_mapping({"v1": ["c1"], "v2": ["c1"]})


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


class TestScoreMatrixNpz:
    def test_matches_csv(self, fixtures_dir, tmp_path):
        m = load_score_matrix(fixtures_dir / "score_matrix_f1.csv")
        path = tmp_path / "scores.npz"
        np.savez_compressed(
            path, video_ids=np.array(m.video_ids), caption_ids=np.array(m.caption_ids), scores=m.scores
        )
        got = load_score_matrix(path)
        assert (got.video_ids, got.caption_ids) == (m.video_ids, m.caption_ids)
        assert got.scores.tobytes() == m.scores.tobytes()

    @pytest.mark.parametrize(
        "arrays, message",
        [
            ({"video_ids": ["v1"], "caption_ids": ["c1"]}, "no scores array"),
            ({"video_ids": [1], "caption_ids": ["c1"], "scores": [[0.5]]}, "video_ids must be"),
            ({"video_ids": ["v1"], "caption_ids": ["c1"], "scores": [0.5]}, "2-D real"),
            ({"video_ids": ["v1"], "caption_ids": ["c1"], "scores": [[0.5j]]}, "2-D real"),
            ({"video_ids": ["v1"], "caption_ids": ["c1"], "scores": [["0.5"]]}, "2-D real"),
            ({"video_ids": ["v1", "v1"], "caption_ids": ["c1"], "scores": [[0.5], [1]]}, "duplicate"),
            ({"video_ids": ["v1"], "caption_ids": ["c1", "c1"], "scores": [[0.5, 1]]}, "duplicate caption ids"),
            ({"video_ids": ["v1"], "caption_ids": ["c1", "c2"], "scores": [[0.5]]}, "does not match"),
            ({"video_ids": ["v1"], "caption_ids": ["c1"], "scores": [[np.inf]]}, "finite"),
        ],
        ids=["missing-array", "numeric-ids", "1-d-scores", "complex-scores", "string-scores",
             "duplicate-ids", "duplicate-caption-ids", "wrong-shape", "non-finite"],
    )
    def test_malformed_archive(self, tmp_path, arrays, message):
        path = tmp_path / "scores.npz"
        np.savez(path, **{name: np.array(value) for name, value in arrays.items()})
        with pytest.raises(MalformedDocument, match=message):
            load_score_matrix(path)

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: path.write_bytes(b"video_id,c1\nv1,0.5\n"),
            lambda path: path.write_bytes(b""),
            lambda path: path.write_bytes(npy_bytes(np.ones((1, 1)))),
            lambda path: np.savez(path, video_ids=np.array(["v1", 2], dtype=object),
                                  caption_ids=np.array(["c1"]), scores=np.ones((2, 1))),
        ],
        ids=["not-a-zip", "empty-file", "lone-npy-array", "object-ids"],
    )
    def test_unreadable_archive(self, tmp_path, write):
        path = tmp_path / "scores.npz"
        write(path)
        with pytest.raises(MalformedDocument):
            load_score_matrix(path)


@pytest.mark.parametrize(
    "name, size, forks",
    [("m.csv", CHILD_MIN_CSV_BYTES - 1, 0), ("m.csv", CHILD_MIN_CSV_BYTES, 1), ("m.npz", CHILD_MIN_CSV_BYTES, 0),
     ("absent.csv", None, 0)],
    ids=["small-csv", "csv", "npz", "absent"],
)
def test_a_child_reads_only_a_csv_large_enough_to_pay(tmp_path, monkeypatch, name, size, forks):
    path = tmp_path / name
    if size is not None:
        path.write_bytes(b"0" * size)
    attempts = []

    def fork():
        attempts.append(1)
        raise OSError("no fork here")  # so the value comes from this process

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    with in_child(lambda: str(path), child_pays(str(path)), f"{path}: the process reading it") as load:
        assert load() == str(path)
    assert len(attempts) == forks


def test_a_matrix_from_a_child_costs_this_process_one_copy(tmp_path, monkeypatch):
    def build(path):
        scores = np.arange(1024 * 1024, dtype=np.float64).reshape(1024, 1024)  # 8 MiB
        return ScoreMatrix(tuple(f"v{i}" for i in range(1024)), tuple(f"c{i}" for i in range(1024)), scores, path)

    path = tmp_path / "m.csv"
    path.write_bytes(b"0" * CHILD_MIN_CSV_BYTES)  # large enough for the child; build never reads it
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    expected = build(str(path))
    with in_child(lambda: build(str(path)), child_pays(str(path)), f"{path}: the process reading it") as load:
        assert forks == [1]
        tracemalloc.start()
        try:
            matrix = load()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.25 * expected.scores.nbytes, (peak, expected.scores.nbytes)
    assert matrix.scores.flags.writeable and matrix.scores.flags.c_contiguous
    assert (matrix.video_ids, matrix.caption_ids, matrix.name) == (expected.video_ids, expected.caption_ids, expected.name)
    assert np.array_equal(matrix.scores, expected.scores)


class TestGroundTruth:
    def test_empty_caption_set(self):
        with pytest.raises(MalformedDocument):
            GroundTruth.from_mapping({"v1": []})
