import math
import tracemalloc

import numpy as np
import pytest

from eventprobe import losses
from eventprobe.errors import MalformedDocument
from eventprobe.losses import (
    LossBatch,
    LossParams,
    LossOutput,
    finite_diff_check,
    hn_nce_forward,
    hn_nce_grad,
    hn_nce_weights,
    unit_normalize,
)

# --- independent oracles -----------------------------------------------------


def infonce_oracle(V, T, tau):
    """Symmetric softmax cross-entropy on the full similarity matrix."""
    S = (V @ T.T) / tau
    n = S.shape[0]
    total = 0.0
    for i in range(n):
        row = S[i]
        col = S[:, i]
        total += -(row[i] - _lse(row)) - (col[i] - _lse(col))
    return total / n


def _lse(x):
    m = np.max(x)
    return m + math.log(np.sum(np.exp(x - m)))


def hn_nce_oracle(V, T, G, tau, beta):
    """Loss and frozen-weight gradients, one item and one scalar at a time."""
    n, d = V.shape
    if n == 1:
        return 0.0, np.zeros((n, d)), np.zeros((n, d)), [np.zeros_like(g) for g in G]
    S = [[float(V[i] @ T[m]) for m in range(n)] for i in range(n)]
    S_gen = [[float(V[i] @ g) for g in G[i]] for i in range(n)]
    others = [[m for m in range(n) if m != i] for i in range(n)]
    loss = 0.0
    dS = np.zeros((n, n))  # d loss / d S[i, m]
    dS_gen = [np.zeros(len(G[i])) for i in range(n)]
    for i in range(n):
        mult = n + len(G[i]) - 1
        z_v2t = sum(math.exp(S[i][m] / tau) for m in others[i])
        z_t2v = sum(math.exp(S[m][i] / tau) for m in others[i])
        # Unnormalised competitor terms of each direction's denominator.
        c_in = {
            m: mult * math.exp(beta * S[i][m] / tau) / z_v2t * math.exp((S[i][m] - S[i][i]) / tau)
            for m in others[i]
        }
        c_gen = [
            mult * math.exp(beta * s / tau) / z_v2t * math.exp((s - S[i][i]) / tau)
            for s in S_gen[i]
        ]
        c_t2v = {
            m: (n - 1) * math.exp(beta * S[m][i] / tau) / z_t2v * math.exp((S[m][i] - S[i][i]) / tau)
            for m in others[i]
        }
        d1 = 1.0 + sum(c_in.values()) + sum(c_gen)
        d2 = 1.0 + sum(c_t2v.values())
        loss += (math.log(d1) + math.log(d2)) / n
        dS[i, i] += ((1.0 / d1 - 1.0) + (1.0 / d2 - 1.0)) / (n * tau)
        for m in others[i]:
            dS[i, m] += c_in[m] / d1 / (n * tau)
            dS[m, i] += c_t2v[m] / d2 / (n * tau)
        for k, c in enumerate(c_gen):
            dS_gen[i][k] = c / d1 / (n * tau)
    grad_V = np.zeros((n, d))
    grad_T = np.zeros((n, d))
    grad_G = []
    for i in range(n):
        for m in range(n):
            grad_V[i] += dS[i, m] * T[m]
            grad_T[m] += dS[i, m] * V[i]
        for k, g in enumerate(G[i]):
            grad_V[i] += dS_gen[i][k] * g
        grad_G.append(np.array([dS_gen[i][k] * V[i] for k in range(len(G[i]))]).reshape(-1, d))
    return loss, grad_V, grad_T, grad_G


def random_batch(
    rng: np.random.Generator,
    n_max: int = 8,
    d_max: int = 16,
    gen_max: int = 4,
    scale: float | None = None,
    n: int | None = None,
) -> LossBatch:
    """Random batch with every coordinate bounded away from zero.

    Component magnitudes in [0.3, 1] before row normalization keep every
    partial derivative large enough for a central difference at h=1e-5 to
    resolve it; pass scale=sqrt(tau) to cap logits at |s|/tau <= 2.
    """
    n = int(rng.integers(1, n_max + 1)) if n is None else n
    d = int(rng.integers(2, d_max + 1))
    scale = 1.0 if scale is None else scale

    def rows(count):
        signs = rng.choice((-1.0, 1.0), size=(count, d))
        X = signs * rng.uniform(0.3, 1.0, size=(count, d))
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return X / norms * scale

    G = tuple(rows(int(rng.integers(0, gen_max + 1))) for _ in range(n))
    return LossBatch(V=rows(n), T=rows(n), G=G)


class TestWeights:
    def test_equal_similarities_scale_as_exp_beta_minus_one(self):
        # All pairwise similarities equal c: every weight is exp((beta-1)c/tau).
        n, d, c = 4, 3, 0.6
        v0 = np.zeros(d); v0[0] = 1.0
        V = np.tile(v0, (n, 1))
        T = np.tile(v0 * c, (n, 1))
        batch = LossBatch(V=V, T=T)
        for beta in (0.0, 0.5, 1.0, 2.0):
            params = LossParams(tau=0.3, beta=beta)
            w = hn_nce_weights(batch, params)
            expected = math.exp((beta - 1.0) * c / 0.3)
            off_diag = ~np.eye(n, dtype=bool)
            assert np.allclose(w.v2t_in[off_diag], expected, rtol=1e-12)
            assert np.allclose(w.t2v[off_diag], expected, rtol=1e-12)

    def test_two_item_weights_are_exactly_one(self):
        # With two items, no generated negatives, and beta=1 the softmax is
        # over a single element, so each weight collapses to one.
        rng = np.random.default_rng(0)
        for _ in range(20):
            batch = batch_without_gens(random_batch(rng, n=2))
            w = hn_nce_weights(batch, LossParams(tau=0.2, beta=1.0))
            assert w.v2t_in[0, 1] == pytest.approx(1.0, abs=1e-12)
            assert w.v2t_in[1, 0] == pytest.approx(1.0, abs=1e-12)
            assert w.t2v[0, 1] == pytest.approx(1.0, abs=1e-12)
            assert w.t2v[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_t2v_weights_sum_to_n_minus_one_at_beta_one(self):
        # Direct-summation check of the normalizing identity.
        rng = np.random.default_rng(1)
        for _ in range(25):
            batch = random_batch(rng)
            n = batch.n_items
            if n == 1:
                continue
            w = hn_nce_weights(batch, LossParams(tau=0.1, beta=1.0))
            for i in range(n):
                total = sum(w.t2v[j, i] for j in range(n) if j != i)
                assert abs(total - (n - 1)) < 1e-9

    def test_v2t_multiplier_counts_generated_negatives(self):
        rng = np.random.default_rng(2)
        V = rng.normal(size=(2, 4))
        T = rng.normal(size=(2, 4))
        no_gen = LossBatch(V=V, T=T)
        with_gen = LossBatch(V=V, T=T, G=(rng.normal(size=(3, 4)), np.zeros((0, 4))))
        params = LossParams(tau=0.5, beta=0.7)
        w0 = hn_nce_weights(no_gen, params)
        w1 = hn_nce_weights(with_gen, params)
        # Item 0 gains three generated negatives: multiplier 1 -> 4.
        assert w1.v2t_in[0, 1] == pytest.approx(4.0 * w0.v2t_in[0, 1], rel=1e-12)
        # Item 1 is unchanged.
        assert w1.v2t_in[1, 0] == pytest.approx(w0.v2t_in[1, 0], rel=1e-12)
        assert w1.v2t_gen[0].shape == (3,)
        assert np.all(w1.v2t_gen[0] > 0)

    def test_single_item_batch_has_empty_weights(self):
        batch = LossBatch(V=np.ones((1, 3)), T=np.ones((1, 3)))
        w = hn_nce_weights(batch, LossParams())
        assert np.all(w.v2t_in == 0.0) and np.all(w.t2v == 0.0)

    def test_all_defined_weights_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            batch = random_batch(rng)
            if batch.n_items == 1:
                continue
            w = hn_nce_weights(batch, LossParams(tau=0.3, beta=1.3))
            off_diag = ~np.eye(batch.n_items, dtype=bool)
            assert np.all(w.v2t_in[off_diag] > 0)
            assert np.all(w.t2v[off_diag] > 0)


class TestForward:
    def test_single_item_loss_is_zero(self):
        batch = LossBatch(V=np.full((1, 4), 2.0), T=np.full((1, 4), -1.0))
        assert hn_nce_forward(batch, LossParams()) == 0.0
        with_gen = LossBatch(
            V=batch.V, T=batch.T, G=(np.ones((2, 4)),)
        )
        assert hn_nce_forward(with_gen, LossParams()) == 0.0

    def test_two_item_batch_reduces_to_infonce(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            batch = random_batch(rng, n=2)
            tau = float(rng.uniform(0.05, 1.0))
            ours = hn_nce_forward(batch_without_gens(batch), LossParams(tau=tau, beta=1.0))
            oracle = infonce_oracle(batch.V, batch.T, tau)
            assert abs(ours - oracle) < 1e-12

    def test_appending_generated_negative_increases_loss(self):
        rng = np.random.default_rng(5)
        V = rng.normal(size=(3, 6))
        T = rng.normal(size=(3, 6))
        params = LossParams(tau=0.4, beta=0.8)
        base = hn_nce_forward(LossBatch(V=V, T=T), params)
        extra = rng.normal(size=(1, 6))
        augmented = hn_nce_forward(
            LossBatch(V=V, T=T, G=(extra, np.zeros((0, 6)), np.zeros((0, 6)))), params
        )
        assert augmented > base

    def test_increasing_gen_similarity_does_not_decrease_loss(self):
        rng = np.random.default_rng(6)
        V = rng.normal(size=(3, 5))
        T = rng.normal(size=(3, 5))
        G = (rng.normal(size=(2, 5)), np.zeros((0, 5)), np.zeros((0, 5)))
        batch = LossBatch(V=V, T=T, G=G)
        params = LossParams(tau=0.3, beta=0.6)
        base = hn_nce_forward(batch, params)
        # Push one generated negative along v_0 to raise its similarity. Its
        # weight is normalized over in-batch items only, so the weight rises
        # with its term.
        bumped = [g.copy() for g in G]
        bumped[0][1] += 0.5 * V[0] / np.dot(V[0], V[0])
        batch2 = LossBatch(V=V, T=T, G=tuple(bumped))
        assert hn_nce_forward(batch2, params) >= base

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            batch = random_batch(rng)
            assert hn_nce_forward(batch, LossParams(tau=0.2, beta=0.9)) >= 0.0

    def test_stability_at_extreme_similarities(self):
        for tau in (0.05, 0.5):
            magnitude = 100.0 / tau
            V = np.array([[magnitude], [-magnitude]])
            T = np.array([[1.0], [-1.0]])
            batch = LossBatch(V=V, T=T)
            params = LossParams(tau=tau, beta=2.0)
            assert math.isfinite(hn_nce_forward(batch, params))
            out = hn_nce_grad(batch, params)
            assert np.isfinite(out.grad_V).all() and np.isfinite(out.grad_T).all()

    def test_determinism(self):
        rng = np.random.default_rng(8)
        batch = random_batch(rng, n=5)
        params = LossParams(tau=0.07, beta=1.1)
        assert hn_nce_forward(batch, params) == hn_nce_forward(batch, params)
        g1, g2 = hn_nce_grad(batch, params), hn_nce_grad(batch, params)
        assert np.array_equal(g1.grad_V, g2.grad_V)
        assert np.array_equal(g1.grad_T, g2.grad_T)


def batch_without_gens(batch: LossBatch) -> LossBatch:
    return LossBatch(V=batch.V, T=batch.T)


class TestGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            tau = float(np.exp(rng.uniform(np.log(0.01), 0.0)))
            beta = float(rng.uniform(0.0, 2.0))
            batch = random_batch(rng, scale=math.sqrt(tau))
            err = finite_diff_check(batch, LossParams(tau=tau, beta=beta), h=1e-5)
            assert err <= 1e-6

    def test_single_item_gradients_are_zero(self):
        batch = LossBatch(V=np.ones((1, 3)), T=np.ones((1, 3)), G=(np.ones((2, 3)),))
        out = hn_nce_grad(batch, LossParams())
        assert out.loss == 0.0
        assert np.all(out.grad_V == 0.0) and np.all(out.grad_T == 0.0)
        assert np.all(out.grad_G[0] == 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        batch = random_batch(rng, n=4)
        params = LossParams(tau=0.3, beta=0.7)
        base = hn_nce_grad(batch, params)
        perm = [1, 0, 2, 3]
        swapped = LossBatch(
            V=batch.V[perm], T=batch.T[perm], G=tuple(batch.G[i] for i in perm)
        )
        out = hn_nce_grad(swapped, params)
        assert np.allclose(out.grad_V, base.grad_V[perm], atol=1e-12)
        assert np.allclose(out.grad_T, base.grad_T[perm], atol=1e-12)
        assert hn_nce_forward(swapped, params) == pytest.approx(
            hn_nce_forward(batch, params), abs=1e-12
        )

    def test_descent_direction_favors_positive_pair(self):
        # All pairwise similarities equal, texts distinct: moving against the
        # gradient must increase the similarity of each positive pair.
        n, d = 4, 6
        V = np.zeros((n, d)); V[:, 0] = 1.0
        T = np.zeros((n, d)); T[:, 0] = 0.5
        for i in range(n):
            T[i, 1 + i] = 0.8  # orthogonal tails keep s_ij constant
        batch = LossBatch(V=V, T=T)
        out = hn_nce_grad(batch, LossParams(tau=0.5, beta=1.0))
        for i in range(n):
            assert float(out.grad_V[i] @ T[i]) < 0.0


class TestRaggedOracle:
    @staticmethod
    def assert_close(ours, ref):
        ours, ref = np.asarray(ours), np.asarray(ref)
        assert ours.shape == ref.shape
        if ref.size:
            assert np.max(np.abs(ours - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1e-300)

    def test_matches_scalar_oracle_on_ragged_batches(self):
        rng = np.random.default_rng(13)
        batches = [random_batch(rng, gen_max=4) for _ in range(40)]
        batches.append(batch_without_gens(random_batch(rng, n=6)))  # all-empty G
        batches.append(random_batch(rng, n=1, gen_max=4))
        counts = [[len(g) for g in b.G] for b in batches]
        assert any(0 < sum(n_gen) and 0 in n_gen for n_gen in counts)
        for batch in batches:
            tau = float(rng.uniform(0.1, 1.0))
            beta = float(rng.uniform(0.0, 2.0))
            params = LossParams(tau=tau, beta=beta)
            out = hn_nce_grad(batch, params)
            loss, grad_V, grad_T, grad_G = hn_nce_oracle(batch.V, batch.T, batch.G, tau, beta)
            assert out.loss == hn_nce_forward(batch, params)
            assert abs(out.loss - loss) <= 1e-12 * max(abs(loss), 1e-300)
            self.assert_close(out.grad_V, grad_V)
            self.assert_close(out.grad_T, grad_T)
            assert len(out.grad_G) == len(grad_G) == batch.n_items
            for ours, ref in zip(out.grad_G, grad_G):
                self.assert_close(ours, ref)


def unit_rows(rng, shape):
    X = rng.normal(size=shape)
    return X / np.linalg.norm(X, axis=-1, keepdims=True)


def step_outputs(batch, params):
    """Every output of the loss module on one batch."""
    out = hn_nce_grad(batch, params)
    weights = hn_nce_weights(batch, params)
    arrays = (out.grad_V, out.grad_T, *out.grad_G, weights.v2t_in, weights.t2v, *weights.v2t_gen)
    return (out.loss, hn_nce_forward(batch, params)), arrays


class TestRowStackedG:
    """G given as the rows of one (items, k, dims) array is used in place."""

    def test_step_footprint_is_its_outputs(self):
        rng = np.random.default_rng(14)
        V, T, G3 = unit_rows(rng, (512, 256)), unit_rows(rng, (512, 256)), unit_rows(rng, (512, 4, 256))
        params = LossParams(tau=0.05, beta=0.5)
        hn_nce_grad(LossBatch(V, T, tuple(G3)), params)  # warm-up outside the trace
        tracemalloc.start()
        try:
            out = hn_nce_grad(LossBatch(V, T, tuple(G3)), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # grad_V, grad_T and grad_G are 6 MiB; a copy of G would add 4 MiB more.
        assert sum(a.nbytes for a in (out.grad_V, out.grad_T, *out.grad_G)) == 6 * 2**20
        assert peak <= 6.5 * 2**20

    @pytest.mark.parametrize(
        "form",
        [
            tuple,
            list,
            lambda G3: G3,
            lambda G3: tuple(np.array(G3.ravel()).reshape(G3.shape)),
            lambda G3: tuple(np.concatenate((np.zeros(5), G3.ravel()))[5:].reshape(G3.shape)),
        ],
        ids=["tuple", "list", "array", "rows-of-a-reshaped-flat-array", "rows-from-inside-a-flat-array"],
    )
    def test_row_views_are_not_copied(self, form):
        rng = np.random.default_rng(15)
        G3 = unit_rows(rng, (3, 2, 4))
        G = form(G3)
        batch = LossBatch(V=unit_rows(rng, (3, 4)), T=unit_rows(rng, (3, 4)), G=G)
        owner = G3 if G is G3 else G[0].base
        assert np.shares_memory(batch.G_padded, owner)
        assert np.array_equal(batch.G_padded, G3)
        assert not batch.G_padded.flags.writeable and G3.flags.writeable
        assert all(np.shares_memory(g, owner) for g in batch.G)

    @pytest.mark.parametrize(
        "layout",
        ["row-views", "array", "list-of-copies", "permuted-rows", "reversed-rows", "strided-rows",
         "misaligned-rows", "float32-rows", "ragged"],
    )
    def test_every_layout_gives_the_copy_path_outputs(self, layout):
        rng = np.random.default_rng(17)
        n, k, d = 5, 3, 4
        V, T = unit_rows(rng, (n, d)), unit_rows(rng, (n, d))
        G3 = unit_rows(rng, (n, k, d))
        wide = unit_rows(rng, (n, 2 * k, d))
        owner = np.zeros(n * k * d + 1)
        owner.view(np.uint8)[3 : 3 + G3.nbytes] = G3.view(np.uint8).ravel()
        G = {
            "row-views": lambda: tuple(G3),
            "array": lambda: G3,
            "list-of-copies": lambda: [g.copy() for g in G3],
            "permuted-rows": lambda: [G3[i] for i in (1, 0, 2, 4, 3)],
            "reversed-rows": lambda: tuple(G3[::-1]),
            "strided-rows": lambda: tuple(wide[:, :k]),
            # G3's rows stored 3 bytes into a float array: strides and step fit, the offset does not.
            "misaligned-rows": lambda: tuple(
                np.ndarray((k, d), np.float64, buffer=owner, offset=3 + i * k * d * 8) for i in range(n)
            ),
            "float32-rows": lambda: tuple(G3.astype(np.float32)),
            "ragged": lambda: tuple(G3[i, : i % (k + 1)] for i in range(n)),
        }[layout]()
        copied = [np.array(g, dtype=np.float64) for g in G]  # separately allocated: the copy path
        if layout in ("row-views", "array"):
            assert np.shares_memory(LossBatch(V, T, G).G_padded, G3)
        params = LossParams(tau=0.3, beta=0.7)
        scalars, arrays = step_outputs(LossBatch(V, T, G), params)
        ref_scalars, ref_arrays = step_outputs(LossBatch(V, T, copied), params)
        assert scalars == ref_scalars
        assert len(arrays) == len(ref_arrays)
        for ours, ref in zip(arrays, ref_arrays):
            assert ours.shape == ref.shape and np.array_equal(ours, ref)
        loss, grad_V, grad_T, grad_G = hn_nce_oracle(V, T, copied, params.tau, params.beta)
        out = hn_nce_grad(LossBatch(V, T, G), params)
        assert abs(out.loss - loss) <= 1e-12 * abs(loss)
        for ours, ref in ((out.grad_V, grad_V), (out.grad_T, grad_T), *zip(out.grad_G, grad_G)):
            TestRaggedOracle.assert_close(ours, ref)


class TestFiniteDiffCheck:
    def test_detects_injected_fault(self, monkeypatch):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, n=4, scale=0.5)
        params = LossParams(tau=0.2, beta=0.5)
        assert finite_diff_check(batch, params) <= 1e-6
        good = hn_nce_grad(batch, params)
        corrupted = good.grad_V.copy()
        corrupted[0, 0] += 0.1
        bad = LossOutput(
            loss=good.loss, grad_V=corrupted, grad_T=good.grad_T, grad_G=good.grad_G
        )
        monkeypatch.setattr(losses, "hn_nce_grad", lambda batch, params: bad)
        assert finite_diff_check(batch, params) > 1e-2

    def test_step_sweep_shrinks_then_plateaus(self):
        rng = np.random.default_rng(12)
        batch = random_batch(rng, n=5, scale=0.8)
        params = LossParams(tau=0.3, beta=0.9)
        errs = {h: finite_diff_check(batch, params, h=h) for h in (1e-3, 1e-4, 1e-5)}
        assert errs[1e-4] <= errs[1e-3]
        assert errs[1e-5] <= errs[1e-3]
        assert errs[1e-5] <= 1e-6

    def test_rejects_bad_step(self):
        batch = LossBatch(V=np.ones((2, 2)), T=np.ones((2, 2)))
        with pytest.raises(MalformedDocument):
            finite_diff_check(batch, LossParams(), h=0.0)

    def test_non_finite_step_or_gradient_never_passes(self, monkeypatch):
        batch = LossBatch(V=np.array([[0.3, 0.5], [0.2, -0.4]]), T=np.array([[0.1, 0.5], [0.7, -0.4]]))
        with pytest.raises(MalformedDocument):
            finite_diff_check(batch, LossParams(), h=math.inf)
        good = hn_nce_grad(batch, LossParams())
        bad = LossOutput(good.loss, np.full((2, 2), np.nan), good.grad_T, good.grad_G)
        monkeypatch.setattr(losses, "hn_nce_grad", lambda batch, params: bad)
        assert not finite_diff_check(batch, LossParams()) <= 1e-6


class TestBatchValidation:
    def test_shape_mismatch(self):
        with pytest.raises(MalformedDocument):
            LossBatch(V=np.ones((2, 3)), T=np.ones((3, 2)))

    def test_non_finite(self):
        bad = np.ones((2, 2)); bad[0, 0] = np.inf
        with pytest.raises(MalformedDocument):
            LossBatch(V=bad, T=np.ones((2, 2)))

    def test_gen_not_a_list(self):
        with pytest.raises(MalformedDocument, match="^G must be a list with one array per item$"):
            LossBatch(V=np.ones((2, 3)), T=np.ones((2, 3)), G=5)

    def test_gen_dimension_mismatch(self):
        with pytest.raises(MalformedDocument):
            LossBatch(V=np.ones((2, 3)), T=np.ones((2, 3)), G=(np.ones((1, 4)), np.zeros((0, 3))))

    def test_params_validation(self):
        with pytest.raises(MalformedDocument):
            LossParams(tau=0.0)
        with pytest.raises(MalformedDocument):
            LossParams(beta=-0.1)

    def test_unit_normalize(self):
        X = np.array([[3.0, 4.0], [0.0, 2.0]])
        Y = unit_normalize(X)
        assert np.allclose(np.linalg.norm(Y, axis=1), 1.0)
        with pytest.raises(MalformedDocument):
            unit_normalize(np.zeros((1, 2)))
