"""Hard-negative noise-contrastive alignment loss with verified gradients.

The loss is a two-term contrastive objective over a batch of paired video
and text embeddings plus optional per-item generated hard negatives:

* video-to-text: the positive competes against weighted in-batch texts and
  weighted generated negatives;
* text-to-video: the positive competes against weighted in-batch videos.

Negative weights sharpen with a hardness exponent beta; their normalizer
sums over in-batch texts only, also for generated negatives, and the
video-to-text multiplier counts the generated negatives. Weights are treated
as constants when differentiating (the analytic gradient and the
finite-difference checker both hold them frozen). Everything but the
similarities v.t / tau is in log space: values and gradients stay finite
for any similarity a float64 holds, and are NaN or infinite past it.

A batch of one item has no in-batch negatives, which leaves the weight
normalizer undefined: all weight sets come back empty, generated negatives
are dropped, and the loss is exactly zero. Embeddings are consumed as-is
(raw dot products); use unit_normalize first if cosine similarity is wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .documents import require
from .errors import MalformedDocument

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class LossParams:
    """Temperature and hardness exponent."""

    tau: float = 0.05
    beta: float = 0.5

    def __post_init__(self) -> None:
        # Checked as document fields; each value keeps its type.
        settings = vars(self)
        if not require(settings, "tau", float) > 0:
            raise MalformedDocument(f"key 'tau' must be positive, got {self.tau}")
        if not require(settings, "beta", float) >= 0:
            raise MalformedDocument(f"key 'beta' must be non-negative, got {self.beta}")


def _float_array(value, name: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer past the float range
        raise MalformedDocument(f"{name} is not a numeric array: {exc}") from None


@dataclass(frozen=True)
class LossBatch:
    """Paired embeddings plus per-item generated hard negatives.

    G holds one (n_gen_i, dims) array per item, each a view into G_padded,
    the read-only (items, max n_gen, dims) array the loss works on; gen_mask
    marks which of its slots hold a negative. Padding slots get a log-weight
    of -inf, so they add nothing to any sum. When the caller's G is a
    C-contiguous (items, k, dims) float64 array, or its rows in order,
    G_padded is a view of that array rather than a copy, as V and T are of
    theirs.
    """

    V: np.ndarray
    T: np.ndarray
    G: tuple[np.ndarray, ...] = ()
    G_padded: np.ndarray = field(init=False, repr=False, compare=False)
    gen_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        V = _float_array(self.V, "V")
        T = _float_array(self.T, "T")
        if V.ndim != 2 or T.ndim != 2:
            raise MalformedDocument("V and T must be 2-d (items x dims)")
        if V.shape != T.shape:
            raise MalformedDocument(f"V shape {V.shape} != T shape {T.shape}")
        n, d = V.shape
        if n < 1 or d < 1:
            raise MalformedDocument("need at least one item and one dimension")
        if not (np.isfinite(V).all() and np.isfinite(T).all()):
            raise MalformedDocument("V and T must be finite")
        stacked = _row_stack(self.G, n, d)
        if stacked is None:
            padded, counts = _padded_copy(self.G, n, d)
        else:
            padded, counts = stacked.view(), np.full(n, stacked.shape[1])
        padded.flags.writeable = False
        finite = np.isfinite(padded).all(axis=(1, 2))
        if not finite.all():
            raise MalformedDocument(f"G[{int(np.argmin(finite))}] has non-finite entries")
        mask = np.arange(padded.shape[1]) < counts[:, None]
        fields = {"V": V, "T": T, "G": _unpad(padded, mask), "G_padded": padded, "gen_mask": mask}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def n_items(self) -> int:
        return self.V.shape[0]


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _row_stack(G, n: int, d: int) -> np.ndarray | None:
    """A C-contiguous (n, k, d) float64 array that G is, or a view of the
    memory that G's items span when they are, in order, the rows of one such
    array; None otherwise. Rows need not come from the (n, k, d) array
    itself: an array reshaped from a flat one, as np.load returns it, has
    rows whose base is the flat one."""
    if isinstance(G, np.ndarray):
        fits = G.dtype == np.float64 and G.ndim == 3 and G.shape[::2] == (n, d)
        return G if fits and G.flags.c_contiguous else None
    if not (isinstance(G, (tuple, list)) and len(G) == n and type(G[0]) is np.ndarray):
        return None
    first = G[0]
    owner, dtype, shape, strides = first.base, first.dtype, first.shape, (d * 8, 8)
    if not (
        isinstance(owner, np.ndarray)
        and owner.dtype == np.float64
        and owner.flags.c_contiguous
        and dtype == np.float64
        and len(shape) == 2
        and shape[0] > 0
        and shape[1] == d
        and first.strides == strides
    ):
        return None
    start = _address(first)
    offset, misaligned = divmod(start - _address(owner), 8)
    if misaligned:
        return None
    step = shape[0] * d * 8
    expected = start
    for g in G:
        # Attributes first: only a row that passes them has its address read.
        if not (
            type(g) is np.ndarray
            and g.base is owner
            and g.dtype is dtype
            and g.shape == shape
            and g.strides == strides
            and _address(g) == expected
        ):
            return None
        expected += step
    # Every row lies in owner, so the span from the first row's start does too.
    return owner.reshape(-1)[offset : offset + n * shape[0] * d].reshape(n, shape[0], d)


def _padded_copy(G, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """G's per-item arrays copied into one zero-padded (n, max n_gen, d)
    array, and each item's count of generated negatives."""
    try:
        raw_g = tuple(G)
    except TypeError:
        raise MalformedDocument("G must be a list with one array per item") from None
    if len(raw_g) not in (0, n):
        raise MalformedDocument(f"G must have one entry per item, got {len(raw_g)}")
    gens = [_float_array(g, f"G[{i}]") for i, g in enumerate(raw_g)]
    for i, g in enumerate(gens):
        if g.size and (g.ndim != 2 or g.shape[1] != d):
            raise MalformedDocument(f"G[{i}] must have shape (n_gen, {d})")
    counts = np.array([len(g) if g.size else 0 for g in gens] or [0] * n)
    padded = np.zeros((n, counts.max(), d))
    for row, g, c in zip(padded, gens, counts):
        row[:c] = g.reshape(c, d)
    return padded, counts


@dataclass(frozen=True)
class HnWeights:
    """Negative-sample weights; zeros stand for empty (undefined) entries."""

    v2t_in: np.ndarray  # [i, j]: weight of text j as negative for video i
    v2t_gen: tuple[np.ndarray, ...]  # [i][k]: weight of generated negative k
    t2v: np.ndarray  # [j, i]: weight of video j as negative for text i


@dataclass(frozen=True)
class LossOutput:
    loss: float
    grad_V: np.ndarray
    grad_T: np.ndarray
    grad_G: tuple[np.ndarray, ...]


def unit_normalize(X: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm."""
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise MalformedDocument("cannot normalize a zero row")
    return X / norms


def _lse(a: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """(lse, exp(a - m), m) along an axis, m being the max, or 0 where a slice
    is empty or all -inf (its lse is then -inf, not NaN). exp(a - m) goes to out.
    """
    m = np.max(a, axis=axis, keepdims=True, initial=_NEG_INF)
    m[~np.isfinite(m)] = 0.0
    e = np.subtract(a, m, out=out)
    np.exp(e, out=e)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(e, axis=axis)) + np.squeeze(m, axis=axis), e, m


def _unpad(padded: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-item views of the valid prefix of each row of a padded array."""
    if mask.all():
        return tuple(padded)
    return tuple(row[:c] for row, c in zip(padded, mask.sum(axis=1)))


def _logits(V: np.ndarray, T: np.ndarray, G: np.ndarray, tau: float) -> tuple[np.ndarray, ...]:
    """L[i, m] = v_i . t_m / tau and L_gen[i, k] = v_i . g_ik / tau; leading axes stack batches."""
    L = V @ np.swapaxes(T, -1, -2)
    L /= tau
    L_gen = np.einsum("...id,...ikd->...ik", V, G)
    L_gen /= tau
    return L, L_gen


def _log_weights(L: np.ndarray, L_gen: np.ndarray, mask: np.ndarray, beta: float) -> tuple:
    """Log of the negative-sample weights; -inf marks empty entries.

    The normalizer in each direction sums over in-batch items only; a batch
    of one has no such items, so every entry degenerates to -inf.
    """
    n = L.shape[0]
    if n == 1:
        return np.full((1, 1), _NEG_INF), np.full(L_gen.shape, _NEG_INF), np.full((1, 1), _NEG_INF)
    # n x n arrays are reused in place where possible: on a large batch a
    # fresh one costs more in page faults than the arithmetic that fills it.
    diag = np.diagonal(L).copy()
    np.fill_diagonal(L, _NEG_INF)  # the normalizers skip the positive pair
    log_z_v2t, spare, _ = _lse(L)  # [i]: LSE over texts m != i of L[i,m]
    log_z_t2v = _lse(L, axis=0, out=spare)[0]  # [i]: over videos m != i of L[m,i]
    np.fill_diagonal(L, diag)

    hard = np.multiply(L, beta, out=spare)
    log_mult = np.log(n + mask.sum(axis=1) - 1.0)[:, None]
    logw_in = hard + log_mult
    logw_in -= log_z_v2t[:, None]
    np.fill_diagonal(logw_in, _NEG_INF)
    logw_gen = log_mult + beta * L_gen - log_z_v2t[:, None]
    logw_gen[~mask] = _NEG_INF
    logw_t2v = hard
    logw_t2v += np.log(n - 1.0)
    logw_t2v -= log_z_t2v[None, :]
    np.fill_diagonal(logw_t2v, _NEG_INF)
    return logw_in, logw_gen, logw_t2v


def _terms(L: np.ndarray, L_gen: np.ndarray, logw_in, logw_gen, logw_t2v) -> tuple:
    """Per-item loss terms and each competitor's share of its term.

    Returns term1, term2 and the shares P1[i, m] of text m in video i's term,
    P1_gen[i, k] of generated negative k in it and P2t[m, i] of video m in
    text i's term. P1 and P2t overwrite logw_in and logw_t2v, which must have
    L's shape. Leading axes of L and L_gen stack batches.
    """
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    # A[i, m] = L[i, m] - L[i, i] + logw_in[i, m]; Bt[m, i] = L[m, i] - L[i, i] + logw_t2v[m, i]
    for logw, d in ((logw_in, diag[..., :, None]), (logw_t2v, diag[..., None, :])):
        logw += L
        logw -= d
    A_gen = L_gen - diag[..., :, None]
    A_gen += logw_gen
    lse_in, P1, m_in = _lse(logw_in, out=logw_in)
    lse_gen, P1_gen, m_gen = _lse(A_gen, out=A_gen)
    term1 = np.logaddexp(0.0, np.logaddexp(lse_in, lse_gen))
    lse_t2v, P2t, m_t2v = _lse(logw_t2v, axis=-2, out=logw_t2v)
    term2 = np.logaddexp(0.0, lse_t2v)
    # Rescale each exp(x - m) to exp(x - term), its share of the term.
    P1 *= np.exp(m_in - term1[..., None])
    P1_gen *= np.exp(m_gen - term1[..., None])
    P2t *= np.exp(m_t2v - term2[..., None, :])
    return term1, term2, P1, P1_gen, P2t


def hn_nce_weights(batch: LossBatch, params: LossParams) -> HnWeights:
    """Negative-sample weights for both directions.

    All defined weights are strictly positive. A batch of one item has no
    in-batch negatives: every weight set is empty and comes back as zeros.
    """
    L, L_gen = _logits(batch.V, batch.T, batch.G_padded, params.tau)
    logw_in, logw_gen, logw_t2v = _log_weights(L, L_gen, batch.gen_mask, params.beta)
    with np.errstate(over="ignore"):
        v2t_gen = _unpad(np.exp(logw_gen), batch.gen_mask)
        return HnWeights(np.exp(logw_in, out=logw_in), v2t_gen, np.exp(logw_t2v, out=logw_t2v))


def hn_nce_forward(batch: LossBatch, params: LossParams) -> float:
    """Mean over the batch of the two contrastive terms."""
    L, L_gen = _logits(batch.V, batch.T, batch.G_padded, params.tau)
    logw = _log_weights(L, L_gen, batch.gen_mask, params.beta)
    term1, term2, _, _, _ = _terms(L, L_gen, *logw)
    return float(np.mean(term1 + term2))


def hn_nce_grad(batch: LossBatch, params: LossParams) -> LossOutput:
    """Analytic gradient with the weights held constant."""
    V, T, G = batch.V, batch.T, batch.G_padded
    L, L_gen = _logits(V, T, G, params.tau)
    logw = _log_weights(L, L_gen, batch.gen_mask, params.beta)
    term1, term2, Q, P1_gen, P2t = _terms(L, L_gen, *logw)
    del L, logw
    # Q[i, m] = P1[i, m] + P2[m, i], less one on the diagonal for each
    # positive's own share; it carries both directions into grad_V and grad_T.
    np.fill_diagonal(Q, np.exp(-term1) - 1.0)
    np.fill_diagonal(P2t, np.exp(-term2) - 1.0)
    Q += P2t
    del P2t

    scale = 1.0 / (batch.n_items * params.tau)
    # In place, with the operations in the order (Q @ T + einsum) * scale
    # would take, and Q freed before the largest output is allocated.
    grad_V = Q @ T
    grad_V += np.einsum("ik,ikd->id", P1_gen, G)
    grad_V *= scale
    grad_T = Q.T @ V
    grad_T *= scale
    del Q
    grad_G = (P1_gen * scale)[:, :, None] * V[:, None, :]
    loss = float(np.mean(term1 + term2))
    return LossOutput(loss, grad_V, grad_T, _unpad(grad_G, batch.gen_mask))


def finite_diff_check(batch: LossBatch, params: LossParams, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    The differenced function keeps the weights frozen at their unperturbed
    values, matching the stop-gradient contract of hn_nce_grad. Relative
    error uses max(|analytic|, |numeric|, 1e-12) as the denominator.
    """
    if not 0 < h < math.inf:
        raise MalformedDocument(f"step size must be positive and finite, got {h}")
    analytic = hn_nce_grad(batch, params)
    (n, d), g, tau = batch.V.shape, batch.G_padded.shape[1], params.tau
    L, L_gen = _logits(batch.V, batch.T, batch.G_padded, tau)
    # Differencing at h=1e-5 leaves ~eps/h of roundoff in every numeric
    # partial; evaluating the frozen-weight forward in extended precision
    # (and differencing before any cast back) keeps that noise below the
    # 1e-6 comparison threshold. The analytic side stays double precision.
    logw = [w.astype(np.longdouble) for w in _log_weights(L, L_gen, batch.gen_mask, params.beta)]

    # All inputs as one vector [V, T, padded G]; each entry outside the
    # padding gets a row perturbed by +h and a row perturbed by -h.
    flat = np.concatenate((batch.V, batch.T, batch.G_padded), axis=None, dtype=np.longdouble)
    in_gen = np.repeat(batch.gen_mask, d, axis=1).ravel()
    entries = np.flatnonzero(np.concatenate([np.ones(2 * n * d, bool), in_gen]))
    grad = np.concatenate((analytic.grad_V, analytic.grad_T, *analytic.grad_G), axis=None)
    worst = 0.0
    # Blocks of at most 2**20 stacked longdouble inputs (16 MiB) bound the memory.
    rows = max(1, (1 << 20) // (2 * (flat.size + n * (n + g))))
    for start in range(0, entries.size, rows):
        chunk = entries[start : start + rows]
        k = chunk.size
        X = np.broadcast_to(flat, (2, k, flat.size)).copy()
        X[0, np.arange(k), chunk] += h
        X[1, np.arange(k), chunk] -= h
        V, T, G = np.split(X, [n * d, 2 * n * d], axis=-1)
        V, T, G = V.reshape(2, k, n, d), T.reshape(2, k, n, d), G.reshape(2, k, n, g, d)
        L, L_gen = _logits(V, T, G, tau)
        own_in, own_t2v = (np.broadcast_to(w, L.shape).copy() for w in (logw[0], logw[2]))
        term1, term2, _, _, _ = _terms(L, L_gen, own_in, logw[1], own_t2v)
        f = np.sum(term1 + term2, axis=-1) / n  # frozen-weight loss of each row
        numeric = (f[0] - f[1]) / (2 * h)
        a = grad[start : start + rows]
        rel = abs(a - numeric) / np.maximum(np.maximum(abs(a), abs(numeric)), 1e-12)
        worst = np.maximum(worst, rel.max())  # a NaN error must not pass as agreement
    return float(worst)
