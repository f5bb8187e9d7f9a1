"""Single-layer peephole LSTM with an N-way softmax head.

Forward recurrence, per timestep (element-wise products written *):

    i_t = sigmoid(W_i x_t + U_i h_{t-1} + V_i c_{t-1} + b_i)
    f_t = sigmoid(W_f x_t + U_f h_{t-1} + V_f c_{t-1} + b_f)
    c_t = f_t * c_{t-1} + i_t * tanh(W_c x_t + U_c h_{t-1} + b_c)
    o_t = sigmoid(W_o x_t + U_o h_{t-1} + V_o c_t + b_o)      # peeks at the NEW cell
    h_t = o_t * tanh(c_t)

The gates are stored stacked in the order i, f, c, o: ``W`` (4H, D), ``U``
(4H, H) and ``b`` (4H,). The per-gate names of ``model.params`` (``W_i``,
``U_f``, ``b_o``, ...) are row-block views into them, so the ``RFANET01``
file still holds one tensor per name in PARAM_ORDER, unchanged.

Every pass is batched over B subsequences of L steps; one subsequence is
a batch of one. ``project`` maps all B*L input rows to gate pre-activations
with one GEMM; ``lstm_step`` advances the (B, H) state by one timestep;
``backward`` forms dU = dA^T H_prev as one GEMM over the batch, where
dA (B, L, 4H) holds the gate deltas. Training and embedding share this
kernel.

The (4H, D) input-weight gradient dA^T X is never formed: ``backward``
returns it as its factors dA and X, and ``sgd_update`` applies it to W one
cache-sized tile at a time.

Training minimizes the cross entropy of the softmax over identities,
averaged over every timestep of the subsequence. Gradients are exact
analytic backpropagation through time, including every peephole path; a
central finite-difference checker is provided as an independent oracle.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, FormatError
from .features import DescriptorRows
from .fileio import atomic_write

# serialization / init order is fixed for determinism
PARAM_ORDER = (
    "W_i", "U_i", "V_i", "b_i",
    "W_f", "U_f", "V_f", "b_f",
    "W_c", "U_c", "b_c",
    "W_o", "U_o", "V_o", "b_o",
    "W_y", "b_y",
)

GATES = "ifco"  # stacking order of the row blocks of W, U and b

MODEL_MAGIC = b"RFANET01"

# (rows, columns) of the W tiles that a factored SGD step forms one at a time
_STEP_TILE = (64, 4096)

# elements per init chunk, drawn and then scaled while in cache, and the
# threads that fill the chunks: the usable cores, at most 4
_INIT_CHUNK = 1 << 17
_INIT_WORKERS = min(
    4,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
)

LstmState = namedtuple("LstmState", ["h", "c"])


def _sigmoid(z):
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never
    overflows. min(z, -z) is -z on the first branch and z on the second, and
    passes a NaN through with its sign, as the per-branch exp did."""
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(logits):
    """Softmax over the last axis, max-subtracted for stability."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class Params(dict):
    """Model tensors by PARAM_ORDER name, over stacked gate storage.

    ``W`` (4H, D), ``U`` (4H, H) and ``b`` (4H,) hold the gates in GATES
    order, and ``W_i``, ``U_i``, ``b_i``, ... are views of their row blocks.
    Assigning to a name copies into the existing tensor, so the views and the
    stacked arrays never come apart. Only the names in ``shapes`` are made.

    A gradient set from ``backward`` has no ``W`` and no ``W_*`` names;
    its ``W_factors`` hold (dA, X), whose product dA^T X is the W gradient.
    """

    def __init__(self, shapes):
        super().__init__()
        H = shapes["U_i"][0]
        self.W = np.zeros((4 * H, shapes["W_i"][1])) if "W_i" in shapes else None
        self.U = np.zeros((4 * H, H))
        self.b = np.zeros(4 * H)
        stacked = {"W": self.W, "U": self.U, "b": self.b}
        for name in filter(shapes.__contains__, PARAM_ORDER):
            kind, gate = name.split("_")
            if kind in stacked and gate in GATES:
                k = GATES.index(gate)
                tensor = stacked[kind][k * H : (k + 1) * H]
            else:
                tensor = np.zeros(shapes[name])
            dict.__setitem__(self, name, tensor)

    def __setitem__(self, name, value):
        self[name][...] = value


def _param_shapes(D, H, N, peephole):
    """Tensor shapes by name, in PARAM_ORDER."""
    vshape = (H, H) if peephole == "full" else (H,)
    shapes = {}
    for g in GATES:
        shapes[f"W_{g}"] = (H, D)
        shapes[f"U_{g}"] = (H, H)
        if g != "c":
            shapes[f"V_{g}"] = vshape
        shapes[f"b_{g}"] = (H,)
    shapes["W_y"] = (N, H)
    shapes["b_y"] = (N,)
    return shapes


@dataclass
class RfaModel:
    input_dim: int
    hidden_dim: int
    num_classes: int
    peephole: str = "full"  # "full" (HxH peephole matrices) or "diagonal"
    params: Params = field(init=False, repr=False)

    def __post_init__(self):
        self.params = Params(self.param_shapes())  # zeros until init or load fills them

    def param_shapes(self):
        return _param_shapes(self.input_dim, self.hidden_dim, self.num_classes, self.peephole)


def init_model(input_dim, hidden_dim, num_classes, seed, peephole="full", init_bound=0.01):
    """All weights and biases i.i.d. uniform in [-init_bound, init_bound].

    The values are those of one ``default_rng(seed)`` drawing
    ``uniform(-init_bound, init_bound, shape)`` for each tensor in
    PARAM_ORDER. The tensors are cut into chunks that a few threads fill:
    each chunk advances its own copy of the stream to the chunk's position,
    so the values do not depend on the number of threads.
    """
    if min(input_dim, hidden_dim, num_classes) < 1:
        raise ConfigurationError("model dimensions must be >= 1")
    if peephole not in ("full", "diagonal"):
        raise ConfigurationError(f"unknown peephole mode {peephole!r}")
    model = RfaModel(input_dim, hidden_dim, num_classes, peephole)
    seed = np.random.SeedSequence(seed)  # one entropy draw even for seed=None
    chunks, position = [], 0
    for name in PARAM_ORDER:
        flat = model.params[name].reshape(-1)  # a view: every tensor is contiguous
        chunks += [(position + k, flat[k : k + _INIT_CHUNK])
                   for k in range(0, flat.size, _INIT_CHUNK)]
        position += flat.size

    def fill(chunk):
        start, values = chunk
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(start)  # one 64-bit draw per double
        # rng.uniform(-bound, bound) computes low + (high - low) * u
        rng.random(out=values)
        values *= 2.0 * init_bound
        values -= init_bound

    with ThreadPoolExecutor(min(_INIT_WORKERS, len(chunks))) as pool:
        list(pool.map(fill, chunks))
    return model


def _peep(V, c):
    """Peephole term V c for each row of c (B, H)."""
    return c @ V.T if V.ndim == 2 else c * V


def _peep_t(V, d):
    """Transposed peephole V^T d for each row of d (B, H)."""
    return d @ V if V.ndim == 2 else d * V


def project(model, xs):
    """Input pre-activations x W^T + b, shape (..., 4H), for inputs (..., D).

    Every row goes through one GEMM."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim < 1 or xs.shape[-1] != model.input_dim:
        raise DataError(f"input has shape {xs.shape}, expected (..., {model.input_dim})")
    p = model.params
    ax = xs.reshape(-1, model.input_dim) @ p.W.T
    ax += p.b
    return ax.reshape(*xs.shape[:-1], 4 * model.hidden_dim)


def lstm_step(model, ax, prev):
    """One recurrence step of a batch.

    ``ax`` (B, 4H) are the input pre-activations from ``project`` and ``prev``
    the (B, H) state. Returns the new state and the gate record
    {i, f, g, o, c, h}, each (B, H)."""
    H = model.hidden_dim
    h_prev, c_prev = prev
    if ax.shape[-1] != 4 * H or ax.shape[:-1] != h_prev.shape[:-1]:
        raise DataError(
            f"pre-activations have shape {ax.shape}, expected {h_prev.shape[:-1] + (4 * H,)}"
        )
    p = model.params
    a = ax + h_prev @ p.U.T
    i = _sigmoid(a[..., :H] + _peep(p["V_i"], c_prev))
    f = _sigmoid(a[..., H : 2 * H] + _peep(p["V_f"], c_prev))
    g = np.tanh(a[..., 2 * H : 3 * H])
    c = f * c_prev + i * g
    o = _sigmoid(a[..., 3 * H :] + _peep(p["V_o"], c))
    h = o * np.tanh(c)
    return LstmState(h, c), {"i": i, "f": f, "g": g, "o": o, "c": c, "h": h}


@dataclass
class ForwardTrace:
    x: np.ndarray       # (B, L, D)
    i: np.ndarray       # (B, L, H)
    f: np.ndarray
    g: np.ndarray       # candidate tanh
    o: np.ndarray
    c: np.ndarray
    h: np.ndarray
    mask: np.ndarray    # dropout keep mask, (B, L, H)
    hd: np.ndarray      # h after inverted-dropout scaling
    y: np.ndarray       # (B, L, N)
    losses: np.ndarray  # (B, L) per-timestep -log y[label]
    labels: np.ndarray  # (B,)
    dropout_rate: float


def forward(model, xs, labels, dropout_rate=0.0, rng=None):
    """Run a batch (B, L, D) of subsequences with their B labels through the
    network; returns (trace, loss), the loss (B,) per subsequence.

    Inverted dropout is applied to h_t before the softmax: kept units are
    divided by (1 - rate), so inference needs no rescaling. The keep masks
    are drawn as one rng.random((B, L, H)) block, subsequence by subsequence
    and step by step. With rate 0 the mask is all ones and the pass is
    deterministic.
    """
    X = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels)
    if X.ndim != 3 or X.shape[2] != model.input_dim:
        raise DataError(f"batch has shape {X.shape}, expected (B, L, {model.input_dim})")
    if labels.shape != X.shape[:1] or not np.issubdtype(labels.dtype, np.integer):
        raise DataError(f"expected {X.shape[0]} integer labels, got {labels!r}")
    if np.any((labels < 0) | (labels >= model.num_classes)):
        raise DataError(f"labels {labels} out of range for {model.num_classes} classes")
    if not 0.0 <= dropout_rate < 1.0:
        raise ConfigurationError("dropout rate must be in [0, 1)")
    if dropout_rate > 0.0 and rng is None:
        raise ConfigurationError("dropout requires a random generator")

    B, L, H = X.shape[0], X.shape[1], model.hidden_dim
    ax = project(model, X)
    rec = {k: np.empty((B, L, H)) for k in ("i", "f", "g", "o", "c", "h")}
    state = LstmState(np.zeros((B, H)), np.zeros((B, H)))
    for t in range(L):
        state, gates = lstm_step(model, ax[:, t], state)
        for k, v in gates.items():
            rec[k][:, t] = v
    if dropout_rate > 0:
        mask = (rng.random((B, L, H)) >= dropout_rate).astype(np.float64)
    else:
        mask = np.ones((B, L, H))
    hd = rec["h"] * mask / (1.0 - dropout_rate)
    y = _softmax(hd @ model.params["W_y"].T + model.params["b_y"])
    losses = -np.log(np.take_along_axis(y, labels[:, None, None], axis=2)[..., 0])
    return ForwardTrace(X, **rec, mask=mask, hd=hd, y=y, losses=losses, labels=labels,
                        dropout_rate=dropout_rate), losses.mean(axis=1)


def _shifted(a):
    """a[:, t - 1] at step t of a (B, L, H) record, zeros at t = 0."""
    out = np.zeros_like(a)
    out[:, 1:] = a[:, :-1]
    return out


def backward(model, trace):
    """Exact gradients of the forward loss w.r.t. every parameter (BPTT),
    summed over the batch.

    The (4H, D) W gradient dA^T X is not formed: the result has no W
    tensors, and its ``W_factors`` hold the (B*L, 4H) gate deltas dA and
    the (B*L, D) inputs X, for ``sgd_update`` to apply.
    """
    if trace.h.shape[2] != model.hidden_dim or trace.x.shape[2] != model.input_dim:
        raise DataError("trace dimensions do not match the model")
    p = model.params
    B, L, H = trace.h.shape
    N = model.num_classes
    grads = Params({n: s for n, s in model.param_shapes().items() if n[:2] != "W_" or n == "W_y"})

    # softmax head, every timestep at once, each weighted 1/L by the mean loss
    onehot = np.zeros((B, 1, N))
    onehot[np.arange(B), 0, trace.labels] = 1.0
    dz = (trace.y - onehot) * (1.0 / L)
    np.matmul(dz.reshape(B * L, N).T, trace.hd.reshape(B * L, H), out=grads["W_y"])
    grads["b_y"] = dz.sum(axis=(0, 1))
    dh_head = dz @ p["W_y"] * trace.mask / (1.0 - trace.dropout_rate)

    h_prev, c_prev = _shifted(trace.h), _shifted(trace.c)
    dA = np.empty((B, L, 4 * H))  # gate pre-activation deltas, GATES order
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(L - 1, -1, -1):
        i, f, g, o, c = trace.i[:, t], trace.f[:, t], trace.g[:, t], trace.o[:, t], trace.c[:, t]
        tc = np.tanh(c)
        dh = dh_head[:, t] + dh_next
        da = dA[:, t]
        da[:, 3 * H :] = dh * tc * o * (1.0 - o)
        dc = dh * o * (1.0 - tc * tc) + dc_next + _peep_t(p["V_o"], da[:, 3 * H :])
        da[:, :H] = dc * g * i * (1.0 - i)
        da[:, H : 2 * H] = dc * c_prev[:, t] * f * (1.0 - f)
        da[:, 2 * H : 3 * H] = dc * i * (1.0 - g * g)
        dh_next = da @ p.U
        dc_next = dc * f + _peep_t(p["V_i"], da[:, :H]) + _peep_t(p["V_f"], da[:, H : 2 * H])

    rows = dA.reshape(B * L, 4 * H)
    grads.W_factors = (rows, trace.x.reshape(B * L, -1))
    np.matmul(rows.T, h_prev.reshape(B * L, H), out=grads.U)
    grads.b[...] = rows.sum(axis=0)
    for name, k, cell in (("V_i", 0, c_prev), ("V_f", 1, c_prev), ("V_o", 3, trace.c)):
        delta = dA[..., k * H : (k + 1) * H]
        if model.peephole == "full":
            grads[name] = delta.reshape(B * L, H).T @ cell.reshape(B * L, H)
        else:
            grads[name] = (delta * cell).sum(axis=(0, 1))
    return grads


def sgd_update(model, grads, lr):
    """In-place theta <- theta - lr * grad for every parameter in ``grads``.

    The W gradient comes factored (``grads.W_factors``, see ``backward``)
    and is applied one _STEP_TILE tile of W at a time: the tile's part of
    (-lr dA)^T X is one GEMM into a cache-sized buffer, then added to W."""
    for name, g in grads.items():
        theta = model.params[name]  # not params[name] -= ..., which copies back
        theta -= g * lr
    dA, X = grads.W_factors
    step = dA * -lr
    W = model.params.W
    rows, cols = _STEP_TILE
    tile = np.empty((min(rows, W.shape[0]), min(cols, W.shape[1])))
    for r in range(0, W.shape[0], rows):
        for c in range(0, W.shape[1], cols):
            part = W[r : r + rows, c : c + cols]
            delta = tile[: part.shape[0], : part.shape[1]]
            np.matmul(step[:, r : r + rows].T, X[:, c : c + cols], out=delta)
            part += delta
    return model


def _grad_norm(grads):
    """The Frobenius norm of every gradient in ``grads``, the factored W
    gradient included, through ||dA^T X||^2 = sum((dA dA^T) * (X X^T)):
    two (B*L, B*L) Gram matrices in place of the (4H, D) product."""
    total = sum(float(np.vdot(g, g)) for g in grads.values())
    dA, X = grads.W_factors
    total += float(np.sum((dA @ dA.T) * (X @ X.T)))
    return np.sqrt(max(total, 0.0))  # rounding can take a near-zero sum below 0


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    subseq_len: int = 10
    epochs: int = 400
    lr_initial: float = 0.001
    lr_after: float = 0.0001
    lr_switch_epoch: int = 200
    dropout_rate: float = 0.5
    batch_size: int = 16
    seed: int = 0
    init_bound: float = 0.01
    hidden_dim: int = 512
    peephole: str = "full"
    clip_norm: float | None = None

    def validate(self):
        if self.subseq_len < 1 or self.epochs < 0 or self.batch_size < 1:
            raise ConfigurationError("subseq_len/batch_size must be >= 1, epochs >= 0")
        if not all(map(math.isfinite, (self.lr_initial, self.lr_after, self.init_bound))):
            raise ConfigurationError("lr_initial, lr_after and init_bound must be finite")
        if self.lr_initial <= 0 or self.lr_after <= 0:
            raise ConfigurationError("learning rates must be > 0")
        if self.lr_switch_epoch > self.epochs:
            raise ConfigurationError("lr_switch_epoch must be <= epochs")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError("dropout rate must be in [0, 1)")
        if self.hidden_dim < 1:
            raise ConfigurationError("hidden_dim must be >= 1")
        if self.peephole not in ("full", "diagonal"):
            raise ConfigurationError(f"unknown peephole mode {self.peephole!r}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            # a clip norm <= 0 would scale every step by 0 or flip its sign
            raise ConfigurationError("clip_norm must be > 0, or None for no clipping")


@dataclass
class LabeledSequence:
    """A training sequence: its (T, D) float64 descriptor rows, dense or as
    ``DescriptorRows`` of a store, which ``train`` expands a batch at a time."""

    label: int
    features: np.ndarray | DescriptorRows
    name: str = ""

    def __post_init__(self):
        if isinstance(self.features, DescriptorRows):
            return
        try:
            self.features = np.asarray(self.features, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DataError(f"sequence {self.name or self.label!r}: features are not "
                            f"a numeric array: {exc}") from exc


def train(sequences, cfg):
    """SGD over randomly drawn length-L subsequences; one instance per
    sequence per epoch, shuffled and processed in mini-batches with averaged
    gradients, one forward/backward call per mini-batch. The W gradient of a
    batch stays factored (see ``backward``), so training holds no array of
    W's size besides W itself. A batch's (B, L, D) input is filled instance
    by instance from slices of the sequences' features, so store-backed
    sequences expand only the B*L rows of the batch. Fully deterministic
    given cfg.seed.

    Raises DataError for a sequence with non-finite features (a store
    checks its own rows when it is built), and for a batch whose loss or
    gate deltas are non-finite, before that batch updates the model.

    Returns (model, per-epoch mean loss history).
    """
    cfg.validate()
    if not sequences:
        raise DataError("empty training set")
    labels = sorted({s.label for s in sequences})
    if len(labels) < 2:
        raise DataError("training requires at least 2 classes")
    num_classes = max(labels) + 1
    L = cfg.subseq_len
    input_dim = np.shape(sequences[0].features)[-1]
    for s in sequences:
        name = s.name or s.label
        if s.features.ndim != 2 or s.features.shape[1] != input_dim:
            raise DataError(
                f"sequence {name!r} has features of shape {s.features.shape}; "
                f"expected (T, {input_dim})"
            )
        if s.features.shape[0] < L:
            raise DataError(
                f"sequence {name!r} has {s.features.shape[0]} frames; need at least {L}"
            )
        if isinstance(s.features, np.ndarray) and not np.all(np.isfinite(s.features)):
            raise DataError(f"sequence {name!r} has non-finite features")

    rng = np.random.default_rng(cfg.seed)
    model = init_model(
        input_dim, cfg.hidden_dim, num_classes, rng.integers(2**63),
        peephole=cfg.peephole, init_bound=cfg.init_bound,
    )
    history = []
    for epoch in range(cfg.epochs):
        starts = [int(rng.integers(0, s.features.shape[0] - L + 1)) for s in sequences]
        order = rng.permutation(len(sequences))
        lr = cfg.lr_initial if epoch < cfg.lr_switch_epoch else cfg.lr_after
        epoch_losses = []
        for b in range(0, len(order), cfg.batch_size):
            batch = order[b : b + cfg.batch_size]
            xs = np.empty((len(batch), L, input_dim))
            for x, k in zip(xs, batch):
                x[...] = sequences[k].features[starts[k] : starts[k] + L]
            labels = np.array([sequences[k].label for k in batch])
            trace, losses = forward(model, xs, labels, dropout_rate=cfg.dropout_rate, rng=rng)
            grads = backward(model, trace)
            # b sums the gate deltas over the batch, so it is finite exactly
            # when they all are; checking it costs no pass over W
            for what, values in (("loss", losses), ("gate deltas", grads.b)):
                if not np.all(np.isfinite(values)):
                    raise DataError(f"epoch {epoch}: non-finite {what} in a training batch")
            epoch_losses.extend(losses.tolist())
            # grads holds the batch sum; the averaging and clipping factors
            # go into the step size instead of another pass over grads
            scale = 1.0 / len(batch)
            if cfg.clip_norm is not None:
                total = scale * _grad_norm(grads)
                if total > cfg.clip_norm:
                    scale *= cfg.clip_norm / total
            sgd_update(model, grads, lr * scale)
        history.append(float(np.mean(epoch_losses)))
    return model, history


# ---------------------------------------------------------------------------
# finite-difference gradient oracle
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    dims: tuple
    per_tensor: dict
    max_rel_error: float
    threshold: float = 1e-4

    @property
    def passed(self):
        return self.max_rel_error < self.threshold


def grad_check(
    input_dim=6, hidden_dim=4, num_classes=3, subseq_len=5, seed=0,
    eps=1e-5, peephole="full", corrupt=None,
):
    """Compare analytic BPTT gradients against central finite differences.

    Relative error is |a - n| / max(|a|, |n|, 1e-6); the floor keeps
    finite-difference roundoff (about 1e-11 on an O(1) loss) from inflating
    the ratio on near-zero gradient entries. The worst entry per tensor is
    reported. ``corrupt`` is a test hook mutating the analytic gradients
    before comparison.
    """
    rng = np.random.default_rng(seed)
    model = init_model(
        input_dim, hidden_dim, num_classes, rng.integers(2**63),
        peephole=peephole, init_bound=0.3,
    )
    xs = rng.standard_normal((1, subseq_len, input_dim)) * 0.8  # a batch of one
    labels = np.array([rng.integers(num_classes)])

    trace, _ = forward(model, xs, labels)
    grads = backward(model, trace)
    dA, X = grads.W_factors
    analytic = {**grads, **dict(zip((f"W_{g}" for g in GATES), np.split(dA.T @ X, 4)))}
    if corrupt is not None:
        corrupt(analytic)

    per_tensor = {}
    for name in PARAM_ORDER:
        flat = model.params[name].ravel()
        aflat = analytic[name].ravel()
        worst = 0.0
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            lp = forward(model, xs, labels)[1][0]
            flat[k] = orig - eps
            lm = forward(model, xs, labels)[1][0]
            flat[k] = orig
            numeric = (lp - lm) / (2.0 * eps)
            rel = abs(aflat[k] - numeric) / max(abs(aflat[k]), abs(numeric), 1e-6)
            worst = max(worst, rel)
        per_tensor[name] = worst
    return GradCheckReport(
        (input_dim, hidden_dim, num_classes, subseq_len),
        per_tensor,
        max(per_tensor.values()),
    )


# ---------------------------------------------------------------------------
# model file
# ---------------------------------------------------------------------------

def save_model(path, model):
    """Write the model as RFANET01, atomically; refuses non-finite parameters."""
    for name in PARAM_ORDER:
        if not np.all(np.isfinite(model.params[name])):
            raise DataError(f"parameter {name} has non-finite entries; model not written")
    with atomic_write(path) as fh:
        fh.write(MODEL_MAGIC)
        fh.write(
            struct.pack(
                "<IIIB",
                model.input_dim,
                model.hidden_dim,
                model.num_classes,
                0 if model.peephole == "full" else 1,
            )
        )
        for name in PARAM_ORDER:
            fh.write(np.ascontiguousarray(model.params[name], dtype="<f8").tobytes())


def load_model(path):
    """Read an RFANET01 file; each tensor is read straight into the model's
    own buffer, so the peak memory is the model plus one header. The tensor
    sizes the header implies are checked against the file size first, so a
    corrupt header allocates nothing. A tensor with a non-finite entry is a
    FormatError, as ``save_model`` never writes one."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(21)
        if header[:8] != MODEL_MAGIC:
            raise FormatError("bad model magic", 0)
        if len(header) < 21:
            raise FormatError("truncated model header", len(header))
        D, H, N, mode = struct.unpack_from("<IIIB", header, 8)
        for name, value, offset in (("D", D, 8), ("H", H, 12), ("N", N, 16)):
            if value == 0:
                raise FormatError(f"model dimension {name} is 0", offset)
        if mode not in (0, 1):
            raise FormatError(f"unknown peephole mode byte {mode}", 20)
        peephole = "full" if mode == 0 else "diagonal"
        pos = 21
        for name, shape in _param_shapes(D, H, N, peephole).items():
            pos += 8 * math.prod(shape)
            if pos > size:
                raise FormatError(f"truncated tensor {name}", size)
        if size > pos:
            raise FormatError(f"{size - pos} trailing bytes after the model tensors", pos)
        model = RfaModel(D, H, N, peephole)
        for name in PARAM_ORDER:
            tensor = model.params[name]  # contiguous: a row block or its own array
            if fh.readinto(memoryview(tensor).cast("B")) < tensor.nbytes:
                raise FormatError(f"truncated tensor {name}", fh.tell())  # it shrank
            if sys.byteorder == "big":
                tensor.byteswap(inplace=True)  # the file is little-endian
            if not np.isfinite(tensor).all():
                raise FormatError(f"tensor {name} has non-finite entries", fh.tell() - tensor.nbytes)
    return model
