"""The batched stacked-gate kernel against the per-step loop in
lstm_reference.py. Summation order differs (GEMMs over the batch against
per-step outer products), so values agree to a tolerance, not bit for bit;
random draws, init values and the model file are compared exactly."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

import lstm_reference as ref
import rfanet as rf
from rfanet.aggregate import _derive_seed, _unroll, sample_starts
from rfanet.rnn import PARAM_ORDER, Params

D, H, N, L = 7, 4, 3, 5
RTOL = 1e-10
TRACE_KEYS = ("mask", "hd", "y", "losses")


def _model(peephole, seed=3):
    return rf.init_model(D, H, N, seed=seed, peephole=peephole, init_bound=0.4)


def _plain(model):
    return {name: model.params[name].copy() for name in PARAM_ORDER}


# the names of a gradient set: the W gates' gradient stays factored
NO_W_GATES = [n for n in PARAM_ORDER if n[:2] != "W_" or n == "W_y"]


def _loss_ids(cases):
    """Test ids that name the loss, the mean over timesteps, next to each case."""
    return [f"{peephole}-per_timestep-{rest}" for peephole, rest in cases]


def _with_dense_w(grads):
    """The gradient set with each gate's W gradient formed from its rows of dA^T X."""
    dA, X = grads.W_factors
    return {**grads, **{f"W_{g}": dA[:, k * H : (k + 1) * H].T @ X for k, g in enumerate("ifco")}}


def test_init_and_file_match_reference(tmp_path):
    for peephole in ("full", "diagonal"):
        model = rf.init_model(D, H, N, seed=12, peephole=peephole, init_bound=0.05)
        params = ref.init_params(model.param_shapes(), 12, 0.05)
        for name in PARAM_ORDER:
            assert np.array_equal(model.params[name], params[name]), name
        path = tmp_path / f"{peephole}.rfanet"
        rf.save_model(path, model)
        assert path.read_bytes() == ref.model_bytes(D, H, N, peephole, params)


def test_params_are_views_of_stacked_storage():
    model = _model("full")
    p = model.params
    for k, gate in enumerate("ifco"):
        assert np.shares_memory(p[f"W_{gate}"], p.W)
        assert np.array_equal(p.W[k * H : (k + 1) * H], p[f"W_{gate}"])
        assert np.array_equal(p.U[k * H : (k + 1) * H], p[f"U_{gate}"])
        assert np.array_equal(p.b[k * H : (k + 1) * H], p[f"b_{gate}"])
    # assigning a name writes through to the stacked arrays
    p["U_c"] = np.ones((H, H))
    assert np.all(p.U[2 * H : 3 * H] == 1.0)
    copy = _model("full")
    copy.params["W_o"][...] = 0.0
    assert np.all(copy.params.W[3 * H :] == 0.0) and not np.all(p.W[3 * H :] == 0.0)


@pytest.mark.parametrize("peephole", ["full", "diagonal"], ids=lambda p: f"per_timestep-{p}")
@pytest.mark.parametrize("B", [1, 3])
def test_forward_backward_match_loop(peephole, B):
    model = _model(peephole)
    data = np.random.default_rng(8)
    xs = data.standard_normal((B, L, D))
    labels = data.integers(0, N, size=B)
    rate = 0.4

    batch_trace, loss = rf.forward(model, xs, labels, rate, np.random.default_rng(5))
    factored = rf.backward(model, batch_trace)
    trace = {k: getattr(batch_trace, k) for k in TRACE_KEYS}
    trace.update(zip("ifgo", np.split(batch_trace.gates, 4, axis=2)))
    trace.update(c=batch_trace.c[:, 1:], h=batch_trace.h[:, 1:])  # step 0 is the zero state

    p = _plain(model)
    draws = np.random.default_rng(5)  # one stream, instance by instance
    want_grads = {k: np.zeros_like(v) for k, v in p.items()}
    for b in range(len(labels)):
        rec, want_loss = ref.forward(p, xs[b], labels[b], rate, draws)
        assert loss[b] == pytest.approx(want_loss, rel=RTOL, abs=0)
        for k, v in trace.items():
            if k == "mask":
                assert np.array_equal(v[b], rec[k])
            else:
                np.testing.assert_allclose(v[b], rec[k], rtol=RTOL, atol=0, err_msg=k)
        g = ref.backward(p, xs[b], rec, labels[b], rate, peephole)
        for name in want_grads:
            want_grads[name] += g[name]
    assert list(factored) == NO_W_GATES
    grads = _with_dense_w(factored)
    for name in PARAM_ORDER:
        np.testing.assert_allclose(grads[name], want_grads[name], rtol=RTOL, atol=0,
                                   err_msg=name)


@pytest.mark.parametrize("peephole", ["full", "diagonal"])
@pytest.mark.parametrize("B", [1, 3, 16])
def test_forward_runs_the_embedding_recurrence(peephole, B):
    # training and embedding share one kernel: with dropout 0 the hidden
    # states of forward are those of the embedding unroll, bit for bit
    model = _model(peephole)
    xs = np.random.default_rng(9).standard_normal((B, L, D))
    trace, _ = rf.forward(model, xs, np.zeros(B, dtype=int))
    assert not trace.h[:, 0].any() and not trace.c[:, 0].any()
    assert np.array_equal(trace.h[:, 1:], _unroll(model, rf.project(model, xs)))


TRAIN_LOOP_CASES = [("full", None), ("diagonal", 0.5)]


@pytest.mark.parametrize("peephole,clip_norm", TRAIN_LOOP_CASES, ids=_loss_ids(TRAIN_LOOP_CASES))
def test_train_matches_loop(peephole, clip_norm):
    data = np.random.default_rng(21)
    seqs = [
        rf.LabeledSequence(k % N, data.standard_normal((L + 3, D)) + k % N, f"s{k}")
        for k in range(7)
    ]
    # 7 instances in batches of 3: the last batch of every epoch is partial
    cfg = rf.TrainConfig(
        subseq_len=L, epochs=3, lr_initial=0.5, lr_after=0.1, lr_switch_epoch=2,
        dropout_rate=0.3, batch_size=3, seed=4, init_bound=0.3, hidden_dim=H,
        peephole=peephole, clip_norm=clip_norm,
    )
    model, history = rf.train(seqs, cfg)
    shapes = rf.RfaModel(D, H, N, peephole).param_shapes()
    params, want_history = ref.train(seqs, cfg, shapes)
    np.testing.assert_allclose(history, want_history, rtol=1e-9, atol=0)
    for name in PARAM_ORDER:
        np.testing.assert_allclose(model.params[name], params[name], rtol=1e-9, atol=0,
                                   err_msg=name)


# sha256 of the model file and the float64 loss history of a small training
# run; any change to the bits of the training step fails here. The GEMMs make
# the bits those of the BLAS build (recorded with OpenBLAS 0.3.31, x86-64):
# one that sums in another order gives other digests
TRAIN_DIGESTS = {
    ("full", None): "14bb4c83729bde6b1cc317b37b508b57952fb5198fce0b45671b37f390f5f941",
    ("full", 0.05): "88acb73679841fc322e4efa9d5b8d6e571c0a95cad0cb4f56d9bd4180eff5c04",
    ("diagonal", None): "0a5ef58500cd21c1f4d029d01ed2405e60d265faeb3caf0148f4bb074f7e07ed",
    ("diagonal", 0.05): "b1835f18910da54a841f1fcbb3125c3695a6e800ab16911aff17e6a0e36d8808",
}


@pytest.mark.parametrize("peephole,clip_norm", list(TRAIN_DIGESTS), ids=_loss_ids(TRAIN_DIGESTS))
def test_train_golden_digest(tmp_path, peephole, clip_norm):
    data = np.random.default_rng(31)
    seqs = [
        rf.LabeledSequence(k % N, data.standard_normal((L + 4, D)) + k % N, f"s{k}")
        for k in range(8)
    ]
    # 8 instances in batches of 3, and a clip norm of 0.05 that fires
    cfg = rf.TrainConfig(
        subseq_len=L, epochs=4, lr_initial=0.5, lr_after=0.1, lr_switch_epoch=2,
        dropout_rate=0.3, batch_size=3, seed=5, init_bound=0.3, hidden_dim=H,
        peephole=peephole, clip_norm=clip_norm,
    )
    model, history = rf.train(seqs, cfg)
    path = tmp_path / "model.rfanet"
    rf.save_model(path, model)
    digest = hashlib.sha256(path.read_bytes() + np.array(history).tobytes()).hexdigest()
    assert digest == TRAIN_DIGESTS[peephole, clip_norm]


def test_embeddings_match_per_window_mean():
    model = _model("full")
    frames = np.random.default_rng(2).standard_normal((11, D))
    cfg = rf.AggregationConfig(L, 6, seed=9)
    p = _plain(model)
    starts = sample_starts(11, L, 6, _derive_seed(9, 4, 1))
    windows = np.array([ref.hidden_states(p, frames[s : s + L]) for s in starts])
    emb = rf.embed_sequence(model, frames, cfg, 4, 1).values
    np.testing.assert_allclose(emb, windows.reshape(6, -1).mean(axis=0), rtol=RTOL, atol=0)
    for depth in range(1, L + 1):  # the depth-t embedding is the t-th H-block
        np.testing.assert_allclose(emb[(depth - 1) * H : depth * H],
                                   windows[:, depth - 1].mean(axis=0), rtol=RTOL, atol=0)


# ---------------------------------------------------------------------------
# factored training step and threaded init
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 3])
def test_threaded_init_equals_stacked_uniform_draws(monkeypatch, tmp_path, workers):
    import rfanet.rnn

    monkeypatch.setattr(rfanet.rnn, "_INIT_WORKERS", workers)
    # W_i alone spans 2.4 chunks, so chunks start inside tensors and cross
    # from one gate's rows into the next
    D_big, H_small, seed = 40_000, 8, np.int64(2**62 + 7)
    model = rf.init_model(D_big, H_small, 3, seed=seed, peephole="diagonal", init_bound=0.05)
    assert model.params["W_i"].size > 2 * rfanet.rnn._INIT_CHUNK
    params = ref.init_params(model.param_shapes(), seed, 0.05)
    for name in PARAM_ORDER:
        assert np.array_equal(model.params[name], params[name]), name
    # odd-sized chunks on a small model, in both peephole modes
    monkeypatch.setattr(rfanet.rnn, "_INIT_CHUNK", 13)
    for peephole in ("full", "diagonal"):
        model = rf.init_model(D, H, N, seed=12, peephole=peephole, init_bound=0.05)
        path = tmp_path / f"{peephole}.rfanet"
        rf.save_model(path, model)
        params = ref.init_params(model.param_shapes(), 12, 0.05)
        assert path.read_bytes() == ref.model_bytes(D, H, N, peephole, params)


@pytest.mark.parametrize("peephole", ["full", "diagonal"])
def test_factored_gradients_equal_dense(monkeypatch, peephole):
    import rfanet.rnn

    model = _model(peephole)
    data = np.random.default_rng(6)
    xs = data.standard_normal((3, L, D))
    labels = np.array([0, 2, 1])
    trace, _ = rf.forward(model, xs, labels)
    factored = rf.backward(model, trace)
    dense = _with_dense_w(factored)
    assert factored.W is None
    assert list(factored) == NO_W_GATES
    dA, X = factored.W_factors
    assert dA.shape == (3 * L, 4 * H) and X.shape == (3 * L, D)
    want_norm = np.sqrt(sum(float(np.sum(g * g)) for g in dense.values()))
    assert rfanet.rnn._grad_norm(factored) == pytest.approx(want_norm, rel=1e-12)

    # tiles that do not divide W, so the last row and column tiles are partial
    monkeypatch.setattr(rfanet.rnn, "_STEP_TILE", (5, 3))
    m_dense, m_factored = _model(peephole), _model(peephole)
    dense_set = Params(model.param_shapes())  # the W gates' rows as dense tensors
    for name, g in dense.items():
        dense_set[name] = g
    dense_set.W_factors = (np.zeros((1, 4 * H)), np.zeros((1, D)))
    rf.sgd_update(m_dense, dense_set, 0.3)
    rf.sgd_update(m_factored, factored, 0.3)
    for name in PARAM_ORDER:
        np.testing.assert_allclose(m_factored.params[name], m_dense.params[name],
                                   rtol=1e-12, atol=1e-15, err_msg=name)


def test_grad_norm_floors_a_rounded_negative_sum():
    import rfanet.rnn

    # one-column inputs a step of one ulp apart: every Gram entry is a single
    # rounded product, and a^2 - ab - ab + b^2 sums to -2.2e-16, where the
    # exact squared norm (a - b)^2 is 4.9e-32
    X = np.array([[1.2535131086748066], [1.2535131086748068]])
    shapes = rf.RfaModel(1, 1, 2).param_shapes()
    grads = rfanet.rnn.Params({n: shapes[n] for n in NO_W_GATES})
    grads.W_factors = (np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]]), X)
    assert 0.0 <= rfanet.rnn._grad_norm(grads) < 1e-7


@pytest.mark.parametrize("peephole", ["full", "diagonal"])
def test_train_with_firing_clip_matches_loop(peephole):
    data = np.random.default_rng(23)
    seqs = [
        rf.LabeledSequence(k % N, data.standard_normal((L + 2, D)) + k % N, f"s{k}")
        for k in range(5)
    ]
    cfg = rf.TrainConfig(
        subseq_len=L, epochs=3, lr_initial=0.5, lr_after=0.1, lr_switch_epoch=2,
        dropout_rate=0.2, batch_size=2, seed=9, init_bound=0.3, hidden_dim=H,
        peephole=peephole, clip_norm=0.05,
    )
    shapes = rf.RfaModel(D, H, N, peephole).param_shapes()
    params, want_history = ref.train(seqs, cfg, shapes)
    unclipped, _ = ref.train(seqs, replace(cfg, clip_norm=None), shapes)
    # the clip fires: the clipped run ends far from the unclipped one
    assert not np.allclose(params["W_c"], unclipped["W_c"], rtol=1e-3, atol=0)
    model, history = rf.train(seqs, cfg)
    np.testing.assert_allclose(history, want_history, rtol=1e-9, atol=0)
    for name in PARAM_ORDER:
        np.testing.assert_allclose(model.params[name], params[name], rtol=1e-9, atol=0,
                                   err_msg=name)


def test_train_allocates_no_second_w():
    import tracemalloc

    data = np.random.default_rng(4)
    D_big, H_small = 40_000, 8
    seqs = [rf.LabeledSequence(k, data.standard_normal((3, D_big)), f"s{k}") for k in range(2)]
    cfg = rf.TrainConfig(subseq_len=2, epochs=2, lr_switch_epoch=2, dropout_rate=0.5,
                         batch_size=16, seed=1, hidden_dim=H_small, clip_norm=1.0)
    w_bytes = 4 * H_small * D_big * 8
    tracemalloc.start()
    try:
        model, _ = rf.train(seqs, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.params.W.nbytes == w_bytes
    # W itself, the (B, L, D) batch and one step tile; a dense W gradient
    # would take the peak past 2 * w_bytes
    assert peak < 1.5 * w_bytes, peak / w_bytes


def test_train_holds_one_batch():
    import tracemalloc

    data = np.random.default_rng(6)
    D_big, H_small, B, L_big = 50_000, 2, 4, 5
    seqs = [rf.LabeledSequence(k % 3, data.standard_normal((L_big + 2, D_big)), f"s{k}")
            for k in range(12)]
    cfg = rf.TrainConfig(subseq_len=L_big, epochs=2, lr_switch_epoch=2, batch_size=B,
                         seed=1, hidden_dim=H_small)
    w_bytes = 4 * H_small * D_big * 8
    batch_bytes = B * L_big * D_big * 8
    tracemalloc.start()
    try:
        rf.train(seqs, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # W and the batch being trained on; keeping the previous batch alive
    # while the next is filled would take the peak to W + 2 batches
    assert peak < w_bytes + 1.5 * batch_bytes, (peak - w_bytes) / batch_bytes
