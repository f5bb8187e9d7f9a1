import math
import struct
import tracemalloc

import numpy as np
import pytest

import rfanet as rf
from rfanet.errors import ConfigurationError, DataError, FormatError
from rfanet.rnn import PARAM_ORDER, Params, _sigmoid, _softmax


def zero_model(D=3, H=2, N=2, peephole="full"):
    model = rf.init_model(D, H, N, seed=0, peephole=peephole)
    for name in model.params:
        model.params[name][...] = 0.0
    return model


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_deterministic():
    a = rf.init_model(4, 3, 2, seed=42)
    b = rf.init_model(4, 3, 2, seed=42)
    for name in PARAM_ORDER:
        assert np.array_equal(a.params[name], b.params[name])


def test_init_within_bounds():
    model = rf.init_model(10, 8, 5, seed=7)
    for p in model.params.values():
        assert np.all(np.abs(p) <= 0.01)


def test_init_seeds_differ():
    a = rf.init_model(4, 3, 2, seed=1)
    b = rf.init_model(4, 3, 2, seed=2)
    assert any(not np.array_equal(a.params[n], b.params[n]) for n in PARAM_ORDER)


def test_init_shapes():
    model = rf.init_model(5, 4, 3, seed=0)
    assert model.params["W_i"].shape == (4, 5)
    assert model.params["V_o"].shape == (4, 4)
    assert model.params["W_y"].shape == (3, 4)
    diag = rf.init_model(5, 4, 3, seed=0, peephole="diagonal")
    assert diag.params["V_i"].shape == (4,)
    assert "V_c" not in model.params


# ---------------------------------------------------------------------------
# lstm_step
# ---------------------------------------------------------------------------

def _zero_state(B, H):
    return rf.LstmState(np.zeros((B, H)), np.zeros((B, H)))


def test_step_zero_parameters():
    model = zero_model(D=3, H=2)
    ax = rf.project(model, np.array([[1.0, -2.0, 3.0]]))
    new, gates = rf.lstm_step(model, ax, _zero_state(1, 2))
    assert gates["i"][0] == pytest.approx([0.5, 0.5])
    assert gates["f"][0] == pytest.approx([0.5, 0.5])
    assert gates["o"][0] == pytest.approx([0.5, 0.5])
    assert np.all(new.c == 0.0) and np.all(new.h == 0.0)


def test_step_scalar_oracle():
    # H=1, only b_c=10 and b_o=0 set: c = 0.5*tanh(10), h = 0.5*tanh(c)
    model = zero_model(D=1, H=1)
    model.params["b_c"][0] = 10.0
    new, _ = rf.lstm_step(model, rf.project(model, np.zeros((1, 1))), _zero_state(1, 1))
    c_expect = 0.5 * math.tanh(10.0)
    assert new.c[0, 0] == pytest.approx(c_expect, abs=1e-12)
    assert new.h[0, 0] == pytest.approx(0.5 * math.tanh(c_expect), abs=1e-12)
    assert new.h[0, 0] == pytest.approx(0.23105, abs=1e-5)


def test_step_memory_carry():
    # f-gate saturated to 1 and i-gate to 0: the cell is carried unchanged,
    # in every row of a batch
    model = zero_model(D=2, H=3)
    model.params["b_f"][...] = 50.0
    model.params["b_i"][...] = -50.0
    c0 = np.array([[0.3, -0.7, 1.1], [-0.2, 0.4, 0.9]])
    state = rf.LstmState(np.zeros((2, 3)), c0.copy())
    ax = rf.project(model, np.array([[0.5, -0.5], [1.5, 2.0]]))
    for _ in range(4):
        state, _ = rf.lstm_step(model, ax, state)
    assert state.c == pytest.approx(c0, abs=1e-9)


def test_step_dimension_mismatch():
    model = zero_model(D=3, H=2)
    with pytest.raises(DataError):
        rf.project(model, np.zeros((1, 4)))
    with pytest.raises(DataError):
        rf.lstm_step(model, np.zeros((1, 4)), _zero_state(1, 2))
    with pytest.raises(DataError):
        rf.lstm_step(model, np.zeros((2, 8)), _zero_state(1, 2))


def test_gate_activations_open_interval(rng):
    model = rf.init_model(4, 3, 2, seed=5, init_bound=0.5)
    xs = rng.standard_normal((1, 6, 4))
    trace, _ = rf.forward(model, xs, np.array([0]))
    for arr in (trace.i, trace.f, trace.o):
        assert np.all(arr > 0.0) and np.all(arr < 1.0)
    assert np.all(np.abs(trace.h) < 1.0)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_uniform():
    assert _softmax(np.zeros(2)) == pytest.approx([0.5, 0.5])


def test_softmax_closed_form():
    y = _softmax(np.array([math.log(2.0), 0.0]))
    assert y == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_softmax_no_overflow():
    y = _softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(y))
    assert y[0] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_zero_model_uniform_loss(rng):
    model = zero_model(D=3, H=2, N=4)
    xs = rng.standard_normal((1, 5, 3))
    trace, loss = rf.forward(model, xs, np.array([2]))
    assert loss[0] == pytest.approx(math.log(4), abs=1e-12)
    assert trace.losses[0] == pytest.approx(np.full(5, math.log(4)), abs=1e-12)


def test_forward_deterministic_without_dropout(rng):
    model = rf.init_model(3, 2, 2, seed=9, init_bound=0.2)
    xs = rng.standard_normal((1, 4, 3))
    t1, l1 = rf.forward(model, xs, np.array([1]))
    t2, l2 = rf.forward(model, xs, np.array([1]))
    assert l1[0] == l2[0]
    assert np.array_equal(t1.h, t2.h) and np.array_equal(t1.y, t2.y)


def _scalar_forward_oracle(p, xs, label):
    """Independent scalar evaluation for H=1, D=1, N=2, no peephole terms in
    play beyond the scalars supplied; returns per-timestep losses."""
    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    h = c = 0.0
    losses = []
    for x in xs:
        i = sig(p["W_i"] * x + p["U_i"] * h + p["V_i"] * c + p["b_i"])
        f = sig(p["W_f"] * x + p["U_f"] * h + p["V_f"] * c + p["b_f"])
        g = math.tanh(p["W_c"] * x + p["U_c"] * h + p["b_c"])
        c = f * c + i * g
        o = sig(p["W_o"] * x + p["U_o"] * h + p["V_o"] * c + p["b_o"])
        h = o * math.tanh(c)
        z0 = p["W_y0"] * h + p["b_y0"]
        z1 = p["W_y1"] * h + p["b_y1"]
        m = max(z0, z1)
        e0, e1 = math.exp(z0 - m), math.exp(z1 - m)
        y = (e0, e1)[label] / (e0 + e1)
        losses.append(-math.log(y))
    return losses


def test_forward_scalar_pen_and_paper():
    scalars = {
        "W_i": 0.3, "U_i": -0.2, "V_i": 0.1, "b_i": 0.05,
        "W_f": -0.4, "U_f": 0.25, "V_f": -0.15, "b_f": 0.6,
        "W_c": 0.7, "U_c": -0.3, "b_c": -0.1,
        "W_o": 0.2, "U_o": 0.1, "V_o": 0.5, "b_o": -0.2,
        "W_y0": 1.5, "W_y1": -0.8, "b_y0": 0.1, "b_y1": -0.3,
    }
    model = zero_model(D=1, H=1, N=2)
    for gate in "ifo":
        model.params[f"W_{gate}"][0, 0] = scalars[f"W_{gate}"]
        model.params[f"U_{gate}"][0, 0] = scalars[f"U_{gate}"]
        model.params[f"V_{gate}"][0, 0] = scalars[f"V_{gate}"]
        model.params[f"b_{gate}"][0] = scalars[f"b_{gate}"]
    model.params["W_c"][0, 0] = scalars["W_c"]
    model.params["U_c"][0, 0] = scalars["U_c"]
    model.params["b_c"][0] = scalars["b_c"]
    model.params["W_y"][:, 0] = (scalars["W_y0"], scalars["W_y1"])
    model.params["b_y"][:] = (scalars["b_y0"], scalars["b_y1"])

    xs = [0.9, -1.3]
    expected = _scalar_forward_oracle(scalars, xs, 1)
    trace, loss = rf.forward(model, np.array(xs)[None, :, None], np.array([1]))
    assert trace.losses[0] == pytest.approx(expected, abs=1e-12)
    assert loss[0] == pytest.approx(sum(expected) / 2, abs=1e-12)


def test_forward_label_out_of_range(rng):
    model = zero_model()
    with pytest.raises(DataError):
        rf.forward(model, rng.standard_normal((1, 3, 3)), np.array([5]))


def test_forward_dropout_requires_rng(rng):
    model = zero_model()
    with pytest.raises(ConfigurationError):
        rf.forward(model, rng.standard_normal((1, 3, 3)), np.array([0]), dropout_rate=0.5)


def test_forward_takes_batches_only(rng):
    model = zero_model()
    with pytest.raises(DataError, match=r"expected \(B, L, 3\)"):
        rf.forward(model, rng.standard_normal((3, 3)), np.array([0]))
    with pytest.raises(DataError, match="expected 1 integer labels"):
        rf.forward(model, rng.standard_normal((1, 3, 3)), 0)


def test_forward_probabilities_sum_to_one(rng):
    model = rf.init_model(3, 4, 5, seed=11, init_bound=0.4)
    trace, _ = rf.forward(model, rng.standard_normal((1, 6, 3)), np.array([3]))
    assert trace.y[0].sum(axis=1) == pytest.approx(np.ones(6), abs=1e-9)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("peephole", ["full", "diagonal"], ids=lambda p: f"per_timestep-{p}")
def test_backward_matches_finite_differences(peephole):
    report = rf.grad_check(6, 4, 3, 5, seed=17, peephole=peephole)
    assert report.passed, report.per_tensor


def test_backward_with_dropout_matches_fd():
    # fixed mask: rerun forward with an identical generator state per probe
    model = rf.init_model(4, 3, 2, seed=3, init_bound=0.3)
    xs = np.random.default_rng(5).standard_normal((1, 4, 4))
    labels = np.array([1])

    def run():
        return rf.forward(model, xs, labels, dropout_rate=0.5, rng=np.random.default_rng(99))

    trace, _ = run()
    grads = rf.backward(model, trace)
    dA, X = grads.W_factors
    grads = {**grads, "W_c": dA[:, 6:9].T @ X}  # the c gate's rows of dA^T X, H = 3
    eps = 1e-6
    worst = 0.0
    for name in ("W_c", "V_o", "W_y", "b_f"):
        flat = model.params[name].ravel()
        gflat = grads[name].ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            lp = run()[1][0]
            flat[k] = orig - eps
            lm = run()[1][0]
            flat[k] = orig
            num = (lp - lm) / (2 * eps)
            worst = max(worst, abs(gflat[k] - num) / max(abs(gflat[k]), abs(num), 1e-8))
    assert worst < 1e-4


def test_backward_softmax_bias_rows_sum_zero(rng):
    model = zero_model(D=3, H=2, N=2)
    trace, _ = rf.forward(model, rng.standard_normal((1, 4, 3)), np.array([0]))
    grads = rf.backward(model, trace)
    assert grads["b_y"].sum() == pytest.approx(0.0, abs=1e-12)


def test_backward_deterministic(rng):
    model = rf.init_model(3, 2, 2, seed=21, init_bound=0.2)
    xs = rng.standard_normal((1, 4, 3))
    trace, _ = rf.forward(model, xs, np.array([1]))
    g1 = rf.backward(model, trace)
    g2 = rf.backward(model, trace)
    for name in g1:
        assert np.array_equal(g1[name], g2[name])
    for f1, f2 in zip(g1.W_factors, g2.W_factors):
        assert np.array_equal(f1, f2)


# ---------------------------------------------------------------------------
# sgd
# ---------------------------------------------------------------------------

def _gradients(model, value):
    """A gradient set laid out as ``backward`` returns it, every entry at
    ``value``: dense tensors, and the W gates' gradient as factors (dA, X)."""
    shapes = model.param_shapes()
    grads = Params({n: s for n, s in shapes.items() if n[:2] != "W_" or n == "W_y"})
    for name in grads:
        grads[name] = value
    grads.W_factors = (np.full((1, 4 * model.hidden_dim), value), np.ones((1, model.input_dim)))
    return grads


def test_sgd_zero_lr():
    model = rf.init_model(3, 2, 2, seed=1)
    before = {k: v.copy() for k, v in model.params.items()}
    rf.sgd_update(model, _gradients(model, 0.0), 0.0)
    for name in before:
        assert np.array_equal(model.params[name], before[name])


def test_sgd_scalar_update():
    model = zero_model(D=1, H=1, N=2)
    model.params["b_c"][0] = 1.0
    grads = _gradients(model, 0.0)
    grads["b_c"][0] = 2.0
    rf.sgd_update(model, grads, 0.1)
    assert model.params["b_c"][0] == pytest.approx(0.8)


def test_sgd_linearity():
    m1 = rf.init_model(3, 2, 2, seed=4)
    m2 = rf.init_model(3, 2, 2, seed=4)
    g = _gradients(m1, 0.25)
    rf.sgd_update(m1, g, 0.1)
    rf.sgd_update(m1, g, 0.2)
    rf.sgd_update(m2, _gradients(m2, 0.3 * 0.25), 1.0)
    for name in m1.params:
        assert m1.params[name] == pytest.approx(m2.params[name], abs=1e-15)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _separable_sequences(rng, T=20, D=8):
    center_a = 2.0 * np.array([1, 0, 1, 0, 1, 0, 1, 0], float)
    center_b = 2.0 * np.array([0, 1, 0, 1, 0, 1, 0, 1], float)
    mk = lambda c: c + 0.05 * rng.standard_normal((T, D))
    return [
        rf.LabeledSequence(0, mk(center_a), "a0"),
        rf.LabeledSequence(0, mk(center_a), "a1"),
        rf.LabeledSequence(1, mk(center_b), "b0"),
        rf.LabeledSequence(1, mk(center_b), "b1"),
    ]


def _small_train_config(**kw):
    base = dict(
        subseq_len=5, epochs=50, lr_initial=1.0, lr_after=0.1, lr_switch_epoch=40,
        dropout_rate=0.0, batch_size=4, seed=1, hidden_dim=6,
    )
    base.update(kw)
    return rf.TrainConfig(**base)


def test_train_separable_converges(rng):
    model, history = rf.train(_separable_sequences(rng), _small_train_config())
    assert history[-1] < 0.1 * math.log(2)
    assert len(history) == 50


def test_train_deterministic(rng):
    seqs = _separable_sequences(rng)
    cfg = _small_train_config(epochs=8, lr_switch_epoch=6, dropout_rate=0.3)
    m1, h1 = rf.train(seqs, cfg)
    m2, h2 = rf.train(seqs, cfg)
    assert h1 == h2
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])


def test_train_zero_epochs_returns_init(rng):
    seqs = _separable_sequences(rng)
    cfg = _small_train_config(epochs=0, lr_switch_epoch=0)
    model, history = rf.train(seqs, cfg)
    assert history == []
    expected = rf.init_model(
        8, cfg.hidden_dim, 2, np.random.default_rng(cfg.seed).integers(2**63),
        init_bound=cfg.init_bound,
    )
    for name in model.params:
        assert np.array_equal(model.params[name], expected.params[name])


def test_train_rejects_short_sequence(rng):
    seqs = _separable_sequences(rng)
    seqs.append(rf.LabeledSequence(1, rng.standard_normal((3, 8)), "too-short"))
    with pytest.raises(DataError, match="too-short"):
        rf.train(seqs, _small_train_config())


def test_train_rejects_nonfinite_features(rng):
    seqs = _separable_sequences(rng)
    seqs[2].features[3, 1] = np.nan
    with pytest.raises(DataError, match="'b0' has non-finite features"):
        rf.train(seqs, _small_train_config())


def test_train_stops_when_a_batch_goes_nonfinite(rng, monkeypatch):
    # finite features do not overflow the saturating gates, so a NaN is put
    # into the head bias of the freshly initialised model instead
    import rfanet.rnn

    made = []

    def init_with_nan(*args, **kwargs):
        model = rf.init_model(*args, **kwargs)
        model.params["b_y"][0] = np.nan
        made.append((model, model.params.W.copy()))
        return model

    monkeypatch.setattr(rfanet.rnn, "init_model", init_with_nan)
    with pytest.raises(DataError, match="epoch 0: non-finite loss"):
        rf.train(_separable_sequences(rng), _small_train_config())
    # the batch raised before its step reached W
    (model, w_before), = made
    assert np.array_equal(model.params.W, w_before)


def test_labeled_sequence_coerces_list_features(rng):
    arrays = _separable_sequences(rng)
    lists = [rf.LabeledSequence(s.label, s.features.tolist(), s.name) for s in arrays]
    assert all(s.features.dtype == np.float64 and s.features.ndim == 2 for s in lists)
    cfg = _small_train_config(epochs=2, lr_switch_epoch=1)
    assert rf.train(lists, cfg)[1] == rf.train(arrays, cfg)[1]
    with pytest.raises(DataError, match="'ragged': features are not a numeric array"):
        rf.LabeledSequence(0, [[1.0, 2.0], [3.0]], "ragged")


def test_train_rejects_mismatched_feature_dims(rng):
    seqs = _separable_sequences(rng)
    seqs.append(rf.LabeledSequence(1, rng.standard_normal((20, 5)), "narrow"))
    with pytest.raises(DataError, match="narrow"):
        rf.train(seqs, _small_train_config())


def test_train_rejects_single_class(rng):
    seqs = [s for s in _separable_sequences(rng) if s.label == 0]
    with pytest.raises(DataError, match="2 classes"):
        rf.train(seqs, _small_train_config())


# ---------------------------------------------------------------------------
# model file
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("peephole", ["full", "diagonal"])
def test_model_roundtrip(tmp_path, peephole):
    model = rf.init_model(5, 4, 3, seed=8, peephole=peephole)
    path = tmp_path / "model.rfanet"
    rf.save_model(path, model)
    back = rf.load_model(path)
    assert (back.input_dim, back.hidden_dim, back.num_classes) == (5, 4, 3)
    assert back.peephole == peephole
    for name in model.params:
        assert np.array_equal(back.params[name], model.params[name])


def _model_header(D, H, N, mode=0):
    return b"RFANET01" + struct.pack("<IIIB", D, H, N, mode)


@pytest.mark.parametrize("edit, message, offset", [
    (lambda data: b"RFANET02" + data[8:], "bad model magic", 0),
    (lambda data: b"RFA", "bad model magic", 0),
    (lambda data: data[:12], "truncated model header", 12),
    (lambda data: _model_header(0, 4, 3) + data[21:], "model dimension D is 0", 8),
    (lambda data: _model_header(5, 0, 3) + data[21:], "model dimension H is 0", 12),
    (lambda data: _model_header(5, 4, 0) + data[21:], "model dimension N is 0", 16),
    (lambda data: _model_header(5, 4, 3, 2) + data[21:], "unknown peephole mode byte 2", 20),
    (lambda data: data[:21], "truncated tensor W_i", 21),
    (lambda data: data[:21 + 8 * 20 + 5], "truncated tensor U_i", 21 + 8 * 20 + 5),
    (lambda data: data[:-1], "truncated tensor b_y", "size-1"),
    (lambda data: data + bytes(3), "3 trailing bytes after the model tensors", "size"),
], ids=["magic", "short-magic", "short-header", "zero-D", "zero-H", "zero-N", "mode",
        "no-tensor", "mid-tensor", "last-byte", "trailing"])
def test_load_model_format_errors(tmp_path, edit, message, offset):
    path = tmp_path / "model.rfanet"
    rf.save_model(path, rf.init_model(5, 4, 3, seed=8))
    size = path.stat().st_size
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError, match=message) as exc:
        rf.load_model(path)
    assert exc.value.offset == {"size": size, "size-1": size - 1}.get(offset, offset)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_model_rejects_non_finite_tensor(tmp_path, value):
    # the file holds W_i (4 x 5) then U_i (4 x 4): entry 1 of U_i is the value
    path = tmp_path / "model.rfanet"
    rf.save_model(path, rf.init_model(5, 4, 3, seed=8))
    data = bytearray(path.read_bytes())
    offset = 21 + 8 * 20
    data[offset + 8 : offset + 16] = struct.pack("<d", value)
    path.write_bytes(data)
    with pytest.raises(FormatError, match="tensor U_i has non-finite entries") as exc:
        rf.load_model(path)
    assert exc.value.offset == offset


def test_load_model_checks_header_before_allocating(tmp_path):
    # the header claims W_i alone is 2^20 x 2^31 doubles (16 PiB), in a 21-byte
    # file; the model is 64 PiB and must not be allocated
    path = tmp_path / "huge.rfanet"
    path.write_bytes(_model_header(2**31, 2**20, 3))
    with pytest.raises(FormatError, match="truncated tensor W_i") as exc:
        rf.load_model(path)
    assert exc.value.offset == 21


def test_load_model_reads_into_the_model(tmp_path):
    # about 40 MB of tensors: W alone is 4 * 256 * 4800 doubles
    path = tmp_path / "model.rfanet"
    model = rf.RfaModel(4800, 256, 4, "diagonal")
    model.params.W[:] = np.arange(model.params.W.size).reshape(model.params.W.shape)
    model.params["b_y"] = [1.0, -2.0, 0.5, 3.0]
    rf.save_model(path, model)
    size = path.stat().st_size
    del model
    tracemalloc.start()
    try:
        back = rf.load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 40e6
    assert peak <= 1.25 * size
    assert back.params.W[-1, -1] == back.params.W.size - 1
    assert back.params["b_y"].tolist() == [1.0, -2.0, 0.5, 3.0]


def test_model_save_is_bit_stable(tmp_path):
    model = rf.init_model(4, 3, 2, seed=6)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    rf.save_model(p1, model)
    rf.save_model(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_model_refuses_nonfinite(tmp_path):
    model = rf.init_model(4, 3, 2, seed=6)
    model.params["U_f"][1, 2] = np.inf
    path = tmp_path / "m.rfanet"
    with pytest.raises(DataError, match="U_f"):
        rf.save_model(path, model)
    assert not path.exists()


def test_model_write_failing_midway_keeps_earlier_file(tmp_path, disk_full):
    path = tmp_path / "m.rfanet"
    path.write_bytes(b"earlier model")
    with pytest.raises(OSError):
        rf.save_model(path, rf.init_model(4, 3, 2, seed=6))
    assert path.read_bytes() == b"earlier model"
    assert list(tmp_path.iterdir()) == [path]


def _masked_sigmoid(z):
    """The boolean-mask formulation that the branch-free one replaced."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bytes_match_masked_formulation(rng):
    special = np.array([0.0, -0.0, 800.0, -800.0, np.nan, -np.nan, 1e-300, -1e-300])
    for z in (5.0 * rng.standard_normal((200, 16)), 5.0 * rng.standard_normal(1001), special):
        assert _sigmoid(z).tobytes() == _masked_sigmoid(z).tobytes()
