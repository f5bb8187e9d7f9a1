"""Per-instance, per-timestep LSTM loop kept as the reference for the batched
kernel in ``rfanet.rnn``: one subsequence at a time, one gate at a time,
weight gradients as outer products. Parameters are a plain dict of per-gate
tensors named as in ``rfanet.rnn.PARAM_ORDER``.
"""

import struct

import numpy as np

from rfanet.rnn import MODEL_MAGIC, PARAM_ORDER, _sigmoid, _softmax


def init_params(shapes, seed, init_bound):
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(-init_bound, init_bound, shapes[name]) for name in PARAM_ORDER}


def model_bytes(D, H, N, peephole, params):
    out = [MODEL_MAGIC, struct.pack("<IIIB", D, H, N, 0 if peephole == "full" else 1)]
    for name in PARAM_ORDER:
        out.append(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return b"".join(out)


def _peep(V, c):
    return V @ c if V.ndim == 2 else V * c


def _peep_t(V, d):
    return V.T @ d if V.ndim == 2 else V * d


def lstm_step(p, x, prev):
    h_prev, c_prev = prev
    i = _sigmoid(p["W_i"] @ x + p["U_i"] @ h_prev + _peep(p["V_i"], c_prev) + p["b_i"])
    f = _sigmoid(p["W_f"] @ x + p["U_f"] @ h_prev + _peep(p["V_f"], c_prev) + p["b_f"])
    g = np.tanh(p["W_c"] @ x + p["U_c"] @ h_prev + p["b_c"])
    c = f * c_prev + i * g
    o = _sigmoid(p["W_o"] @ x + p["U_o"] @ h_prev + _peep(p["V_o"], c) + p["b_o"])
    h = o * np.tanh(c)
    return (h, c), {"i": i, "f": f, "g": g, "o": o, "c": c, "h": h}


def hidden_states(p, xs):
    H = p["b_i"].size
    state = (np.zeros(H), np.zeros(H))
    hs = np.empty((xs.shape[0], H))
    for t in range(xs.shape[0]):
        state, _ = lstm_step(p, xs[t], state)
        hs[t] = state[0]
    return hs


def forward(p, xs, label, dropout_rate=0.0, rng=None):
    """Returns (record of (L, .) arrays, loss)."""
    L, H, N = xs.shape[0], p["b_i"].size, p["b_y"].size
    rec = {k: np.empty((L, H)) for k in ("i", "f", "g", "o", "c", "h", "mask", "hd")}
    rec["y"] = np.empty((L, N))
    rec["losses"] = np.empty(L)
    keep = 1.0 - dropout_rate
    state = (np.zeros(H), np.zeros(H))
    for t in range(L):
        state, gates = lstm_step(p, xs[t], state)
        mask = (rng.random(H) >= dropout_rate).astype(np.float64) if dropout_rate > 0 else np.ones(H)
        hd = gates["h"] * mask / keep
        y = _softmax(p["W_y"] @ hd + p["b_y"])
        for k in ("i", "f", "g", "o", "c", "h"):
            rec[k][t] = gates[k]
        rec["mask"][t] = mask
        rec["hd"][t] = hd
        rec["y"][t] = y
        rec["losses"][t] = -np.log(y[label])
    return rec, rec["losses"].mean()


def backward(p, xs, rec, label, dropout_rate, peephole):
    L, H = rec["h"].shape
    keep = 1.0 - dropout_rate
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    onehot = np.zeros(p["b_y"].size)
    onehot[label] = 1.0
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    for t in range(L - 1, -1, -1):
        wt = 1.0 / L
        c_prev = rec["c"][t - 1] if t > 0 else np.zeros(H)
        h_prev = rec["h"][t - 1] if t > 0 else np.zeros(H)
        i, f, g, o, c = (rec[k][t] for k in ("i", "f", "g", "o", "c"))
        tc = np.tanh(c)

        dz = (rec["y"][t] - onehot) * wt
        grads["W_y"] += np.outer(dz, rec["hd"][t])
        grads["b_y"] += dz
        dh = p["W_y"].T @ dz * rec["mask"][t] / keep + dh_next

        do = dh * tc
        da_o = do * o * (1.0 - o)
        dc = dh * o * (1.0 - tc * tc) + dc_next + _peep_t(p["V_o"], da_o)

        da_i = dc * g * i * (1.0 - i)
        da_f = dc * c_prev * f * (1.0 - f)
        da_g = dc * i * (1.0 - g * g)

        for gate, da in (("i", da_i), ("f", da_f), ("c", da_g), ("o", da_o)):
            grads[f"W_{gate}"] += np.outer(da, xs[t])
            grads[f"U_{gate}"] += np.outer(da, h_prev)
            grads[f"b_{gate}"] += da
        if peephole == "full":
            grads["V_i"] += np.outer(da_i, c_prev)
            grads["V_f"] += np.outer(da_f, c_prev)
            grads["V_o"] += np.outer(da_o, c)
        else:
            grads["V_i"] += da_i * c_prev
            grads["V_f"] += da_f * c_prev
            grads["V_o"] += da_o * c

        dh_next = (
            p["U_i"].T @ da_i + p["U_f"].T @ da_f + p["U_c"].T @ da_g + p["U_o"].T @ da_o
        )
        dc_next = dc * f + _peep_t(p["V_i"], da_i) + _peep_t(p["V_f"], da_f)
    return grads


def train(sequences, cfg, shapes):
    """The per-instance training loop; returns (params, history)."""
    L = cfg.subseq_len
    rng = np.random.default_rng(cfg.seed)
    p = init_params(shapes, rng.integers(2**63), cfg.init_bound)
    history = []
    for epoch in range(cfg.epochs):
        instances = []
        for s in sequences:
            start = int(rng.integers(0, s.features.shape[0] - L + 1))
            instances.append((s.features[start : start + L], s.label))
        order = rng.permutation(len(instances))
        lr = cfg.lr_initial if epoch < cfg.lr_switch_epoch else cfg.lr_after
        epoch_losses = []
        for b in range(0, len(order), cfg.batch_size):
            batch = order[b : b + cfg.batch_size]
            acc = {k: np.zeros_like(v) for k, v in p.items()}
            for idx in batch:
                xs, label = instances[idx]
                rec, loss = forward(p, xs, label, cfg.dropout_rate, rng)
                g = backward(p, xs, rec, label, cfg.dropout_rate, cfg.peephole)
                for name in acc:
                    acc[name] += g[name]
                epoch_losses.append(loss)
            inv = 1.0 / len(batch)
            for name in acc:
                acc[name] *= inv
            if cfg.clip_norm is not None:
                total = np.sqrt(sum(float(np.sum(g * g)) for g in acc.values()))
                if total > cfg.clip_norm:
                    scale = cfg.clip_norm / total
                    for name in acc:
                        acc[name] *= scale
            for name, g in acc.items():
                p[name] -= lr * g
        history.append(float(np.mean(epoch_losses)))
    return p, history
