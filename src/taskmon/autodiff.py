"""Minimal reverse-mode differentiation over numpy arrays.

A Tensor records its parents and a backward closure; backward() replays the
tape in reverse topological order. Everything is float64. The op set is
exactly what the goal predictor needs: a few dense primitives plus fused
steps (gated recurrent cell, masked softmax, cross-entropy) that keep the
tape short, since graph length dominates runtime in pure Python. A whole
gated layer over a sequence (`lstm_layer`) and the lookup of a (B, T) id grid
(`seq_embedding`) are one node each; both give the bits of the per-step
tape they replace, gradients included. The forwards of the fused steps and
of the layer are plain-array kernels that inference calls directly, without
building Tensors. An op on a tensor that requires grad
always records itself; a forward whose gradient is not wanted simply drops
its tape. `param` draws every trainable leaf uniformly in
[-INIT_SCALE, INIT_SCALE], and `Adam` uses the fixed moment constants
ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

INIT_SCALE = 0.08
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() starts from a scalar")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            for p in t._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for t in reversed(order):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)


def param(shape, rng: np.random.Generator) -> Tensor:
    """A trainable leaf of an int or tuple shape, drawn uniformly in
    [-INIT_SCALE, INIT_SCALE]."""
    return Tensor(rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape), requires_grad=True)


def const(data) -> Tensor:
    return Tensor(data)


def _acc(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    t.grad = g.copy() if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _node(data, parents, backward) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, parents=tuple(parents), backward=backward)


# --- dense primitives -----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def back(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def back(g):
        _acc(a, _unbroadcast(g * b.data, a.data.shape))
        _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data @ b.data

    def back(g):
        _acc(a, g @ b.data.T)
        _acc(b, a.data.T @ g)

    return _node(out_data, (a, b), back)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def back(g):
        _acc(x, g * (1.0 - y * y))

    return _node(y, (x,), back)


def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def back(g):
        offset = 0
        for p, s in zip(parts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + s)
            _acc(p, g[tuple(sl)])
            offset += s

    return _node(out_data, tuple(parts), back)


def narrow(x: Tensor, axis: int, start: int, size: int) -> Tensor:
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + size)
    sl = tuple(sl)
    out_data = x.data[sl]

    def back(g):
        full = np.zeros_like(x.data)
        full[sl] = g
        _acc(x, full)

    return _node(out_data, (x,), back)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out_data = x.data.reshape(shape)

    def back(g):
        _acc(x, g.reshape(x.data.shape))

    return _node(out_data, (x,), back)


def repeat_rows(x: Tensor, k: int) -> Tensor:
    """(B, D) -> (B*k, D), each row repeated k times consecutively."""
    out_data = np.repeat(x.data, k, axis=0)

    def back(g):
        _acc(x, g.reshape(x.data.shape[0], k, -1).sum(axis=1))

    return _node(out_data, (x,), back)


def sum_tensors(parts: list[Tensor]) -> Tensor:
    out_data = np.array(sum(float(p.data) for p in parts))

    def back(g):
        for p in parts:
            _acc(p, g.reshape(p.data.shape))

    return _node(out_data, tuple(parts), back)


# --- gathered / segmented ops ------------------------------------------------------


def embedding(W: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup; ids is an int array of any shape, output gains a trailing
    embedding axis. Backward scatter-adds into W."""
    ids = np.asarray(ids)
    out_data = W.data[ids]

    def back(g):
        if not W.requires_grad:
            return
        gw = np.zeros_like(W.data)
        np.add.at(gw, ids.reshape(-1), g.reshape(-1, W.data.shape[1]))
        _acc(W, gw)

    return _node(out_data, (W,), back)


def seq_embedding(W: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup over a (B, T) grid of ids -> (B, T, D), whose backward
    scatter-adds into W one step (column) at a time: each step's rows into a
    zero array, added to W's gradient in the step order T-2, T-3, ..., 0, then
    T-1. That is the order in which the per-step tape this node replaces (one
    lookup per step, feeding a forward and a reverse chain of `lstm_step`s)
    runs its lookups: its depth-first sort reaches step T-1 first, at the
    reverse chain's first step, then steps 0..T-2 along the forward chain,
    and the tape runs nodes in the reverse of that order. Summing in that
    order keeps W's gradient bit-equal to that tape's; one scatter over the
    whole grid, or steps in 0..T-1 order, rounds differently."""
    ids = np.asarray(ids)
    T = ids.shape[1]
    out_data = W.data[ids]

    def back(g):
        if not W.requires_grad:
            return
        for t in (*range(T - 2, -1, -1), T - 1):
            gw = np.zeros_like(W.data)
            np.add.at(gw, ids[:, t], g[:, t])
            _acc(W, gw)

    return _node(out_data, (W,), back)


def seg_mix(M: np.ndarray, X: Tensor) -> Tensor:
    """Constant per-example mixing matrix M (B, K, T) applied to X (B, T, D):
    rows of M average token vectors into segment vectors."""
    out_data = np.einsum("bkt,btd->bkd", M, X.data)

    def back(g):
        _acc(X, np.einsum("bkt,bkd->btd", M, g))

    return _node(out_data, (X,), back)


def row_mix(P: Tensor, X: Tensor) -> Tensor:
    """Weights P (B, T) over rows X (B, T, D) -> (B, D): a mean under
    constant weights, an attention expectation under taped ones. P gets a
    gradient only when it requires one."""
    out_data = np.einsum("bt,btd->bd", P.data, X.data)

    def back(g):
        if P.requires_grad:
            _acc(P, np.einsum("bd,btd->bt", g, X.data))
        _acc(X, P.data[:, :, None] * g[:, None, :])

    return _node(out_data, (P, X), back)


def masked_softmax(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over axis 1 restricted to mask==1 entries; masked entries get
    probability exactly 0. Every row must have at least one valid entry."""
    p = masked_softmax_np(scores.data, mask)

    def back(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        _acc(scores, p * (g - inner))

    return _node(p, (scores,), back)


# --- fused steps --------------------------------------------------------------------


def lstm_step(x: Tensor, hc: Tensor, Wx: Tensor, Wh: Tensor, b: Tensor, mask: np.ndarray) -> Tensor:
    """One gated-cell step. hc packs [h | c] as (B, 2H); mask (B, 1) freezes
    finished rows (their state passes through unchanged). Gate order i,f,g,o."""
    B, twoH = hc.data.shape
    H = twoH // 2
    h, c = hc.data[:, :H], hc.data[:, H:]
    m = np.asarray(mask, dtype=np.float64).reshape(B, 1)

    h_new, c_new, (i, f, g_, o, tc) = lstm_cell_np(x.data @ Wx.data + h @ Wh.data + b.data, c)
    out_data = np.concatenate([m * h_new + (1.0 - m) * h, m * c_new + (1.0 - m) * c], axis=1)

    def back(grad):
        gh_out, gc_out = grad[:, :H], grad[:, H:]
        gh_new = gh_out * m
        gc_new = gc_out * m + gh_new * o * (1.0 - tc * tc)
        go = gh_new * tc
        gi = gc_new * g_
        gf = gc_new * c
        gg = gc_new * i
        gz = np.concatenate(
            [gi * i * (1.0 - i), gf * f * (1.0 - f), gg * (1.0 - g_ * g_), go * o * (1.0 - o)],
            axis=1,
        )
        _acc(x, gz @ Wx.data.T)
        gh_prev = gz @ Wh.data.T + gh_out * (1.0 - m)
        gc_prev = gc_new * f + gc_out * (1.0 - m)
        _acc(hc, np.concatenate([gh_prev, gc_prev], axis=1))
        _acc(Wx, x.data.T @ gz)
        _acc(Wh, h.T @ gz)
        _acc(b, gz.sum(axis=0))

    return _node(out_data, (x, hc, Wx, Wh, b), back)


def lstm_layer(X: Tensor, Wx: Tensor, Wh: Tensor, b: Tensor, mask: np.ndarray, reverse: bool = False) -> Tensor:
    """One gated layer over the steps of X (B, T, D) as one node: the hidden
    states (B, T, H) in input order. It is bit for bit a chain of `lstm_step`s
    from a zero state over X[:, t] and mask[:, t:t+1], t ascending (descending
    when `reverse`), with each step's h taken out, in its forward and in every
    gradient: the backward replays `lstm_step`'s step by step in reverse run
    order, and adds each step's Wx, Wh and b gradients to theirs one at a time
    in that order, as the chain's tape does. What does not feed the
    recurrence is computed for all steps at once: the gate slopes
    (elementwise), and the x, Wx and Wh gradient products, as stacked matmuls
    whose every slice is the per-step dgemm."""
    m = np.asarray(mask, dtype=np.float64)
    steps = [None] * m.shape[1]
    out_data = lstm_layer_np(X.data, Wx.data, Wh.data, b.data, m, reverse, steps)

    def back(G):
        B, T, H = G.shape
        h, c, i, f, g, o, tc = (np.stack(a) for a in zip(*((h, c, *gates) for h, c, gates in steps)))
        # per step, gz's gate blocks [i | f | g | o] are the gradient into the
        # block's output (gc_new for i, f and g, gh_new for o) times `first`,
        # times `then`, times `slope`, as `lstm_step` multiplies them
        first = np.concatenate([g, c, i, tc], axis=2)
        then = np.concatenate([i, f, np.ones_like(g), o], axis=2)
        slope = np.concatenate([1.0 - i, 1.0 - f, 1.0 - g * g, 1.0 - o], axis=2)
        stc = 1.0 - tc * tc
        m_t = m.T[:, :, None]  # (T, B, 1)
        keep = 1.0 - m_t
        G_t, WhT = G.transpose(1, 0, 2), Wh.data.T
        gz_all = np.empty((T, B, 4 * H))
        gh, gc = np.zeros((B, H)), np.zeros((B, H))  # from the step run after
        back_order = range(T) if reverse else range(T - 1, -1, -1)
        for t in back_order:
            gh_out = G_t[t] + gh
            gh_new = gh_out * m_t[t]
            gc_new = gc * m_t[t] + gh_new * o[t] * stc[t]
            gz = gz_all[t]
            np.multiply(np.concatenate([gc_new, gc_new, gc_new, gh_new], axis=1), first[t], out=gz)
            gz *= then[t]
            gz *= slope[t]
            gc = gc_new * f[t] + gc * keep[t]
            gh = gz @ WhT + gh_out * keep[t]
        _acc(X, (gz_all @ Wx.data.T).transpose(1, 0, 2))
        x_t = np.ascontiguousarray(X.data.transpose(1, 0, 2))
        g_wx, g_wh, g_b = x_t.transpose(0, 2, 1) @ gz_all, h.transpose(0, 2, 1) @ gz_all, gz_all.sum(axis=1)
        for t in back_order:
            _acc(Wx, g_wx[t])
            _acc(Wh, g_wh[t])
            _acc(b, g_b[t])

    return _node(out_data, (X, Wx, Wh, b), back)


def ce_sum(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> tuple[Tensor, int]:
    """Summed categorical cross-entropy over the rows where mask==1; returns
    (scalar loss-sum tensor, number of counted rows)."""
    t = np.asarray(targets, dtype=np.int64)
    m = np.asarray(mask, dtype=bool)
    n = int(m.sum())
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(len(t))
    nll = lse - z[rows, t]
    out_data = np.array(float(nll[m].sum()))

    def back(g):
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, t] -= 1.0
        p[~m] = 0.0
        _acc(logits, float(g) * p)

    return _node(out_data, (logits,), back), n


# --- array kernels -------------------------------------------------------------------
# The forward formulas on plain arrays: the fused ops above call them, and so
# does inference, which builds no tape.


def masked_softmax_np(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Forward of `masked_softmax` on plain arrays."""
    m = np.asarray(mask, dtype=bool)
    if not m.any(axis=1).all():
        raise ValueError("softmax over a fully masked row")
    z = np.where(m, scores, -np.inf)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def lstm_cell_np(z: np.ndarray, c: np.ndarray):
    """Forward of the gated cell on plain arrays, from the pre-activations z
    (B, 4H), gate order i,f,g,o, and the cell state c (B, H). Returns
    (h_new, c_new, (i, f, g, o, tanh(c_new))); the gate values are what
    `lstm_step`'s backward reads."""
    H = c.shape[1]
    s = 1.0 / (1.0 + np.exp(-z))  # elementwise, so the g columns go unused
    i, f, o = s[:, :H], s[:, H : 2 * H], s[:, 3 * H :]
    g = np.tanh(z[:, 2 * H : 3 * H])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (i, f, g, o, tc)


def lstm_layer_np(
    X: np.ndarray, Wx: np.ndarray, Wh: np.ndarray, b: np.ndarray, mask=None, reverse: bool = False, steps=None
) -> np.ndarray:
    """Forward of `lstm_layer` on plain arrays: the hidden states (B, T, H).
    With no mask every step is valid and the state blend drops out. Given a
    list `steps` of T entries, it stores at steps[t] step t's (h, c, gates):
    its input state and the `lstm_cell_np` gate values, which the taped
    backward reads; decode passes none, as holding every step's arrays slows
    its loop. The input projection is one stacked matmul, (T, B, D) @ Wx,
    whose every slice is the per-step `x @ Wx` dgemm; a flat (T*B, D) gemm
    rounds differently on OpenBLAS."""
    B, T, _ = X.shape
    H = Wh.shape[0]
    xw = np.ascontiguousarray(X.transpose(1, 0, 2)) @ Wx  # (T, B, 4H)
    h, c = np.zeros((B, H)), np.zeros((B, H))
    out = np.empty((B, T, H))
    keep = None if mask is None else 1.0 - mask
    for t in reversed(range(T)) if reverse else range(T):
        h_new, c_new, gates = lstm_cell_np(xw[t] + h @ Wh + b, c)
        if mask is not None:
            mt, kt = mask[:, t : t + 1], keep[:, t : t + 1]
            h_new = mt * h_new + kt * h
            c_new = mt * c_new + kt * c
        if steps is not None:
            steps[t] = (h, c, gates)
        h, c = h_new, c_new
        out[:, t] = h
    return out


def log_softmax_np(logits: np.ndarray) -> np.ndarray:
    """Inference-side log distribution (no tape)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


# --- optimizer ------------------------------------------------------------------------


class Adam:
    """Adaptive-moment gradient descent with bias correction."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
