"""Finite-difference verification of every differentiation primitive, plus
tape mechanics (accumulation, reuse) and the optimizer."""

import numpy as np
import pytest

from conftest import stack_steps
from taskmon import autodiff as ad


def numeric_grad(f, leaf: ad.Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central differences of scalar-valued f() w.r.t. one leaf tensor."""
    g = np.zeros_like(leaf.data)
    flat = leaf.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = f()
        flat[i] = keep - eps
        lo = f()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * eps)
    return g


def check_grads(build, leaves: list[ad.Tensor], rtol=1e-5, atol=1e-7):
    """build() constructs the scalar loss tensor from the leaf tensors."""
    loss = build()
    for leaf in leaves:
        leaf.grad = None
    loss.backward()
    for leaf in leaves:
        num = numeric_grad(lambda: float(build().data), leaf)
        assert leaf.grad is not None, "no gradient reached a leaf"
        np.testing.assert_allclose(leaf.grad, num, rtol=rtol, atol=atol)


def scalarize(t: ad.Tensor) -> ad.Tensor:
    """Reduce any tensor to a scalar with a fixed weighting so the loss is
    sensitive to every element."""
    w = ad.const(np.cos(np.arange(t.data.size)).reshape(t.data.shape))
    flat = ad.reshape(ad.mul(t, w), (1, t.data.size))
    ones = ad.const(np.ones((t.data.size, 1)))
    return ad.reshape(ad.matmul(flat, ones), ())


RNG = np.random.default_rng(7)


def leaf(*shape) -> ad.Tensor:
    return ad.Tensor(RNG.normal(0, 0.8, size=shape), requires_grad=True)


# --- primitive ops -------------------------------------------------------------------


def test_add_with_broadcast():
    a, b = leaf(3, 4), leaf(1, 4)
    check_grads(lambda: scalarize(ad.add(a, b)), [a, b])


def test_mul_with_broadcast():
    a, b = leaf(2, 5), leaf(2, 1)
    check_grads(lambda: scalarize(ad.mul(a, b)), [a, b])


def test_matmul():
    a, b = leaf(3, 4), leaf(4, 2)
    check_grads(lambda: scalarize(ad.matmul(a, b)), [a, b])


def test_tanh():
    x = leaf(2, 6)
    check_grads(lambda: scalarize(ad.tanh(x)), [x])


def test_concat_and_narrow():
    a, b, c = leaf(2, 3), leaf(2, 2), leaf(2, 4)
    check_grads(lambda: scalarize(ad.concat([a, b, c], axis=1)), [a, b, c])
    x = leaf(3, 8)
    check_grads(lambda: scalarize(ad.narrow(x, 1, 2, 4)), [x])
    check_grads(lambda: scalarize(ad.narrow(x, 0, 1, 2)), [x])


def test_reshape_and_repeat_rows():
    x = leaf(2, 6)
    check_grads(lambda: scalarize(ad.reshape(x, (3, 4))), [x])
    y = leaf(3, 5)
    check_grads(lambda: scalarize(ad.repeat_rows(y, 4)), [y])


def test_sum_tensors():
    scalars = [leaf() for _ in range(3)]
    check_grads(lambda: ad.sum_tensors(scalars), scalars)


def test_embedding_scatter_accumulates_repeated_ids():
    W = leaf(6, 4)
    ids = np.array([[1, 3, 1], [5, 1, 0]])
    check_grads(lambda: scalarize(ad.embedding(W, ids)), [W])
    # three lookups of row 1 must triple its gradient relative to one lookup
    W.grad = None
    scalarize(ad.embedding(W, ids)).backward()
    g_multi = W.grad.copy()
    W.grad = None
    scalarize(ad.embedding(W, np.array([[1]]))).backward()
    assert np.any(g_multi[1] != 0.0)


def test_seq_embedding_grads_with_repeated_ids():
    W = leaf(6, 4)
    for ids in (np.array([[1, 3, 1], [5, 1, 0]]), np.array([[2], [2]]), np.array([[4, 4, 4, 0]])):
        check_grads(lambda: scalarize(ad.seq_embedding(W, ids)), [W])
        np.testing.assert_array_equal(ad.seq_embedding(W, ids).data, W.data[ids])


def test_seg_row_mix_and_weighted_ctx():
    X = leaf(2, 5, 3)
    M = RNG.normal(size=(2, 4, 5))
    check_grads(lambda: scalarize(ad.seg_mix(M, X)), [X])
    P = RNG.normal(size=(2, 5))
    check_grads(lambda: scalarize(ad.row_mix(P, X)), [X])
    p, S = leaf(2, 4), leaf(2, 4, 3)
    check_grads(lambda: scalarize(ad.weighted_ctx(p, S)), [p, S])


def test_masked_softmax_grad_and_semantics():
    scores = leaf(3, 5)
    mask = np.array(
        [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [0, 1, 0, 1, 0]], dtype=float
    )
    check_grads(lambda: scalarize(ad.masked_softmax(scores, mask)), [scores])
    p = ad.masked_softmax(scores, mask).data
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p[mask == 0] == 0.0)
    assert np.all(p[mask == 1] > 0.0)
    with pytest.raises(ValueError, match="fully masked"):
        ad.masked_softmax(leaf(2, 3), np.array([[1, 1, 1], [0, 0, 0]], dtype=float))


def test_masked_softmax_known_values():
    s = ad.Tensor(np.array([[2.0, 0.0]]), requires_grad=True)
    p = ad.masked_softmax(s, np.ones((1, 2)))
    e2 = np.exp(2.0)
    np.testing.assert_allclose(p.data, [[e2 / (1 + e2), 1 / (1 + e2)]], atol=1e-12)
    uniform = ad.masked_softmax(ad.const(np.zeros((1, 7))), np.ones((1, 7)))
    np.testing.assert_allclose(uniform.data, np.full((1, 7), 1.0 / 7.0), atol=1e-15)


def test_lstm_step_grads_all_inputs():
    B, D, H = 3, 4, 5
    x, hc = leaf(B, D), leaf(B, 2 * H)
    Wx, Wh, b = leaf(D, 4 * H), leaf(H, 4 * H), leaf(4 * H)
    mask = np.array([[1.0], [1.0], [0.0]])
    check_grads(
        lambda: scalarize(ad.lstm_step(x, hc, Wx, Wh, b, mask)),
        [x, hc, Wx, Wh, b],
        rtol=1e-4,
        atol=1e-7,
    )


def test_lstm_step_mask_freezes_state():
    B, D, H = 2, 3, 4
    x, hc = leaf(B, D), leaf(B, 2 * H)
    Wx, Wh, b = leaf(D, 4 * H), leaf(H, 4 * H), leaf(4 * H)
    out = ad.lstm_step(x, hc, Wx, Wh, b, np.array([[1.0], [0.0]]))
    assert not np.allclose(out.data[0], hc.data[0])
    np.testing.assert_array_equal(out.data[1], hc.data[1])


# Masks (B, T) the layer is checked on: ragged prefixes as the encoder pads
# them, one step (T = 1), and a row whose valid steps have gaps.
LAYER_MASKS = {
    "ragged": np.array([[1, 1, 1, 1, 1], [1, 1, 0, 0, 0], [1, 1, 1, 1, 0], [1, 0, 0, 0, 0]], dtype=float),
    "one-step": np.ones((3, 1)),
    "one-row-one-step": np.ones((1, 1)),
    "gaps": np.array([[1, 0, 1, 1, 0, 1], [1, 1, 1, 1, 1, 1]], dtype=float),
}


def _lstm_chain(X: np.ndarray, W: list[ad.Tensor], mask: np.ndarray, reverse: bool):
    """The per-step reference of `lstm_layer`: one leaf per step of X, a chain
    of `lstm_step`s from a zero state, each step's h narrowed out and the
    steps stacked in input order. Returns (step leaves, stacked states)."""
    B, T, _ = X.shape
    H = W[1].data.shape[0]
    xs = [ad.Tensor(X[:, t].copy(), requires_grad=True) for t in range(T)]
    hc = ad.const(np.zeros((B, 2 * H)))
    hs = [None] * T
    for t in reversed(range(T)) if reverse else range(T):
        hc = ad.lstm_step(xs[t], hc, *W, mask[:, t : t + 1])
        hs[t] = ad.narrow(hc, 1, 0, H)
    return xs, stack_steps(hs)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("D, H", [(20, 16), (32, 10), (3, 2)])
@pytest.mark.parametrize("mask", list(LAYER_MASKS.values()), ids=list(LAYER_MASKS))
def test_lstm_layer_is_bit_equal_to_a_chain_of_steps(mask, D, H, reverse):
    """Forward and every gradient of the layer node are the bits of the
    per-step chain's, for the encoder's two layer shapes and a small one."""
    rng = np.random.default_rng([D, H, mask.size, reverse])
    B, T = mask.shape
    X = rng.normal(size=(B, T, D))
    init = [rng.uniform(-0.5, 0.5, size=s) for s in ((D, 4 * H), (H, 4 * H), (4 * H,))]
    W_layer = [ad.Tensor(w.copy(), requires_grad=True) for w in init]
    W_chain = [ad.Tensor(w.copy(), requires_grad=True) for w in init]

    x = ad.Tensor(X.copy(), requires_grad=True)
    out = ad.lstm_layer(x, *W_layer, mask, reverse=reverse)
    scalarize(out).backward()
    xs, want = _lstm_chain(X, W_chain, mask, reverse)
    scalarize(want).backward()

    assert out.data.tobytes() == want.data.tobytes()
    for got_w, want_w in zip(W_layer, W_chain):
        assert got_w.grad.tobytes() == want_w.grad.tobytes()
    for t in range(T):
        assert np.ascontiguousarray(x.grad[:, t]).tobytes() == xs[t].grad.tobytes(), t


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("mask", [LAYER_MASKS["ragged"], LAYER_MASKS["one-step"]], ids=["ragged", "one-step"])
def test_lstm_layer_grads_all_inputs(mask, reverse):
    B, T = mask.shape
    D, H = 3, 2
    x = leaf(B, T, D)
    Wx, Wh, b = leaf(D, 4 * H), leaf(H, 4 * H), leaf(4 * H)
    check_grads(
        lambda: scalarize(ad.lstm_layer(x, Wx, Wh, b, mask, reverse=reverse)),
        [x, Wx, Wh, b],
        rtol=1e-4,
        atol=1e-7,
    )


def test_lstm_layer_mask_freezes_state_and_kernel_drops_a_full_mask():
    B, T, D, H = 2, 4, 3, 2
    x, Wx, Wh, b = leaf(B, T, D), leaf(D, 4 * H), leaf(H, 4 * H), leaf(4 * H)
    mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
    out = ad.lstm_layer(x, Wx, Wh, b, mask).data
    np.testing.assert_array_equal(out[1, 2], out[1, 1])
    np.testing.assert_array_equal(out[1, 3], out[1, 1])
    back = ad.lstm_layer(x, Wx, Wh, b, mask, reverse=True).data
    np.testing.assert_array_equal(back[1, 2:], np.zeros((2, H)))  # no state before them
    unmasked = ad.lstm_layer_np(x.data, Wx.data, Wh.data, b.data)
    assert unmasked.tobytes() == ad.lstm_layer(x, Wx, Wh, b, np.ones((B, T))).data.tobytes()


def test_lstm_cell_kernel_is_bit_equal_to_per_gate_formula():
    """The kernel takes one sigmoid over all pre-activations and slices the
    gates from it; that must give the bits of a sigmoid per gate slice, for
    contiguous single rows and strided multi-row slices alike."""
    rng = np.random.default_rng(3)
    for B in range(1, 7):
        for H in (10, 16, 32):
            z = rng.normal(0, 3, size=(B, 4 * H))
            c = rng.normal(size=(B, H))
            i = 1.0 / (1.0 + np.exp(-z[:, :H]))
            f = 1.0 / (1.0 + np.exp(-z[:, H : 2 * H]))
            g = np.tanh(z[:, 2 * H : 3 * H])
            o = 1.0 / (1.0 + np.exp(-z[:, 3 * H :]))
            c_new = f * c + i * g
            h_new, got_c, gates = ad.lstm_cell_np(z, c)
            assert np.array_equal(got_c, c_new) and np.array_equal(h_new, o * np.tanh(c_new))
            for got, want in zip(gates, (i, f, g, o, np.tanh(c_new))):
                assert np.array_equal(got, want), (B, H)


def test_ce_sum_value_and_grad():
    logits = leaf(4, 6)
    targets = np.array([2, 0, 5, 1])
    mask = np.array([1.0, 1.0, 0.0, 1.0])
    loss, n = ad.ce_sum(logits, targets, mask)
    assert n == 3
    # manual value
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = -(logp[0, 2] + logp[1, 0] + logp[3, 1])
    assert float(loss.data) == pytest.approx(want, abs=1e-12)
    check_grads(lambda: ad.ce_sum(logits, targets, mask)[0], [logits])


def test_log_softmax_np_normalizes():
    z = RNG.normal(size=(5, 9)) * 30.0  # extreme logits stay finite
    lp = ad.log_softmax_np(z)
    assert np.all(np.isfinite(lp))
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), np.ones(5), atol=1e-12)


# --- tape mechanics -----------------------------------------------------------------


def test_gradient_accumulates_on_reuse():
    x = leaf(2, 2)
    y = ad.add(x, x)  # dy/dx = 2
    scalarize(y).backward()
    x2 = leaf(2, 2)
    x2.data[:] = x.data
    scalarize(ad.add(x2, ad.const(np.zeros((2, 2))))).backward()
    np.testing.assert_allclose(x.grad, 2.0 * x2.grad)


def test_diamond_graph_grad():
    x = leaf(3, 3)
    a = ad.tanh(x)
    b = ad.mul(x, x)
    check_grads(lambda: scalarize(ad.add(ad.tanh(x), ad.mul(x, x))), [x])
    assert a is not b  # distinct nodes, shared leaf


def test_backward_requires_scalar():
    x = leaf(2, 2)
    with pytest.raises(ValueError, match="scalar"):
        ad.add(x, x).backward()


def test_const_and_param_constructors():
    rng = np.random.default_rng(0)
    p = ad.param((3, 4), rng=rng)
    assert p.requires_grad and p.data.shape == (3, 4)
    assert np.all(np.abs(p.data) <= ad.INIT_SCALE)
    c = ad.const([1.0, 2.0])
    assert not c.requires_grad
    s = ad.param(5, rng=rng)
    assert s.data.shape == (5,)


# --- optimizer ------------------------------------------------------------------------


def test_adam_drives_squared_error_down():
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.normal(size=(1, 6)), requires_grad=True)
    target = ad.const(np.linspace(-1, 1, 6).reshape(1, 6))
    ones = ad.const(np.ones((6, 1)))
    opt = ad.Adam([x], lr=0.05)

    def loss_value():
        diff = ad.add(x, ad.mul(target, ad.const(-1.0)))
        return ad.reshape(ad.matmul(ad.mul(diff, diff), ones), ())

    start = float(loss_value().data)
    for _ in range(500):
        opt.zero_grad()
        loss = loss_value()
        loss.backward()
        opt.step()
    end = float(loss_value().data)
    assert end < 1e-6 < start
    np.testing.assert_allclose(x.data, target.data, atol=1e-3)


def test_adam_is_deterministic():
    def run():
        x = ad.Tensor(np.ones((3,)), requires_grad=True)
        opt = ad.Adam([x], lr=0.01)
        history = []
        for _ in range(50):
            opt.zero_grad()
            sq = ad.mul(x, x)
            loss = ad.reshape(ad.matmul(ad.reshape(sq, (1, 3)), ad.const(np.ones((3, 1)))), ())
            loss.backward()
            opt.step()
            history.append(float(loss.data))
        return history, x.data.copy()

    h1, x1 = run()
    h2, x2 = run()
    assert h1 == h2
    np.testing.assert_array_equal(x1, x2)


def test_adam_skips_params_without_grad():
    x = ad.Tensor(np.ones((2,)), requires_grad=True)
    untouched = ad.Tensor(np.ones((2,)), requires_grad=True)
    opt = ad.Adam([x, untouched], lr=0.1)
    loss = ad.reshape(ad.matmul(ad.reshape(ad.mul(x, x), (1, 2)), ad.const(np.ones((2, 1)))), ())
    loss.backward()
    opt.step()
    np.testing.assert_array_equal(untouched.data, np.ones((2,)))
    assert not np.array_equal(x.data, np.ones((2,)))
