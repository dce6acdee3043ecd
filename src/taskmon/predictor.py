"""Sequence-to-sequence next-goal predictor.

Token embeddings (EMB_DIM 20) feed a bidirectional gated encoder (ENC_HIDDEN
16 per direction); a second unidirectional layer folds the encoder outputs
into a SUMMARY 10 vector that initializes the decoder (DEC_HIDDEN 32). At
every decoder step an additive two-layer network (ATT_HIDDEN 32) scores each
input atom segment, scores pass through a softmax, and the context is the
weight-averaged segment vector. A no-attention ablation replaces the context
with the mean of the encoder states. Every net has these sizes, and its
weights start uniform in +-autodiff.INIT_SCALE (0.08). Decoding stops at
MAX_LEN 24 tokens.
Training and the gradient check build the reverse-mode tape in autodiff; the
check compares against central differences of step GRAD_CHECK_EPS on weights
drawn with GRAD_CHECK_SEED, flooring the error's denominator at
GRAD_CHECK_FLOOR. Inference builds no tape: it runs the same arithmetic on
plain arrays, through the gated-cell and masked-softmax kernels the taped
steps share, and its results are bit-equal to the taped forward.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import zipfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .language import (
    EOA_ID,
    EOS_ID,
    ETS_ID,
    MalformedSequence,
    State,
    TaskSentence,
    TokenSeq,
    Vocabulary,
    atom_spans,
    decode_goal,
    encode_goal,
    encode_state,
    filter_by_types,
)

CHECKPOINT_VERSION = 1

EMB_DIM, ENC_HIDDEN, SUMMARY, DEC_HIDDEN, ATT_HIDDEN = 20, 16, 10, 32, 32
MAX_LEN = 24
GRAD_CHECK_EPS, GRAD_CHECK_FLOOR, GRAD_CHECK_SEED = 1e-5, 1e-6, 0


class IndexOutOfVocab(Exception):
    pass


class NoValidProposal(Exception):
    pass


class EmptyDataset(Exception):
    pass


class NonFiniteLoss(Exception):
    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


class CheckpointMismatch(Exception):
    pass


# --- parameters ---------------------------------------------------------------------


def group_shapes(V: int) -> dict[str, tuple[int, ...]]:
    """The shape of every trainable array of a net over a V-token vocabulary,
    keyed by group name in the canonical group order: the order `init` draws
    the groups in, and the optimizer, checkpoint and check order."""
    De, H, S, Hd, A = EMB_DIM, ENC_HIDDEN, SUMMARY, DEC_HIDDEN, ATT_HIDDEN
    return {
        "emb": (V, De),
        "ef_Wx": (De, 4 * H), "ef_Wh": (H, 4 * H), "ef_b": (4 * H,),
        "eb_Wx": (De, 4 * H), "eb_Wh": (H, 4 * H), "eb_b": (4 * H,),
        "sum_Wx": (2 * H, 4 * S), "sum_Wh": (S, 4 * S), "sum_b": (4 * S,),
        "h0_W": (S, Hd), "h0_b": (Hd,), "c0_W": (S, Hd), "c0_b": (Hd,),
        "att_W1": (2 * H, A), "att_W2": (De + 2 * H + Hd, A), "att_W": (A, 1),
        "dec_Wx": (De + 2 * H, 4 * Hd), "dec_Wh": (Hd, 4 * Hd), "dec_b": (4 * Hd,),
        "out_W": (Hd + 2 * H, V), "out_b": (V,),
    }


@dataclass
class GoalNetParams:
    """Every trainable array, plus the vocabulary binding. `group_shapes`
    owns the groups' names, shapes and order; the fields exist so that the
    forward passes can read `params.emb` and the rest by name."""

    vocab_hash: str
    use_attention: bool
    emb: ad.Tensor
    ef_Wx: ad.Tensor
    ef_Wh: ad.Tensor
    ef_b: ad.Tensor
    eb_Wx: ad.Tensor
    eb_Wh: ad.Tensor
    eb_b: ad.Tensor
    sum_Wx: ad.Tensor
    sum_Wh: ad.Tensor
    sum_b: ad.Tensor
    h0_W: ad.Tensor
    h0_b: ad.Tensor
    c0_W: ad.Tensor
    c0_b: ad.Tensor
    att_W1: ad.Tensor
    att_W2: ad.Tensor
    att_W: ad.Tensor
    dec_Wx: ad.Tensor
    dec_Wh: ad.Tensor
    dec_b: ad.Tensor
    out_W: ad.Tensor
    out_b: ad.Tensor

    GROUPS = tuple(group_shapes(0))

    @property
    def vocab_size(self) -> int:
        return self.emb.data.shape[0]

    def groups(self) -> dict[str, ad.Tensor]:
        return {n: getattr(self, n) for n in self.GROUPS}

    def validate(self):
        for name, shape in group_shapes(self.vocab_size).items():
            data = getattr(self, name).data
            if not np.all(np.isfinite(data)):
                raise ValueError(f"parameter group {name} holds non-finite values")
            if data.shape != shape:
                raise ValueError(f"parameter group {name}: shape {data.shape}, expected {shape}")

    @staticmethod
    def init(vocab: Vocabulary, seed: int = 0, use_attention: bool = True) -> "GoalNetParams":
        rng = np.random.default_rng(seed)
        return GoalNetParams(
            vocab_hash=vocab.hash(),
            use_attention=use_attention,
            **{name: ad.param(shape, rng) for name, shape in group_shapes(vocab.size).items()},
        )


# --- input segments -----------------------------------------------------------------


def segment_spans(ids) -> tuple[tuple[int, int], ...]:
    """The spans the attention attends over: the task words, then each atom's
    content tokens (separator tokens excluded)."""
    ids = list(ids)
    if ETS_ID not in ids:
        raise MalformedSequence(0, "missing <ets>")
    cut = ids.index(ETS_ID)
    return ((0, cut), *atom_spans(ids, cut + 1))


# --- batched graph construction -------------------------------------------------------


@dataclass
class _EncBatch:
    ids: np.ndarray  # (B, T) int64
    tok_mask: np.ndarray  # (B, T)
    M: np.ndarray  # (B, K, T) segment-mean mixers
    seg_mask: np.ndarray  # (B, K)


def _make_enc_batch(seqs: list[tuple[int, ...]]) -> _EncBatch:
    B = len(seqs)
    T = max(len(s) for s in seqs)
    ids = np.full((B, T), EOS_ID, dtype=np.int64)
    tok_mask = np.zeros((B, T))
    spans_all = [segment_spans(s) for s in seqs]
    K = max(len(sp) for sp in spans_all)
    M = np.zeros((B, K, T))
    seg_mask = np.zeros((B, K))
    for b, (s, spans) in enumerate(zip(seqs, spans_all)):
        ids[b, : len(s)] = s
        tok_mask[b, : len(s)] = 1.0
        for k, (lo, hi) in enumerate(spans):
            if hi > lo:
                M[b, k, lo:hi] = 1.0 / (hi - lo)
                seg_mask[b, k] = 1.0
    return _EncBatch(ids, tok_mask, M, seg_mask)


def _encode_graph(params: GoalNetParams, eb: _EncBatch) -> dict:
    B, T = eb.ids.shape
    H = ENC_HIDDEN
    K = eb.M.shape[1]
    xs = [ad.embedding(params.emb, eb.ids[:, t]) for t in range(T)]

    hc = ad.const(np.zeros((B, 2 * H)))
    fwd = []
    for t in range(T):
        hc = ad.lstm_step(xs[t], hc, params.ef_Wx, params.ef_Wh, params.ef_b, eb.tok_mask[:, t : t + 1])
        fwd.append(ad.narrow(hc, 1, 0, H))
    hc = ad.const(np.zeros((B, 2 * H)))
    bwd: list = [None] * T
    for t in reversed(range(T)):
        hc = ad.lstm_step(xs[t], hc, params.eb_Wx, params.eb_Wh, params.eb_b, eb.tok_mask[:, t : t + 1])
        bwd[t] = ad.narrow(hc, 1, 0, H)
    enc = [ad.concat([fwd[t], bwd[t]], axis=1) for t in range(T)]

    S_sz = SUMMARY
    hc2 = ad.const(np.zeros((B, 2 * S_sz)))
    for t in range(T):
        hc2 = ad.lstm_step(enc[t], hc2, params.sum_Wx, params.sum_Wh, params.sum_b, eb.tok_mask[:, t : t + 1])
    summary = ad.narrow(hc2, 1, 0, S_sz)

    E3 = ad.stack_time(enc)  # (B, T, 2H)
    S = ad.seg_mix(eb.M, E3)  # (B, K, 2H)
    task_seg = ad.reshape(ad.narrow(S, 1, 0, 1), (B, 2 * H))
    lengths = eb.tok_mask.sum(axis=1, keepdims=True)
    mean_w = eb.tok_mask / np.maximum(lengths, 1.0)
    ctx_mean = ad.row_mix(mean_w, E3)  # (B, 2H): the no-attention context
    U = None
    if params.use_attention:
        U = ad.matmul(ad.reshape(S, (B * K, 2 * H)), params.att_W1)
    return {
        "B": B,
        "K": K,
        "S": S,
        "U": U,
        "task_seg": task_seg,
        "seg_mask": eb.seg_mask,
        "ctx_mean": ctx_mean,
        "summary": summary,
    }


def _dec_init(params: GoalNetParams, summary: ad.Tensor) -> ad.Tensor:
    h0 = ad.tanh(ad.add(ad.matmul(summary, params.h0_W), params.h0_b))
    c0 = ad.tanh(ad.add(ad.matmul(summary, params.c0_W), params.c0_b))
    return ad.concat([h0, c0], axis=1)


def _dec_step(
    params: GoalNetParams,
    env: dict,
    prev_emb: ad.Tensor,
    prev_seg: ad.Tensor,
    hc: ad.Tensor,
    mask_col: np.ndarray,
) -> tuple[ad.Tensor, ad.Tensor, Optional[ad.Tensor]]:
    """One decoder step; returns (logits, new [h|c], attention weights)."""
    Hd = DEC_HIDDEN
    h_prev = ad.narrow(hc, 1, 0, Hd)
    if params.use_attention:
        tau_y = ad.concat([prev_seg, env["task_seg"], h_prev], axis=1)
        V = ad.matmul(tau_y, params.att_W2)
        pre = ad.tanh(ad.add(env["U"], ad.repeat_rows(V, env["K"])))
        scores = ad.reshape(ad.matmul(pre, params.att_W), (env["B"], env["K"]))
        p = ad.masked_softmax(scores, env["seg_mask"])
        ctx = ad.weighted_ctx(p, env["S"])
    else:
        p = None
        ctx = env["ctx_mean"]
    x = ad.concat([prev_emb, ctx], axis=1)
    hc_new = ad.lstm_step(x, hc, params.dec_Wx, params.dec_Wh, params.dec_b, mask_col)
    h = ad.narrow(hc_new, 1, 0, Hd)
    logits = ad.add(ad.matmul(ad.concat([h, ctx], axis=1), params.out_W), params.out_b)
    return logits, hc_new, p


def _prev_segment_weights(tgt: np.ndarray) -> np.ndarray:
    """P[b, t, :] weights target-token embeddings into the mean of the last
    atom completed strictly before decode step t (zeros before the first)."""
    B, L = tgt.shape
    P = np.zeros((B, L, L))
    for b in range(B):
        spans = atom_spans(tgt[b].tolist(), 0)
        for t in range(L):
            done = [sp for sp in spans if sp[1] < t and sp[1] > sp[0]]
            if done:
                lo, hi = done[-1]
                P[b, t, lo:hi] = 1.0 / (hi - lo)
    return P


def _teacher_forced_loss(
    params: GoalNetParams, inputs: list[tuple[int, ...]], targets: list[tuple[int, ...]]
) -> tuple[ad.Tensor, int]:
    """Summed cross-entropy over all target tokens in the batch (teacher
    forcing), and the token count for averaging."""
    env = _encode_graph(params, _make_enc_batch(inputs))
    B = env["B"]
    L = max(len(t) for t in targets)
    tgt = np.full((B, L), EOS_ID, dtype=np.int64)
    tgt_mask = np.zeros((B, L))
    for b, t in enumerate(targets):
        tgt[b, : len(t)] = t
        tgt_mask[b, : len(t)] = 1.0
    dec_in = np.full((B, L), ETS_ID, dtype=np.int64)
    dec_in[:, 1:] = tgt[:, :-1]
    P = _prev_segment_weights(tgt)
    Y3 = ad.embedding(params.emb, tgt)  # (B, L, De) for prev-segment means

    hc = _dec_init(params, env["summary"])
    losses = []
    n_total = 0
    for t in range(L):
        prev_emb = ad.embedding(params.emb, dec_in[:, t])
        prev_seg = ad.row_mix(P[:, t, :], Y3)
        logits, hc, _ = _dec_step(params, env, prev_emb, prev_seg, hc, tgt_mask[:, t : t + 1])
        loss_t, n_t = ad.ce_sum(logits, tgt[:, t], tgt_mask[:, t])
        losses.append(loss_t)
        n_total += n_t
    return ad.sum_tensors(losses), n_total


# --- decoding -------------------------------------------------------------------------


@dataclass
class DecodeResult:
    tokens: TokenSeq
    log_prob: float  # the beam's score: its step log-probabilities added left to right
    truncated: bool


@dataclass
class GoalProposal:
    goal: State
    log_prob: float
    rank: int
    tokens: TokenSeq


def _lstm_run_np(X: np.ndarray, Wx: ad.Tensor, Wh: ad.Tensor, b: ad.Tensor, reverse: bool = False):
    """One gated layer over the rows of X (T, D) from a zero state; returns the
    hidden states (T, H) in input order. The input projection is one stacked
    matmul of (1, D) rows, which gives the bits of the taped per-step
    `(1, D) @ Wx`; a flat (T, D) gemm rounds differently on OpenBLAS."""
    T, H = X.shape[0], Wh.data.shape[0]
    XW = X[:, None, :] @ Wx.data  # (T, 1, 4H)
    h, c = np.zeros((1, H)), np.zeros((1, H))
    out = np.empty((T, H))
    for t in reversed(range(T)) if reverse else range(T):
        h, c, _ = ad.lstm_cell_np(XW[t] + h @ Wh.data + b.data, c)
        out[t] = h[0]
    return out


def _encode_np(params: GoalNetParams, ids: tuple[int, ...], rows: int) -> dict:
    """`_encode_graph` and `_dec_init` for one input, untaped. Every position
    of a single input is valid, so the mask blend drops out. The per-input
    tensors come repeated to `rows` rows, so a decoder step over B <= rows
    beams slices them instead of tiling them again."""
    eb = _make_enc_batch([ids])
    T, K = len(ids), eb.M.shape[1]
    X = params.emb.data[eb.ids[0]]  # (T, De)
    fwd = _lstm_run_np(X, params.ef_Wx, params.ef_Wh, params.ef_b)
    bwd = _lstm_run_np(X, params.eb_Wx, params.eb_Wh, params.eb_b, reverse=True)
    E3 = np.concatenate([fwd, bwd], axis=1)[None]  # (1, T, 2H)
    summary = _lstm_run_np(E3[0], params.sum_Wx, params.sum_Wh, params.sum_b)[-1:]
    S = np.einsum("bkt,btd->bkd", eb.M, E3)  # (1, K, 2H)
    ctx_mean = np.einsum("bt,btd->bd", np.full((1, T), 1.0 / T), E3)
    h0 = np.tanh(summary @ params.h0_W.data + params.h0_b.data)
    c0 = np.tanh(summary @ params.c0_W.data + params.c0_b.data)
    U = S[0] @ params.att_W1.data if params.use_attention else None
    return {
        "K": K,
        "S": np.repeat(S, rows, axis=0),
        "U": None if U is None else np.tile(U, (rows, 1)),
        "task_seg": np.repeat(S[:, 0, :], rows, axis=0),
        "seg_mask": np.repeat(eb.seg_mask, rows, axis=0),
        "ctx_mean": np.repeat(ctx_mean, rows, axis=0),
        "hc0": np.concatenate([h0, c0], axis=1),
    }


def _dec_step_np(
    params: GoalNetParams, env: dict, prev_emb: np.ndarray, prev_seg: np.ndarray, hc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`_dec_step` for B = len(hc) rows, untaped, over an `_encode_np` env of
    at least B rows; returns (logits, new [h|c])."""
    B, Hd = hc.shape[0], DEC_HIDDEN
    h_prev = hc[:, :Hd]
    if params.use_attention:
        K = env["K"]
        tau_y = np.concatenate([prev_seg, env["task_seg"][:B], h_prev], axis=1)
        V = tau_y @ params.att_W2.data
        pre = np.tanh(env["U"][: B * K] + np.repeat(V, K, axis=0))
        p = ad.masked_softmax_np((pre @ params.att_W.data).reshape(B, K), env["seg_mask"][:B])
        ctx = np.einsum("bk,bkd->bd", p, env["S"][:B])
    else:
        ctx = env["ctx_mean"][:B]
    x = np.concatenate([prev_emb, ctx], axis=1)
    z = x @ params.dec_Wx.data + h_prev @ params.dec_Wh.data + params.dec_b.data
    h, c, _ = ad.lstm_cell_np(z, hc[:, Hd:])
    logits = np.concatenate([h, ctx], axis=1) @ params.out_W.data + params.out_b.data
    return logits, np.concatenate([h, c], axis=1)


@dataclass
class _Beam:
    tokens: list[int] = field(default_factory=list)
    total: float = 0.0  # running sum of the step log-probabilities, left to right
    prev_seg: np.ndarray = None
    group: list[int] = field(default_factory=list)


def beam_decode(ids: tuple[int, ...], params: GoalNetParams, width: int = 3) -> list[DecodeResult]:
    """Whole-sequence beam search over the encoded input `ids`; returns up to
    `width` results sorted by total log-probability, finished (EOS) or
    flagged truncated at MAX_LEN."""
    for pos, t in enumerate(ids):
        if not 0 <= t < params.vocab_size:
            raise IndexOutOfVocab(f"token id {t} at position {pos}")
    if width < 1:
        raise ValueError("beam width must be >= 1")
    env = _encode_np(params, ids, rows=width)
    emb = params.emb.data
    live = [_Beam(prev_seg=np.zeros(EMB_DIM))]
    hc = env["hc0"]  # row i is live[i]'s [h|c]
    done: list[DecodeResult] = []
    V = params.vocab_size
    for _ in range(MAX_LEN):
        if not live:
            break
        prev_emb = emb[[b.tokens[-1] if b.tokens else ETS_ID for b in live]]
        prev_seg = np.array([b.prev_seg for b in live])
        logits, hc_new = _dec_step_np(params, env, prev_emb, prev_seg, hc)
        logp = ad.log_softmax_np(logits)  # (B, V)

        # each beam's best width + 1 tokens (ties to the lower id), then all
        # of them ranked by (-score, beam, token); beam * V + token orders
        # the last two in one key
        top = np.argsort(-logp, axis=1, kind="stable")[:, : width + 1]
        beam = np.arange(len(live))[:, None]
        step = logp[beam, top]
        score = np.array([b.total for b in live])[:, None] + step
        key = (beam * V + top).ravel()
        picked = np.lexsort((key, -score.ravel()))[:width]

        # top `width` extensions overall; EOS extensions retire to done
        next_live: list[_Beam] = []
        rows: list[int] = []
        for bt, total in zip(key[picked].tolist(), score.ravel()[picked].tolist()):
            i, tok = divmod(bt, V)
            src = live[i]
            nb = _Beam(
                tokens=src.tokens + [tok],
                total=total,
                prev_seg=src.prev_seg,
                group=list(src.group),
            )
            if tok == EOS_ID:
                done.append(DecodeResult(TokenSeq(tuple(nb.tokens)), total, truncated=False))
                continue
            if tok == EOA_ID:
                if nb.group:
                    nb.prev_seg = emb[nb.group].mean(axis=0)
                    nb.group = []
            elif tok != ETS_ID:
                nb.group.append(tok)
            next_live.append(nb)
            rows.append(i)
        live, hc = next_live, hc_new[rows]
        if len(done) >= width:
            break
    for b in live:
        done.append(DecodeResult(TokenSeq(tuple(b.tokens)), b.total, truncated=True))
    done.sort(key=lambda r: (-r.log_prob, r.tokens.ids))
    return done[:width]


def infer_topk(
    task: TaskSentence, s: State, params: GoalNetParams, vocab: Vocabulary, k: int = 3
) -> list[GoalProposal]:
    """Top-k distinct well-formed goal states proposed for `task` in `s`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    width = max(2 * k, 6)
    results = beam_decode(encode_state(task, s, vocab).ids, params, width)
    proposals: list[GoalProposal] = []
    seen: set[frozenset] = set()
    for r in results:
        if r.truncated:
            continue
        try:
            goal = decode_goal(r.tokens, vocab)
        except MalformedSequence:
            continue
        if filter_by_types(goal.atoms, vocab) != set(goal.atoms):
            continue
        if goal.atoms in seen:
            continue
        seen.add(goal.atoms)
        proposals.append(GoalProposal(goal, r.log_prob, rank=len(proposals) + 1, tokens=r.tokens))
        if len(proposals) == k:
            break
    if not proposals:
        raise NoValidProposal("no beam entry decoded to a well-formed goal")
    return proposals


# --- training -------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingPair:
    """(task, state) -> next-goal example. The id tuples are the exact token
    forms used for learning; dataset growth may permute atom order there, so
    they are not always the canonical encodings of the symbolic fields."""

    task: TaskSentence
    state: State
    target: State
    input_ids: tuple[int, ...]
    target_ids: tuple[int, ...]

    @staticmethod
    def of(task: TaskSentence, state: State, target: State, vocab: Vocabulary) -> "TrainingPair":
        return TrainingPair(
            task,
            state,
            target,
            encode_state(task, state, vocab).ids,
            encode_goal(target, vocab).ids,
        )


DEFAULT_HYPER = {"batch": 5, "epochs": 100, "lr": 0.02}


def _checked_hyper(hyper: Optional[dict]) -> dict:
    """DEFAULT_HYPER updated by `hyper`. A ValueError names a key that is not
    in DEFAULT_HYPER, a batch or epoch count below 1 or an lr that is not a
    positive finite number; a bool is none of them."""
    h = dict(DEFAULT_HYPER)
    for key, value in (hyper or {}).items():
        if key not in DEFAULT_HYPER:
            raise ValueError(f"unknown hyper-parameter {key!r}, expected one of {sorted(DEFAULT_HYPER)}")
        h[key] = value
    for key in ("batch", "epochs"):
        if not isinstance(h[key], numbers.Integral) or isinstance(h[key], bool) or h[key] < 1:
            raise ValueError(f"hyper-parameter {key!r} must be an integer >= 1, got {h[key]!r}")
    if not isinstance(h["lr"], numbers.Real) or isinstance(h["lr"], bool) or not 0 < h["lr"] < math.inf:
        raise ValueError(f"hyper-parameter 'lr' must be a positive finite number, got {h['lr']!r}")
    return h


def train(
    pairs: list[TrainingPair],
    vocab: Vocabulary,
    hyper: Optional[dict] = None,
    seed: int = 0,
    params: Optional[GoalNetParams] = None,
    use_attention: bool = True,
) -> tuple[GoalNetParams, list[float]]:
    """Teacher-forced training with adaptive-moment gradient descent and
    categorical cross-entropy. Returns (params, per-epoch mean token loss)."""
    if not pairs:
        raise EmptyDataset("no training pairs")
    h = _checked_hyper(hyper)
    if params is None:
        params = GoalNetParams.init(vocab, seed=seed, use_attention=use_attention)
    opt = ad.Adam(list(params.groups().values()), lr=h["lr"])
    rng = np.random.default_rng([seed, 0xD0])
    inputs = [p.input_ids for p in pairs]
    targets = [p.target_ids for p in pairs]
    n = len(pairs)
    bs = h["batch"]
    history: list[float] = []
    for epoch in range(h["epochs"]):
        order = rng.permutation(n)
        epoch_sum, epoch_tokens = 0.0, 0
        for bi, lo in enumerate(range(0, n, bs)):
            idx = order[lo : lo + bs]
            loss, n_tok = _teacher_forced_loss(
                params, [inputs[i] for i in idx], [targets[i] for i in idx]
            )
            if not np.isfinite(loss.data):
                raise NonFiniteLoss(epoch, bi)
            opt.zero_grad()
            ad.mul(loss, ad.const(1.0 / max(n_tok, 1))).backward()
            opt.step()
            epoch_sum += float(loss.data)
            epoch_tokens += n_tok
        history.append(epoch_sum / max(epoch_tokens, 1))
    return params, history


def grad_check(params: GoalNetParams, pair: TrainingPair, min_samples: int = 200) -> dict[str, float]:
    """Analytic gradients versus central finite differences on sampled weights
    from every parameter group; returns the max relative error per group. The
    denominator is floored at GRAD_CHECK_FLOOR: loss evaluation roundoff
    (~1e-11) on a near-zero gradient is measurement noise, not disagreement."""
    inputs, targets = [pair.input_ids], [pair.target_ids]
    eps = GRAD_CHECK_EPS

    def loss_mean() -> float:
        loss, n = _teacher_forced_loss(params, inputs, targets)  # its tape is dropped
        return float(loss.data) / max(n, 1)

    for t in params.groups().values():
        t.grad = None
    loss, n = _teacher_forced_loss(params, inputs, targets)
    ad.mul(loss, ad.const(1.0 / max(n, 1))).backward()

    rng = np.random.default_rng(GRAD_CHECK_SEED)
    groups = params.groups()
    per_group = max(3, -(-min_samples // len(groups)))  # ceil division
    errors: dict[str, float] = {}
    for name, t in groups.items():
        size = t.data.size
        picks = rng.choice(size, size=min(per_group, size), replace=False)
        flat = t.data.reshape(-1)
        gflat = (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)
        worst = 0.0
        for i in picks:
            keep = flat[i]
            flat[i] = keep + eps
            hi = loss_mean()
            flat[i] = keep - eps
            lo = loss_mean()
            flat[i] = keep
            num = (hi - lo) / (2.0 * eps)
            ana = gflat[i]
            err = abs(ana - num) / max(abs(ana) + abs(num), GRAD_CHECK_FLOOR)
            worst = max(worst, err)
        errors[name] = worst
    return errors


# --- checkpointing --------------------------------------------------------------------


def save_params(params: GoalNetParams, path: str) -> None:
    """Deterministic zip: fixed timestamps, sorted entries, versioned meta."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "vocab_hash": params.vocab_hash,
        "use_attention": params.use_attention,
        "groups": {n: list(t.data.shape) for n, t in params.groups().items()},
    }
    entries: dict[str, bytes] = {
        "meta.json": json.dumps(meta, sort_keys=True, indent=1).encode()
    }
    for name, t in params.groups().items():
        buf = io.BytesIO()
        np.lib.format.write_array(buf, t.data, version=(1, 0), allow_pickle=False)
        entries[f"{name}.npy"] = buf.getvalue()
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED, compresslevel=6) as z:
        for name in sorted(entries):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o600 << 16
            z.writestr(info, entries[name])


def load_params(path: str, vocab: Vocabulary) -> GoalNetParams:
    """Refuses checkpoints written against a different vocabulary, ones whose
    meta.json is not an object or lacks a field, ones whose stored parameter
    groups are not exactly GoalNetParams.GROUPS, and ones that cannot be read
    at all: not a zip, no meta.json, meta.json not JSON, an array that does
    not parse or fails `validate`. Every refusal is a CheckpointMismatch.
    Fields meta.json holds beyond these are ignored."""
    try:
        with zipfile.ZipFile(path) as z:
            meta = json.loads(z.read("meta.json"))
            if not isinstance(meta, dict):
                raise CheckpointMismatch(f"meta.json must be an object, got {type(meta).__name__}")
            if meta.get("version") != CHECKPOINT_VERSION:
                raise CheckpointMismatch(f"checkpoint version {meta.get('version')}")
            lacking = sorted({"vocab_hash", "use_attention", "groups"} - set(meta))
            if lacking:
                raise CheckpointMismatch(f"meta.json lacks {lacking}")
            if meta["vocab_hash"] != vocab.hash():
                raise CheckpointMismatch("checkpoint was written against a different vocabulary")
            if not isinstance(meta["groups"], dict):
                raise CheckpointMismatch(f"meta.json: groups must be an object, got {type(meta['groups']).__name__}")
            stored = {n[: -len(".npy")] for n in z.namelist() if n.endswith(".npy")}
            for what, names in (("meta.json", set(meta["groups"])), ("the archive", stored)):
                if names != set(GoalNetParams.GROUPS):
                    missing = sorted(set(GoalNetParams.GROUPS) - names)
                    extra = sorted(names - set(GoalNetParams.GROUPS))
                    raise CheckpointMismatch(f"groups in {what}: missing {missing}, unexpected {extra}")
            arrays = {}
            for name, shape in meta["groups"].items():
                arr = np.lib.format.read_array(io.BytesIO(z.read(f"{name}.npy")), allow_pickle=False)
                if list(arr.shape) != shape:
                    raise CheckpointMismatch(f"group {name}: stored shape {arr.shape} != {shape}")
                arrays[name] = ad.Tensor(arr, requires_grad=True)
        params = GoalNetParams(
            vocab_hash=meta["vocab_hash"],
            use_attention=bool(meta["use_attention"]),
            **arrays,
        )
        params.validate()
    except (zipfile.BadZipFile, KeyError, IndexError, ValueError) as e:
        raise CheckpointMismatch(f"unreadable checkpoint {path}: {e}") from e
    return params
