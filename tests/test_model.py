"""Next-goal predictor: goal grammar, embedding/segments, attention closed
forms, decoding, training, gradient checks, checkpoints, and dataset growth."""

import hashlib
import io
import json
import zipfile

import numpy as np
import pytest

from conftest import make_tiny_vocab
from domaingen import herbrand_universe
from taskmon import autodiff as ad
from taskmon.dataset import (
    InsufficientBase,
    _substitute,
    _substitution,
    base_pairs,
    grow_dataset,
)
from taskmon.language import (
    EOA_ID,
    EOS_ID,
    ETS_ID,
    MalformedSequence,
    State,
    StateTooLong,
    Term,
    TokenSeq,
    Vocabulary,
    decode_goal,
    encode_goal,
    encode_state,
    filter_by_types,
)
from taskmon.pddl import PlanEntry, PlanLibrary, TaskChain, parse_domain, parse_problem
from taskmon.predictor import (
    DEC_HIDDEN,
    EMB_DIM,
    MAX_LEN,
    CheckpointMismatch,
    EmptyDataset,
    GoalNetParams,
    IndexOutOfVocab,
    NonFiniteLoss,
    NoValidProposal,
    DecodeResult,
    TrainingPair,
    _dec_init,
    _dec_step,
    _dec_step_np,
    _encode_graph,
    _encode_np,
    _make_enc_batch,
    beam_decode,
    grad_check,
    infer_topk,
    load_params,
    save_params,
    segment_spans,
    train,
)

DOMAIN = """
(define (domain tiny)
  (:requirements :typing :equality)
  (:types item surface - world-ent
          gripper base - robot-ent
          world-ent robot-ent - entity)
  (:predicates (On ?o - item ?s - surface)
               (Hold ?g - gripper ?o - item)
               (Free ?g - gripper)
               (Found ?x - world-ent)
               (CloseTo ?r - robot-ent ?x - world-ent))
  (:action search
    :class ecological
    :parameters (?x - world-ent)
    :precondition (and)
    :effect (and (Found ?x)))
  (:action grasp
    :class world
    :parameters (?o - item ?s - surface)
    :precondition (and (On ?o ?s) (Free hand))
    :effect (and (Hold hand ?o) (not (On ?o ?s)) (not (Free hand)))))
"""

OBJECTS = "(:objects brush cup - item table shelf - surface hand - gripper rover - base)"

GOALS = {
    "g1": "(and (Found brush) (Found table))",
    "g2": "(and (Hold hand brush) (CloseTo rover table))",
    "g3": "(and (On brush shelf) (Free hand))",
    "c1": "(and (On cup table) (Found cup))",
    "c2": "(and (Hold hand cup))",
}


def _problem(name: str, goal: str) -> str:
    return f"(define (problem {name}) (:domain tiny) {OBJECTS} (:init (Free hand)) (:goal {goal}))"


def make_lib(vocab, chains):
    dom = parse_domain(DOMAIN)
    entries = [PlanEntry(n, dom, parse_problem(_problem(n, g), dom)) for n, g in GOALS.items()]
    return PlanLibrary(entries, vocab, chains)


@pytest.fixture(scope="module")
def tiny_lib(tiny_vocab):
    return make_lib(
        tiny_vocab,
        [TaskChain("t-fetch", ("g1", "g2", "g3"), 4.0), TaskChain("t-clear", ("c1", "c2"), 1.0)],
    )


@pytest.fixture(scope="module")
def fetch_pair(tiny_vocab) -> TrainingPair:
    task = tiny_vocab.tasks["t-fetch"]
    state = State.parse(["On(brush,table)", "Free(hand)", "Found(brush)"])
    target = State.parse(["Hold(hand,brush)"])
    return TrainingPair.of(task, state, target, tiny_vocab)


@pytest.fixture(scope="module")
def overfit(tiny_vocab, fetch_pair):
    params, history = train([fetch_pair], tiny_vocab, seed=3)
    return params, history


# --- goal grammar ---------------------------------------------------------------------


def test_goal_roundtrip(tiny_vocab):
    st = State.parse(["On(brush,shelf)", "Free(hand)", "Hold(hand,cup)"])
    seq = encode_goal(st, tiny_vocab)
    assert seq.ids[-1] == EOS_ID
    assert ETS_ID not in seq.ids
    assert decode_goal(seq, tiny_vocab) == st
    # canonical atom order: Free < Hold < On
    names = [tiny_vocab.id_to_token[i] for i in seq.ids]
    assert names[0] == "Free" and names[3] == "Hold" and names[7] == "On"


def test_goal_codec_rejections(tiny_vocab):
    v = tiny_vocab
    free = [v.token_to_id["Free"], v.token_to_id["hand"]]
    with pytest.raises(MalformedSequence, match="empty goal"):
        decode_goal(TokenSeq((EOS_ID,)), v)
    with pytest.raises(MalformedSequence, match="not closed"):
        decode_goal(TokenSeq((*free, EOS_ID)), v)
    with pytest.raises(MalformedSequence, match="missing <eos>"):
        decode_goal(TokenSeq((*free, EOA_ID)), v)
    with pytest.raises(MalformedSequence, match="after <eos>"):
        decode_goal(TokenSeq((*free, EOA_ID, EOS_ID, EOS_ID)), v)
    with pytest.raises(MalformedSequence, match="unexpected <ets>"):
        decode_goal(TokenSeq((ETS_ID, EOS_ID)), v)
    with pytest.raises(MalformedSequence, match="unknown token id"):
        decode_goal(TokenSeq((999, EOA_ID, EOS_ID)), v)
    with pytest.raises(StateTooLong):
        encode_goal(State.parse(["Free(hand)", "Found(cup)"]), make_tiny_vocab(max_atoms=1))


# --- embedding and segments -----------------------------------------------------------


def test_embed_rejects_bad_input(tiny_vocab):
    params = GoalNetParams.init(tiny_vocab, seed=1)
    with pytest.raises(IndexOutOfVocab, match="position 1"):
        beam_decode((0, tiny_vocab.size), params)
    with pytest.raises(MalformedSequence, match="missing <ets>"):
        beam_decode((tiny_vocab.token_to_id["Free"], EOS_ID), params)


def test_segment_spans_stop_at_eos(tiny_vocab):
    v = tiny_vocab
    ids = (
        v.token_to_id["clear"], ETS_ID,
        v.token_to_id["Free"], v.token_to_id["hand"], EOA_ID,
        EOS_ID,
        v.token_to_id["cup"], EOA_ID,  # garbage after eos is not a segment
    )
    assert segment_spans(ids) == ((0, 1), (2, 4))
    # an encoded state: 6 task words, then Free(hand), then On(brush,table)
    task = v.tasks["t-fetch"]  # bring the brush to the shelf
    seq = encode_state(task, State.parse(["On(brush,table)", "Free(hand)"]), v)
    assert segment_spans(seq.ids) == ((0, 6), (7, 9), (10, 13))


# --- attention closed forms -----------------------------------------------------------


def _plain_attention_params(vocab) -> GoalNetParams:
    params = GoalNetParams.init(vocab, seed=0)
    params.att_W1.data[:] = 0.0
    params.att_W2.data[:] = 0.0
    params.att_W.data[:] = 0.0
    return params


def dec_step_attention(segments, prev_segment, dec_hidden, params):
    """One `_dec_step` over the segment vectors `segments` (task segment
    first); returns its attention weights and the context they weight."""
    K = segments.shape[0]
    S = ad.const(segments[None])
    env = {
        "B": 1,
        "K": K,
        "S": S,
        "U": ad.matmul(ad.const(segments), params.att_W1),
        "task_seg": ad.const(segments[:1]),
        "seg_mask": np.ones((1, K)),
    }
    hc = ad.const(np.concatenate([dec_hidden, np.zeros(DEC_HIDDEN)])[None])
    prev_emb = ad.const(np.zeros((1, EMB_DIM)))
    _, _, p = _dec_step(params, env, prev_emb, ad.const(prev_segment[None]), hc, np.ones((1, 1)))
    ctx = ad.weighted_ctx(p, S)
    return p.data[0], ctx.data[0]


def test_attend_known_scores(tiny_vocab):
    params = _plain_attention_params(tiny_vocab)
    # scores [2, 0]: first segment flags channel 0, scorer reads it through tanh
    params.att_W1.data[0, 0] = 1.0
    params.att_W.data[0, 0] = 2.0 / np.tanh(1.0)
    segments = np.zeros((2, 32))
    segments[0, 0] = 1.0
    w, ctx = dec_step_attention(segments, np.zeros(20), np.zeros(32), params)
    assert np.allclose(w, [0.8808, 0.1192], atol=1e-4)
    assert np.allclose(ctx, w[0] * segments[0] + w[1] * segments[1])


def test_attend_uniform_on_equal_scores(tiny_vocab):
    params = _plain_attention_params(tiny_vocab)
    segments = np.tile(np.linspace(-1, 1, 32), (7, 1))
    w, _ = dec_step_attention(segments, np.zeros(20), np.zeros(32), params)
    assert np.allclose(w, np.full(7, 1 / 7))


def test_attend_is_a_distribution(tiny_vocab):
    params = GoalNetParams.init(tiny_vocab, seed=11)
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 8))
        segments = rng.normal(size=(k, 32))
        w, _ = dec_step_attention(segments, rng.normal(size=20), rng.normal(size=32), params)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-6


# --- decoding -------------------------------------------------------------------------


def test_greedy_is_width_one_beam(tiny_vocab, fetch_pair):
    params = GoalNetParams.init(tiny_vocab, seed=5)
    b = beam_decode(fetch_pair.input_ids, params, width=1)[0]
    # the reference scores a beam by the sum of its step log-probabilities
    assert [b] == _taped_beam_decode(fetch_pair.input_ids, params, width=1)
    assert b.log_prob <= 0.0


def test_beam_results_sorted_and_distinct(tiny_vocab, fetch_pair):
    params = GoalNetParams.init(tiny_vocab, seed=5)
    results = beam_decode(fetch_pair.input_ids, params, width=4)
    assert 1 <= len(results) <= 4
    assert [r.log_prob for r in results] == sorted((r.log_prob for r in results), reverse=True)
    assert len({r.tokens.ids for r in results}) == len(results)


def test_truncation_flag(tiny_vocab, fetch_pair):
    params = GoalNetParams.init(tiny_vocab, seed=5)
    ids = fetch_pair.input_ids
    params.out_b.data[EOS_ID] = -1e9  # EOS never competes
    for r in beam_decode(ids, params, width=3):
        assert r.truncated and len(r.tokens.ids) == MAX_LEN
    params.out_b.data[EOS_ID] = 1e9  # EOS always wins
    r = beam_decode(ids, params, width=1)[0]
    assert not r.truncated and r.tokens.ids == (EOS_ID,)


def test_infer_topk_no_valid_proposal(tiny_vocab, fetch_pair):
    params = GoalNetParams.init(tiny_vocab, seed=5)
    params.out_b.data[EOS_ID] = 1e9  # only degenerate decodes
    with pytest.raises(NoValidProposal):
        infer_topk(fetch_pair.task, fetch_pair.state, params, tiny_vocab, k=3)


def test_infer_topk_rejects_k_below_one(tiny_vocab, fetch_pair):
    params = GoalNetParams.init(tiny_vocab, seed=5)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            infer_topk(fetch_pair.task, fetch_pair.state, params, tiny_vocab, k=k)


def test_decode_without_attention(tiny_vocab, fetch_pair):
    params, history = train([fetch_pair], tiny_vocab, seed=3, use_attention=False)
    assert history[-1] < 1e-2
    assert beam_decode(fetch_pair.input_ids, params, width=1)[0].tokens.ids == fetch_pair.target_ids
    results = beam_decode(fetch_pair.input_ids, params, width=4)
    assert results == _taped_beam_decode(fetch_pair.input_ids, params, width=4)
    proposals = infer_topk(fetch_pair.task, fetch_pair.state, params, tiny_vocab, k=3)
    assert proposals[0].goal == fetch_pair.target
    assert [p.rank for p in proposals] == list(range(1, len(proposals) + 1))


# --- untaped inference versus the taped forward ----------------------------------------


def _random_input(vocab, n_atoms: int, rng) -> tuple[int, ...]:
    atoms = sorted(herbrand_universe(vocab), key=lambda a: a.key())
    picks = rng.choice(len(atoms), size=n_atoms, replace=False)
    task = list(vocab.tasks.values())[int(rng.integers(len(vocab.tasks)))]
    return encode_state(task, State(frozenset(atoms[i] for i in picks)), vocab).ids


def _taped_env(params, ids, rows: int) -> tuple[dict, np.ndarray]:
    """The taped encoder's env repeated to `rows` beams, and the decoder's
    initial [h|c]."""
    env = _encode_graph(params, _make_enc_batch([ids]))
    hc0 = _dec_init(params, env["summary"]).data
    benv = {
        "B": rows,
        "K": env["K"],
        "S": ad.const(np.repeat(env["S"].data, rows, axis=0)),
        "U": ad.const(np.tile(env["U"].data, (rows, 1))) if params.use_attention else None,
        "task_seg": ad.const(np.repeat(env["task_seg"].data, rows, axis=0)),
        "seg_mask": np.repeat(env["seg_mask"], rows, axis=0),
        "ctx_mean": ad.const(np.repeat(env["ctx_mean"].data, rows, axis=0)),
    }
    return benv, hc0


def _left_sum(logps) -> float:
    """The sum of the step log-probabilities, added left to right as a beam
    accumulates them (from Python 3.12 the builtin `sum` compensates)."""
    total = 0.0
    for lp in logps:
        total += lp
    return total


def _taped_beam_decode(ids, params, width: int) -> list[DecodeResult]:
    """Beam search over the taped forward, candidates ranked by a plain sort
    on (-score, beam, token): the reference `beam_decode` must reproduce."""
    emb = params.emb.data
    live = [((), (), np.zeros(EMB_DIM), (), None)]  # tokens, logps, prev_seg, group, hc row
    done = []
    for _ in range(MAX_LEN):
        if not live:
            break
        B = len(live)
        env, hc0 = _taped_env(params, ids, B)
        hc = np.stack([hc0[0] if b[4] is None else b[4] for b in live])
        prev_emb = emb[[b[0][-1] if b[0] else ETS_ID for b in live]]
        prev_seg = np.stack([b[2] for b in live])
        logits, hc_new, _ = _dec_step(
            params, env, ad.const(prev_emb), ad.const(prev_seg), ad.const(hc), np.ones((B, 1))
        )
        logp = ad.log_softmax_np(logits.data)
        cands = []
        for i, b in enumerate(live):
            for tok in np.argsort(-logp[i], kind="stable")[: width + 1]:
                cands.append((_left_sum(b[1]) + logp[i, tok], i, int(tok)))
        cands.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_live = []
        for _, i, tok in cands[:width]:
            tokens, logps, seg, group, _ = live[i]
            tokens, logps = tokens + (tok,), logps + (float(logp[i, tok]),)
            if tok == EOS_ID:
                done.append(DecodeResult(TokenSeq(tokens), _left_sum(logps), truncated=False))
                continue
            if tok == EOA_ID and group:
                seg, group = emb[list(group)].mean(axis=0), ()
            elif tok not in (EOA_ID, ETS_ID):
                group = group + (tok,)
            next_live.append((tokens, logps, seg, group, hc_new.data[i]))
        live = next_live
        if len(done) >= width:
            break
    done += [DecodeResult(TokenSeq(b[0]), _left_sum(b[1]), truncated=True) for b in live]
    done.sort(key=lambda r: (-r.log_prob, r.tokens.ids))
    return done[:width]


@pytest.mark.parametrize("use_attention", [True, False])
def test_untaped_encoder_is_bit_equal_to_taped(tiny_vocab, use_attention):
    for seed in (0, 1, 2):
        params = GoalNetParams.init(tiny_vocab, seed=seed, use_attention=use_attention)
        rng = np.random.default_rng(seed)
        for n_atoms in range(1, tiny_vocab.max_atoms + 1):
            ids = _random_input(tiny_vocab, n_atoms, rng)
            taped, hc0 = _taped_env(params, ids, 1)
            env = _encode_np(params, ids, rows=1)
            assert np.array_equal(env["hc0"], hc0)
            assert env["K"] == taped["K"] == n_atoms + 1
            assert np.array_equal(env["seg_mask"], taped["seg_mask"])
            for key in ("S", "task_seg", "ctx_mean") + (("U",) if use_attention else ()):
                assert np.array_equal(env[key], taped[key].data), (seed, n_atoms, key)


@pytest.mark.parametrize("use_attention", [True, False])
def test_untaped_decoder_step_is_bit_equal_to_taped(tiny_vocab, use_attention):
    width = 6
    for seed in (0, 1, 2):
        params = GoalNetParams.init(tiny_vocab, seed=seed, use_attention=use_attention)
        rng = np.random.default_rng(100 + seed)
        for n_atoms in (1, 5, tiny_vocab.max_atoms):
            ids = _random_input(tiny_vocab, n_atoms, rng)
            env = _encode_np(params, ids, rows=width)
            for B in range(1, width + 1):
                taped, _ = _taped_env(params, ids, B)
                prev_emb = params.emb.data[rng.integers(tiny_vocab.size, size=B)]
                prev_seg = rng.normal(size=(B, EMB_DIM))
                hc = rng.normal(size=(B, 2 * DEC_HIDDEN))
                logits, hc_new, _ = _dec_step(
                    params, taped, ad.const(prev_emb), ad.const(prev_seg), ad.const(hc),
                    np.ones((B, 1)),
                )
                got_logits, got_hc = _dec_step_np(params, env, prev_emb, prev_seg, hc)
                assert np.array_equal(got_logits, logits.data), (seed, n_atoms, B)
                assert np.array_equal(got_hc, hc_new.data), (seed, n_atoms, B)


@pytest.mark.parametrize("use_attention", [True, False])
def test_beam_decode_equals_taped_reference(tiny_vocab, fetch_pair, overfit, use_attention):
    nets = [GoalNetParams.init(tiny_vocab, seed=s, use_attention=use_attention) for s in range(4, 8)]
    rng = np.random.default_rng(7)
    # the last two read nothing but the output bias, so scores tie exactly:
    # across all tokens, and across tokens and beams in three bias levels
    biases = (np.zeros(tiny_vocab.size), rng.integers(0, 3, tiny_vocab.size))
    for tied, bias in zip(nets[2:], biases):
        tied.out_W.data[:] = 0.0
        tied.out_b.data[:] = bias
    if use_attention:
        nets.append(overfit[0])
    inputs = [fetch_pair.input_ids] + [_random_input(tiny_vocab, n, rng) for n in (1, 9)]
    for params in nets:
        for ids in inputs:
            for width in range(1, 7):
                got = beam_decode(ids, params, width=width)
                assert got == _taped_beam_decode(ids, params, width=width), width


# --- training -------------------------------------------------------------------------


def test_single_pair_overfit_and_exact_recall(tiny_vocab, fetch_pair, overfit):
    params, history = overfit
    assert len(history) == 100
    assert history[-1] < 1e-2
    assert beam_decode(fetch_pair.input_ids, params, width=1)[0].tokens.ids == fetch_pair.target_ids
    proposals = infer_topk(fetch_pair.task, fetch_pair.state, params, tiny_vocab, k=3)
    assert proposals[0].rank == 1
    assert proposals[0].goal == fetch_pair.target
    keys = [frozenset(a.key() for a in p.goal.atoms) for p in proposals]
    assert len(set(keys)) == len(keys)
    assert [p.rank for p in proposals] == list(range(1, len(proposals) + 1))
    assert proposals[0].log_prob >= proposals[-1].log_prob


def test_train_history_is_bit_identical(tiny_vocab, tiny_lib):
    pairs = grow_dataset(tiny_lib, target=6, seed=9)
    hyper = {"epochs": 6, "batch": 3}
    _, h1 = train(pairs, tiny_vocab, hyper=hyper, seed=21)
    _, h2 = train(pairs, tiny_vocab, hyper=hyper, seed=21)
    assert h1 == h2
    _, h3 = train(pairs, tiny_vocab, hyper=hyper, seed=22)
    assert h1 != h3
    assert h1[-1] < h1[0]  # it does learn something


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf is injected on purpose
def test_train_rejects_empty_and_nonfinite(tiny_vocab, fetch_pair):
    with pytest.raises(EmptyDataset):
        train([], tiny_vocab)
    poisoned = GoalNetParams.init(tiny_vocab, seed=0)
    poisoned.emb.data[:] = np.inf
    with pytest.raises(NonFiniteLoss) as e:
        train([fetch_pair], tiny_vocab, hyper={"epochs": 2}, params=poisoned)
    assert e.value.epoch == 0 and e.value.batch == 0


@pytest.mark.parametrize(
    "hyper, key",
    [
        ({"epoch": 2}, "epoch"),
        ({"batch": 0}, "batch"),
        ({"batch": 2.5}, "batch"),
        ({"epochs": 0}, "epochs"),
        ({"lr": 0.0}, "lr"),
        ({"lr": -0.02}, "lr"),
        ({"lr": float("nan")}, "lr"),
        ({"lr": float("inf")}, "lr"),
        ({"lr": "0.02"}, "lr"),
        # a bool is no count or rate, though Python's bool is an int
        pytest.param({"batch": True}, "batch", id="batch-bool"),
        pytest.param({"epochs": True}, "epochs", id="epochs-bool"),
        pytest.param({"lr": True}, "lr", id="lr-bool"),
    ],
)
def test_train_rejects_bad_hyper(tiny_vocab, fetch_pair, hyper, key):
    with pytest.raises(ValueError, match=f"hyper-parameter '{key}'"):
        train([fetch_pair], tiny_vocab, hyper=hyper)


# --- gradient checks ------------------------------------------------------------------


def test_grad_check_all_groups(tiny_vocab, fetch_pair):
    params = GoalNetParams.init(tiny_vocab, seed=7)
    errors = grad_check(params, fetch_pair)
    assert set(errors) == set(params.groups())
    worst = max(errors.values())
    assert worst < 1e-4, f"worst group error {worst}"


def test_grad_check_detects_corrupted_attention_backward(tiny_vocab, fetch_pair, monkeypatch):
    def crooked_tanh(x):
        y = np.tanh(x.data)

        def back(g):
            ad._acc(x, g * (1.0 - y * y) * 1.1)  # 10% too steep, forward untouched

        return ad._node(y, (x,), back)

    monkeypatch.setattr(ad, "tanh", crooked_tanh)
    params = GoalNetParams.init(tiny_vocab, seed=7)
    errors = grad_check(params, fetch_pair)
    assert max(errors.values()) > 1e-2
    assert errors["h0_W"] > 1e-2  # feeds a corrupted activation directly
    assert errors["out_b"] < 1e-4  # not behind any tanh: still clean


def test_zero_params_symmetric_input_symmetric_grads(tiny_vocab):
    params = GoalNetParams.init(tiny_vocab, seed=0)
    for t in params.groups().values():
        t.data[:] = 0.0
    params.out_W.data[:] = 1.0  # lets loss reach the encoder through the context
    v = tiny_vocab
    brush = v.token_to_id["brush"]
    pair = TrainingPair(
        task=v.tasks["t-fetch"],
        state=State(),
        target=State.parse(["Free(hand)"]),
        input_ids=(brush, ETS_ID, brush),  # reads the same in both directions
        target_ids=(v.token_to_id["Free"], v.token_to_id["hand"], EOA_ID, EOS_ID),
    )
    errors = grad_check(params, pair, min_samples=22 * 3)
    assert max(errors.values()) < 1e-4
    for suffix in ("Wx", "Wh", "b"):
        gf = getattr(params, f"ef_{suffix}").grad
        gb = getattr(params, f"eb_{suffix}").grad
        assert gf is not None and gb is not None
        assert np.allclose(gf, gb, atol=1e-10)


# --- checkpoints ----------------------------------------------------------------------


def test_checkpoint_roundtrip_and_byte_determinism(tiny_vocab, tmp_path):
    params = GoalNetParams.init(tiny_vocab, seed=13, use_attention=False)
    a, b = tmp_path / "a.gnp", tmp_path / "b.gnp"
    save_params(params, str(a))
    save_params(params, str(b))
    assert a.read_bytes() == b.read_bytes()
    loaded = load_params(str(a), tiny_vocab)
    assert loaded.use_attention is False
    for name, t in params.groups().items():
        assert np.array_equal(t.data, loaded.groups()[name].data)
        assert loaded.groups()[name].requires_grad
    c = tmp_path / "c.gnp"
    save_params(loaded, str(c))
    assert c.read_bytes() == a.read_bytes()


def test_init_checkpoint_bytes_are_pinned(tiny_vocab, tmp_path):
    # guards the group order and every init draw: a change to either moves
    # these bytes
    path = tmp_path / "p.gnp"
    save_params(GoalNetParams.init(tiny_vocab, seed=0), str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "3badaf2a7bf1906d0ee53d482d2d28ae5b6401eefe70b4e7b969af7a4d86478a"


def test_checkpoint_refuses_other_vocab(tiny_vocab, tmp_path):
    params = GoalNetParams.init(tiny_vocab, seed=13)
    path = tmp_path / "p.gnp"
    save_params(params, str(path))
    v = make_tiny_vocab()
    other = Vocabulary(
        list(v.sorts.values()),
        list(v.terms.values()) + [Term("mug", "item")],
        list(v.predicates.values()),
        list(v.tasks.values()),
    )
    with pytest.raises(CheckpointMismatch, match="vocabulary"):
        load_params(str(path), other)


def _replace_entries(src, dst, edit):
    """Copy checkpoint src to dst with its {name: bytes} entries passed
    through `edit`."""
    with zipfile.ZipFile(src) as z:
        entries = edit({n: z.read(n) for n in z.namelist()})
    with zipfile.ZipFile(dst, "w") as z:
        for name, data in entries.items():
            z.writestr(name, data)


def _rewrite_checkpoint(src, dst, drop_entry="", drop_meta_group="", drop_meta="", edit=None):
    """Copy checkpoint src to dst without one archive entry, one group of
    meta.json's groups, or one meta.json field; `edit` maps the resulting
    meta.json object to the one written."""

    def rewrite(entries):
        meta = json.loads(entries["meta.json"])
        meta["groups"].pop(drop_meta_group, None)
        meta.pop(drop_meta, None)
        entries["meta.json"] = json.dumps(meta if edit is None else edit(meta)).encode()
        entries.pop(drop_entry, None)
        return entries

    _replace_entries(src, dst, rewrite)


def test_checkpoint_refuses_incomplete_archives(tiny_vocab, tmp_path):
    params = GoalNetParams.init(tiny_vocab, seed=13)
    path = tmp_path / "p.gnp"
    save_params(params, str(path))
    no_meta_group = tmp_path / "a.gnp"  # meta.json and the archive both lack att_W
    _rewrite_checkpoint(path, no_meta_group, drop_entry="att_W.npy", drop_meta_group="att_W")
    with pytest.raises(CheckpointMismatch, match=r"meta.json: missing \['att_W'\]"):
        load_params(str(no_meta_group), tiny_vocab)
    no_array = tmp_path / "b.gnp"  # meta.json lists out_b, the archive lacks it
    _rewrite_checkpoint(path, no_array, drop_entry="out_b.npy")
    with pytest.raises(CheckpointMismatch, match=r"archive: missing \['out_b'\]"):
        load_params(str(no_array), tiny_vocab)
    for field in ("vocab_hash", "use_attention", "groups"):
        no_field = tmp_path / f"{field}.gnp"
        _rewrite_checkpoint(path, no_field, drop_meta=field)
        with pytest.raises(CheckpointMismatch, match=f"lacks \\['{field}'\\]"):
            load_params(str(no_field), tiny_vocab)


def test_checkpoint_refuses_misshapen_meta(tiny_vocab, tmp_path):
    params = GoalNetParams.init(tiny_vocab, seed=13)
    path = tmp_path / "p.gnp"
    save_params(params, str(path))
    for name, edit, message in [
        ("list", lambda meta: [1, 2], "meta.json must be an object, got list"),
        ("groups", lambda meta: {**meta, "groups": list(meta["groups"])}, "groups must be an object, got list"),
    ]:
        bad = tmp_path / f"{name}.gnp"
        _rewrite_checkpoint(path, bad, edit=edit)
        with pytest.raises(CheckpointMismatch, match=message):
            load_params(str(bad), tiny_vocab)


def _scalar_emb(entries):
    """A checkpoint whose emb is a 0-d array, and whose meta.json agrees."""
    meta = json.loads(entries["meta.json"])
    meta["groups"]["emb"] = []
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.array(1.0))
    return {**entries, "meta.json": json.dumps(meta).encode(), "emb.npy": buf.getvalue()}


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda e: {**e, "meta.json": b"{not json"}, id="meta-not-json"),
        pytest.param(lambda e: {n: b for n, b in e.items() if n != "meta.json"}, id="no-meta"),
        pytest.param(lambda e: {**e, "emb.npy": b"\x93NUMPY garbage"}, id="corrupt-array"),
        pytest.param(_scalar_emb, id="scalar-emb"),
        pytest.param(None, id="not-a-zip"),
    ],
)
def test_checkpoint_refuses_unreadable_archives(tiny_vocab, tmp_path, edit):
    path = tmp_path / "p.gnp"
    save_params(GoalNetParams.init(tiny_vocab, seed=13), str(path))
    bad = tmp_path / "bad.gnp"
    if edit is None:
        bad.write_bytes(b"not a zip archive")
    else:
        _replace_entries(path, bad, edit)
    with pytest.raises(CheckpointMismatch, match="unreadable checkpoint"):
        load_params(str(bad), tiny_vocab)


def test_checkpoint_with_separator_ids_still_loads(tiny_vocab, fetch_pair, tmp_path):
    # meta.json used to store the separator ids as "seps"; they are fixed
    # now, so a stored list is ignored, whatever it says
    params = GoalNetParams.init(tiny_vocab, seed=13)
    path = tmp_path / "p.gnp"
    save_params(params, str(path))
    for seps in ([0, 1, 2], [2, 1, 0]):
        old = tmp_path / f"old{seps[0]}.gnp"
        _rewrite_checkpoint(path, old, edit=lambda meta: {**meta, "seps": seps})
        loaded = load_params(str(old), tiny_vocab)
        for name, t in params.groups().items():
            assert np.array_equal(t.data, loaded.groups()[name].data)
        ids = fetch_pair.input_ids
        assert beam_decode(ids, loaded, width=3) == beam_decode(ids, params, width=3)


# --- dataset growth -------------------------------------------------------------------


def test_base_pairs_follow_chains(tiny_vocab, tiny_lib):
    pairs = base_pairs(tiny_lib)
    assert [(p[0].id, len(p[1]), len(p[2])) for p in pairs] == [
        ("t-fetch", 2, 2),
        ("t-fetch", 2, 2),
        ("t-clear", 2, 1),
    ]
    assert pairs[0][3] == 4.0 and pairs[2][3] == 1.0


def test_grow_dataset_floor_and_insufficient(tiny_vocab):
    lib = make_lib(tiny_vocab, [TaskChain("t-clear", ("c1", "c2"), 1.0)])
    pairs = grow_dataset(lib, target=2, seed=0)
    assert 1 <= len(pairs) <= 2
    base = TrainingPair.of(
        tiny_vocab.tasks["t-clear"],
        lib.entry("c1").goal_state,
        lib.entry("c2").goal_state,
        tiny_vocab,
    )
    assert (pairs[0].input_ids, pairs[0].target_ids) == (base.input_ids, base.target_ids)
    with pytest.raises(InsufficientBase):
        grow_dataset(make_lib(tiny_vocab, [TaskChain("t-clear", ("c1",), 1.0)]), target=5)


def test_grow_dataset_bulk_properties(tiny_vocab, tiny_lib):
    pairs = grow_dataset(tiny_lib, target=400, seed=4)
    assert len(pairs) == 400
    keys = {(p.input_ids, p.target_ids) for p in pairs}
    assert len(keys) == 400
    for p in pairs:
        assert filter_by_types(p.state.atoms, tiny_vocab) == set(p.state.atoms)
        assert filter_by_types(p.target.atoms, tiny_vocab) == set(p.target.atoms)
        assert p.input_ids[-1] == EOS_ID
        assert len(p.state) <= tiny_vocab.max_atoms
    counts = [len(p.state) for p in pairs]
    assert min(counts) == 1  # drops reach the single-atom floor
    assert max(counts) >= 10  # padding reaches high atom counts
    again = grow_dataset(tiny_lib, target=400, seed=4)
    assert [(p.input_ids, p.target_ids) for p in again] == [
        (p.input_ids, p.target_ids) for p in pairs
    ]
    other = grow_dataset(tiny_lib, target=400, seed=5)
    assert [(p.input_ids, p.target_ids) for p in other] != [
        (p.input_ids, p.target_ids) for p in pairs
    ]


def test_grow_dataset_substitutes_consistently(tiny_vocab):
    lib = make_lib(tiny_vocab, [TaskChain("t-clear", ("c1", "c2"), 1.0)])
    [(task, state, target, _)] = base_pairs(lib)
    rng = np.random.default_rng(2)
    pairs = []
    for _ in range(60):
        mapping = _substitution(rng, tiny_vocab, protected=set(task.words))
        pair = TrainingPair.of(task, _substitute(state, mapping), _substitute(target, mapping), tiny_vocab)
        if pair not in pairs:
            pairs.append(pair)
    # item pool is {brush, cup}; "table" is task-protected, and so are the
    # only gripper and base: 2 distinct substituted pairs
    assert len(pairs) == 2
    for p in pairs:
        on = next(a for a in p.state.atoms if a.pred == "On")
        hold = next(a for a in p.target.atoms if a.pred == "Hold")
        found = next(a for a in p.state.atoms if a.pred == "Found")
        assert on.args[1] == "table"  # protected by the task sentence
        assert on.args[0] == hold.args[1] == found.args[0]  # consistent swap
    assert {p.state != p.target for p in pairs}  # both substituted variants appear
    items = {next(a for a in p.state.atoms if a.pred == "On").args[0] for p in pairs}
    assert items == {"brush", "cup"}

