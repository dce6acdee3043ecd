"""Decode sweep: the tier net's training and proposals, as digests.

Trains the next-goal net of the benchmark's learning tier through the public
API (500 pairs grown with seed 0, 4 epochs, batch 5, lr 0.02, train seed 0),
once with attention and once without. For each net it prints the per-epoch
loss history as `float.hex`, a SHA-256 over the trained parameters, and a
SHA-256 over the `infer_topk` proposals (tokens, `float.hex` log-probability
and rank of each, k=3) on 300 grown states. Two checkouts whose output is
identical train the same bits and propose the same goals with the same
scores:

    PYTHONPATH=src python3 tests/decodesweep.py > decode.txt

This is a command, not a test module; pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import os

import taskmon
from taskmon.dataset import grow_dataset
from taskmon.language import Vocabulary
from taskmon.pddl import load_library
from taskmon.predictor import NoValidProposal, infer_topk, train

DATA = os.path.join(os.path.dirname(taskmon.__file__), "data")
HYPER = {"epochs": 4, "batch": 5, "lr": 0.02}
TRAIN_PAIRS, TRAIN_SEED = 500, 0
STATES, STATE_SEED, K = 300, 7, 3


def sweep():
    """Yield (attention, field, value) lines."""
    vocab = Vocabulary.from_yaml(os.path.join(DATA, "vocabulary.yaml"))
    lib = load_library(os.path.join(DATA, "library.yaml"), vocab)
    pairs = grow_dataset(lib, target=TRAIN_PAIRS, seed=TRAIN_SEED)
    states = grow_dataset(lib, target=STATES, seed=STATE_SEED)
    for use_attention in (True, False):
        tag = "attention" if use_attention else "no-attention"
        net, history = train(pairs, vocab, HYPER, seed=TRAIN_SEED, use_attention=use_attention)
        yield tag, "history", " ".join(float.hex(h) for h in history)
        digest = hashlib.sha256()
        for name, t in net.groups().items():
            digest.update(name.encode())
            digest.update(t.data.tobytes())
        yield tag, "params", digest.hexdigest()
        digest = hashlib.sha256()
        none = 0
        for p in states:
            try:
                props = infer_topk(p.task, p.state, net, vocab, K)
            except NoValidProposal:
                none += 1
                digest.update(b"none\n")
                continue
            for g in props:
                line = f"{g.tokens.ids} {float.hex(g.log_prob)} {g.rank}\n"
                digest.update(line.encode())
        proposed = f"({len(states) - none} of {len(states)} proposed)"
        yield tag, "proposals", f"{digest.hexdigest()} {proposed}"


if __name__ == "__main__":
    for row in sweep():
        print("\t".join(row), flush=True)
