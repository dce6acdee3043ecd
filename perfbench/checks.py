"""Output checks made apart from the program.

Each check returns a list of problems, empty when the output is right. None
of them calls into taskmon's perception, planning or language helpers: the
trace is read event by event, terminal atoms are read from the ground-truth
scene, and sorts are walked from the vocabulary's own tables.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Callable, Iterable

# grad_check reports the largest relative error per parameter group between
# analytic and central-difference gradients; at eps 1e-5 the tier's net reads
# 1.25e-5 on its first training pair.
GRAD_TOL = 1e-4

# The least number of the 50 chain steps whose top-1 proposal must name the
# chain's next goal. The tier's net reaches 35; no predictor can pass 42,
# because some steps share their input and differ in their next goal.
ACCURACY_FLOOR = 30


def trace_shape(trace) -> list[str]:
    """One end_task, last; every dispatch directly after a holding
    precondition result; every successful action followed by an effects
    query."""
    ev = trace.events
    out = []
    ends = [i for i, e in enumerate(ev) if e.kind == "end_task"]
    if ends != [len(ev) - 1]:
        out.append(f"end_task at {ends} of {len(ev)} events")
    for i, e in enumerate(ev):
        if e.kind == "action_dispatch":
            prev = ev[i - 1] if i > 0 else None
            if not (
                prev is not None
                and prev.kind == "vision_result"
                and prev.payload.get("purpose") == "precondition"
                and prev.payload.get("holds") is True
            ):
                out.append(f"event {i}: {e.payload.get('action')} dispatched without a holding precondition")
        if e.kind == "action_result" and e.payload.get("ok"):
            nxt = ev[i + 1] if i + 1 < len(ev) else None
            if not (nxt is not None and nxt.kind == "vision_query" and nxt.payload.get("purpose") == "effects"):
                out.append(f"event {i}: successful action not followed by an effects query")
    return out


def _center(obj) -> tuple[float, ...]:
    return tuple((lo + hi) / 2.0 for lo, hi in zip(obj.box.lo, obj.box.hi))


def false_terminal_atoms(scene, terminal, thresholds) -> list[str]:
    """Terminal atoms that do not hold in the ground-truth scene. Holding,
    On and Free are read from the attachments and the supports; CloseTo and
    At from box-centre distances against the thresholds. The epistemic atoms
    read the scene too: VisionOn is the scene's vision switch, Detected asks
    that the object exists."""
    objs = {}
    for o in scene.objects:
        objs.setdefault(o.label, o)
    out = []
    for atom in sorted(terminal.drop_times().atoms, key=lambda a: a.key()):
        found = [objs.get(x) for x in atom.args]
        if not all(found):
            out.append(f"{atom}: no scene object")
            continue
        p = atom.pred
        if p in ("Holding", "Hold"):
            ok = scene.attachments.get(found[0].id) == found[1].id
        elif p == "On":
            ok = found[0].supported_by == found[1].id
        elif p == "Free":
            ok = found[0].id not in scene.attachments
        elif p in ("CloseTo", "At"):
            limit = thresholds.close_dist if p == "CloseTo" else thresholds.at_dist
            ok = math.dist(_center(found[0]), _center(found[1])) <= limit
        elif p == "VisionOn":
            ok = bool(scene.vision_on)
        elif p == "Detected":
            ok = True
        else:
            out.append(f"{atom}: no ground-truth reading for {p}")
            continue
        if not ok:
            out.append(f"{atom}: false in the final scene")
    return out


def _within(vocab, sort: str, ancestor: str) -> bool:
    seen = set()
    while sort is not None and sort not in seen:
        if sort == ancestor:
            return True
        seen.add(sort)
        sort = vocab.sorts[sort].parent
    return False


def atom_fits(vocab, atom) -> bool:
    pred = vocab.predicates.get(atom.pred)
    if pred is None or len(atom.args) != len(pred.arg_sorts):
        return False
    return all(
        x in vocab.terms and _within(vocab, vocab.terms[x].sort, slot)
        for x, slot in zip(atom.args, pred.arg_sorts)
    )


def proposal_problems(props, vocab, k: int) -> list[str]:
    """Ranks 1..n with n <= k, every atom within the vocabulary's sorts, and
    log-probabilities that do not rise with rank."""
    out = []
    if not 1 <= len(props) <= k:
        out.append(f"{len(props)} proposals for k={k}")
    if [p.rank for p in props] != list(range(1, len(props) + 1)):
        out.append(f"ranks {[p.rank for p in props]}")
    for p in props:
        for a in p.goal.atoms:
            if not atom_fits(vocab, a):
                out.append(f"rank {p.rank}: {a} does not fit the vocabulary's sorts")
    for a, b in zip(props, props[1:]):
        if b.log_prob > a.log_prob:
            out.append(f"log-probability rises from rank {a.rank} to {b.rank}")
    return out


def training_problems(history: list[float], grad_errors: dict[str, float]) -> list[str]:
    out = []
    if not history or not history[-1] < history[0]:
        out.append(f"loss did not fall: {history}")
    worst = max(grad_errors.items(), key=lambda kv: kv[1], default=("", 0.0))
    if not worst[1] < GRAD_TOL:
        out.append(f"grad_check error {worst[1]:.3g} in {worst[0]} >= {GRAD_TOL}")
    return out


def goal_key(state) -> frozenset:
    """A state's identity: its atoms without times."""
    return frozenset(a.key() for a in state.drop_times().atoms)


def best_chain_accuracy(steps: Iterable) -> int:
    """Most chain steps any predictor can get right at top-1: steps that share
    a task and an input state can only all be right for one next goal."""
    nexts: dict[tuple, Counter] = defaultdict(Counter)
    for task, s, t, _ in steps:
        nexts[(task.id, goal_key(s))][goal_key(t)] += 1
    return sum(max(c.values()) for c in nexts.values())


def chain_accuracy(steps: Iterable, propose: Callable) -> int:
    """Chain steps whose top-1 proposal names the chain's next goal."""
    hits = 0
    for task, s, t, _ in steps:
        props = propose(task, s)
        hits += bool(props) and goal_key(props[0].goal) == goal_key(t)
    return hits
