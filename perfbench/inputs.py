"""What the program receives: packaged data, task cases, the library oracle
and the learning sets.

`setup` is the timed set-up of every workload. It loads the vocabulary, the
plan library and each task's packaged scene, stages the scene variants and
the relocation schedule, and, for learn_deploy, grows the training and the
held-out sets. Everything the program receives comes from here or from the
`Runner` in run.py, and both derive their randomness from the workload seed.

The seed cannot change any task's outcome: the detector is noise-free, so the
monitor's and the actuator's random streams never decide a result, and the
deployed net is trained from the fixed tier seed. An outcome that moved with
the seed would move the share of failed operations from run to run. What the
seed does change is the order of the tasks in every pass, the random streams
the monitor and the actuator draw from, and the held-out states on which
learn_deploy times its proposals.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

from perfbench.checks import goal_key
from taskmon import actuator, dataset, geometry, language, monitor, pddl
from taskmon.language import State, TokenSeq
from taskmon.predictor import GoalProposal, TrainingPair

DATA = os.path.join(os.path.dirname(os.path.abspath(language.__file__)), "data")

WORKLOADS = ("live_recover", "belief_replay", "learn_deploy")

# Each task's packaged scene file. bring_eq1.yaml (the brush on the ladder) is
# not loaded: the alternative-support variants of all four pick-up tasks are
# staged the same way, by the actuator's own relocation on the base scene.
SCENE_FILE = {
    "bring_object": "bring_dynamic",
    "remove_panel": "remove_panel",
    "support_panel": "support_panel",
    "clean_diverter": "clean_diverter",
    "find_object": "find_object",
}

# The task's object and the alternative support its secondary chains name.
# find_object has no secondary chain, so it runs on its base scene only.
ALT_SUPPORT = {
    "bring_object": ("brush", "ladder"),
    "remove_panel": ("panel", "shelf"),
    "support_panel": ("guard", "workbench"),
    "clean_diverter": ("cloth", "workbench"),
}

# Every task starts from the state the library's chains start from: the goal
# of their first entry, which is also the first input the chains teach the
# predictor.
START_ENTRY = "boot"

# The moved variant relocates the object just before this actuator call.
MOVE_BEFORE_CALL = 2

# Failed operations that are known, with the outcome reason they end in. Any
# other failure fails the run. The causes are in README.md.
KNOWN_FAILURES = {
    "live_recover": {"support_panel/moved": "proposals_exhausted"},
    "learn_deploy": {
        "bring_object/alt": "proposals_exhausted",
        "remove_panel/alt": "proposals_exhausted",
        "support_panel/alt": "proposals_exhausted",
        "clean_diverter/alt": "proposals_exhausted",
    },
}


@dataclass(frozen=True)
class Tier:
    """The small fixed learning tier of learn_deploy. The deployed net is
    trained on `train_pairs` for `epochs`; every pass times one epoch over
    the first `slice_pairs` of them."""

    train_pairs: int = 500
    epochs: int = 4
    batch: int = 5
    lr: float = 0.02
    train_seed: int = 0
    slice_pairs: int = 100
    heldout: int = 50
    k: int = 3


TIER = Tier()


class LibraryOracle(monitor.GoalSource):
    """Proposes the successors of the current goal along the task's chains,
    ranked by summed chain weight, ties by entry name. A state that is no goal
    of the task's chains gets the chains' first goals. The log-probability of
    a proposal is the log of its share of the summed weight."""

    def __init__(self, lib: pddl.PlanLibrary, task_id: str):
        self._lib = lib
        self._known: set[frozenset] = set()
        self._next: dict[Optional[frozenset], dict[str, float]] = {}
        for chain in lib.chains:
            if chain.task_id != task_id:
                continue
            prev: Optional[frozenset] = None
            for name in chain.goals:
                succ = self._next.setdefault(prev, {})
                succ[name] = succ.get(name, 0.0) + chain.weight
                prev = goal_key(lib.entry(name).goal_state)
                self._known.add(prev)
        if None not in self._next:
            raise ValueError(f"no chain for task {task_id}")

    def propose(self, task, s: State, k: int) -> list[GoalProposal]:
        key = goal_key(s)
        succ = self._next.get(key if key in self._known else None, {})
        total = sum(succ.values())
        ranked = sorted(succ, key=lambda n: (-succ[n], n))[:k]
        return [
            GoalProposal(self._lib.entry(n).goal_state, math.log(succ[n] / total), r, TokenSeq(()))
            for r, n in enumerate(ranked, 1)
        ]


@dataclass(frozen=True)
class Case:
    """One monitored task: a task on a staged scene. `scene` stays pristine;
    every run works on a copy."""

    task_id: str
    variant: str  # base | alt | moved
    scene: geometry.Scene
    disturbances: tuple[actuator.Disturbance, ...]
    terminal: State
    known_failure: str  # the reason a known failure ends in, or ""

    @property
    def name(self) -> str:
        return f"{self.task_id}/{self.variant}"


@dataclass
class Inputs:
    workload: str
    seed: int
    vocab: language.Vocabulary
    lib: pddl.PlanLibrary
    start: State
    cases: list[Case]
    oracles: dict[str, LibraryOracle]
    candidates: list  # the atoms BeliefVision grounds in its snapshot
    train_pairs: list[TrainingPair]
    heldout: list[TrainingPair]
    chain_steps: list  # (task, goal_i, goal_i+1, weight) for every chain step


def _relocated(scene: geometry.Scene, vocab, obj: str, dest: str) -> geometry.Scene:
    staged = scene.copy()
    actuator.SimActuator(staged, vocab).apply_disturbance(
        actuator.Disturbance(1, "relocate", obj, dest)
    )
    return staged


def _terminal(lib: pddl.PlanLibrary, task_id: str) -> State:
    lasts = {c.goals[-1] for c in lib.chains if c.task_id == task_id}
    if len(lasts) != 1:
        raise ValueError(f"task {task_id}: chains end in {sorted(lasts)}")
    return lib.entry(lasts.pop()).goal_state


def _heldout(lib, seed: int, train: list[TrainingPair], n: int, steps: int) -> list[TrainingPair]:
    """n grown pairs none of which is a training pair. grow_dataset lists the
    `steps` chain steps first, and those are training pairs too."""
    seen = {(p.input_ids, p.target_ids) for p in train}
    drawn = dataset.grow_dataset(lib, target=steps + 3 * n, seed=seed)
    out = [p for p in drawn if (p.input_ids, p.target_ids) not in seen][:n]
    if len(out) < n:
        raise ValueError(f"held-out draw gave {len(out)} of {n} pairs")
    return out


def setup(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    vocab = language.Vocabulary.from_yaml(os.path.join(DATA, "vocabulary.yaml"))
    lib = pddl.load_library(os.path.join(DATA, "library.yaml"), vocab)
    known = KNOWN_FAILURES.get(workload, {})
    cases: list[Case] = []
    for task_id, scene_name in SCENE_FILE.items():
        base = geometry.load_scene(os.path.join(DATA, "scenes", f"{scene_name}.yaml"))
        terminal = _terminal(lib, task_id)
        staged = [("base", base, ())]
        if task_id in ALT_SUPPORT:
            obj, dest = ALT_SUPPORT[task_id]
            staged.append(("alt", _relocated(base, vocab, obj, dest), ()))
            if workload == "live_recover":
                move = actuator.Disturbance(MOVE_BEFORE_CALL, "relocate", obj, dest)
                staged.append(("moved", base, (move,)))
        for variant, scene, dist in staged:
            name = f"{task_id}/{variant}"
            cases.append(Case(task_id, variant, scene, dist, terminal, known.get(name, "")))

    objects = {o.label: vocab.terms[o.label].sort for o in cases[0].scene.objects}
    predicates = {p.name: p for e in lib.entries for p in e.domain.predicates.values()}
    candidates = monitor.candidate_atoms(objects, predicates.values(), vocab)

    chain_steps = dataset.base_pairs(lib)
    train_pairs: list[TrainingPair] = []
    heldout: list[TrainingPair] = []
    if workload == "learn_deploy":
        train_pairs = dataset.grow_dataset(lib, target=TIER.train_pairs, seed=TIER.train_seed)
        # the held-out stream is disjoint from the training seed for every
        # non-negative workload seed
        heldout = _heldout(lib, 1_000_003 + seed, train_pairs, TIER.heldout, len(chain_steps))

    return Inputs(
        workload=workload,
        seed=seed,
        vocab=vocab,
        lib=lib,
        start=lib.entry(START_ENTRY).goal_state,
        cases=cases,
        oracles={t: LibraryOracle(lib, t) for t in SCENE_FILE},
        candidates=candidates,
        train_pairs=train_pairs,
        heldout=heldout,
        chain_steps=chain_steps,
    )
