"""The packaged worlds the tests run on, named as data.

A staging is a scene and an actuator disturbance schedule, built from the
one base scene file:
- `base`: the base scene as packaged;
- `alt:<task>`: the base scene with the pick-up task's object relocated to
  its alternative support before the run, by the actuator's own relocation;
- `moved:<task>`: the base scene, with that relocation scheduled on the
  actuator just before its second call.

Each call builds a fresh scene, so a run may edit the one it gets.
`run_chain` runs a library chain on a staging.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from conftest import DATA
from taskmon.actuator import Disturbance, SimActuator
from taskmon.geometry import Scene, load_scene
from taskmon.language import Vocabulary
from taskmon.monitor import (
    BeliefVision,
    ExecutionTrace,
    LiveVision,
    MonitorConfig,
    ScriptedGoalSource,
    candidate_atoms,
    run_task,
)
from taskmon.pddl import PlanLibrary, TaskChain

BASE_SCENE = os.path.join(DATA, "scenes", "bring_dynamic.yaml")

# Each pick-up task's object and the alternative support its secondary
# chains name.
ALT_SUPPORT = {
    "bring_object": ("brush", "ladder"),
    "remove_panel": ("panel", "shelf"),
    "support_panel": ("guard", "workbench"),
    "clean_diverter": ("cloth", "workbench"),
}

# A moved staging relocates the object just before this actuator call.
MOVE_BEFORE_CALL = 2

# The stagings whose scenes differ; a moved staging starts from the base scene.
SCENES = ("base", *(f"alt:{t}" for t in ALT_SUPPORT))
STAGINGS = (*SCENES, *(f"moved:{t}" for t in ALT_SUPPORT))


@dataclass(frozen=True)
class Staging:
    scene: Scene
    disturbances: tuple[Disturbance, ...]
    vocab: Vocabulary

    def actuator(self, *extra: Disturbance, **settings) -> SimActuator:
        """A SimActuator on the staged scene, its schedule followed by `extra`."""
        return SimActuator(self.scene, self.vocab, disturbances=(*self.disturbances, *extra), **settings)


def base_scene() -> Scene:
    return load_scene(BASE_SCENE)


def stage(name: str, vocab: Vocabulary) -> Staging:
    """The staging called `name`, one of STAGINGS."""
    if name not in STAGINGS:
        raise ValueError(f"unknown staging {name!r}, expected one of {STAGINGS}")
    scene = base_scene()
    kind, _, task = name.partition(":")
    if kind == "base":
        return Staging(scene, (), vocab)
    obj, dest = ALT_SUPPORT[task]
    if kind == "alt":
        SimActuator(scene, vocab).apply_disturbance(Disturbance(1, "relocate", obj, dest))
        return Staging(scene, (), vocab)
    return Staging(scene, (Disturbance(MOVE_BEFORE_CALL, "relocate", obj, dest),), vocab)


def run_chain(
    lib: PlanLibrary, chain: TaskChain, name: str, cfg: MonitorConfig, vision: str = "live"
) -> ExecutionTrace:
    """`chain`, its goals scripted, on the staging called `name`, seen by
    LiveVision or, with `vision` "belief", by BeliefVision over every
    type-valid atom of the scene's objects."""
    goals = [lib.entry(n).goal_state for n in chain.goals]
    staging = stage(name, lib.vocab)
    scene = staging.scene
    if vision == "live":
        seen = LiveVision(scene, cfg)
    else:
        objects = {o.label: lib.vocab.terms[o.label].sort for o in scene.objects}
        predicates = {p.name: p for e in lib.entries for p in e.domain.predicates.values()}
        seen = BeliefVision(scene, candidate_atoms(objects, predicates.values(), lib.vocab))
    return run_task(
        chain.task_id,
        scene,
        lib,
        None,
        staging.actuator(seed=cfg.seed),
        cfg,
        terminal=goals[-1],
        vision=seen,
        goal_source=ScriptedGoalSource(goals),
    )
