"""Trace sweep: every packaged task chain on every packaged scene.

Runs each chain of the packaged library, its goals scripted in order, on
each packaged scene, under LiveVision and BeliefVision, with a zero-noise
and a noisy detector: 13 chains x 6 scenes x 2 x 2 = 312 runs. Then the
LiveVision runs again in the NO_SHAPE and NO_DEPTH ablation modes, which
reconstruct and ground differently: 2 x 156 more runs, their vision named
`live-no-shape` and `live-no-depth`. Prints one tab-separated line per run:
vision, detector, task#chain, scene, outcome, reason and the SHA-256 of the
run's `trace_lines`. Comparing the output of two checkouts shows which
traces a change shifted and whether any outcome moved:

    PYTHONPATH=src python3 tests/tracesweep.py > sweep.tsv

This is a command, not a test module; pytest does not collect it.
`tests/tracesweep.tsv` holds its output, and
`test_monitor.test_trace_sweep_matches_its_pinned_rows` compares every row
with that file. A change that moves a trace on purpose rewrites the file
with the command above and names the rows it moved.
"""

from __future__ import annotations

import hashlib
import os

import taskmon
from taskmon.actuator import SimActuator
from taskmon.geometry import load_scene
from taskmon.language import Vocabulary
from taskmon.monitor import (
    BeliefVision,
    LiveVision,
    MonitorConfig,
    ScriptedGoalSource,
    candidate_atoms,
    run_task,
    trace_lines,
)
from taskmon.pddl import load_library
from taskmon.perception import DetectorModel, Mode

DATA = os.path.join(os.path.dirname(taskmon.__file__), "data")
DETECTORS = {
    "zero-noise": DetectorModel(),
    "noisy": DetectorModel(tp_rate=0.95, confusion=0.05, px_jitter=1.0, depth_sigma=0.02),
}


# (vision name, mode) groups in output order: the original 312 rows take
# live and belief in turn per chain and scene; the ablation rows follow,
# one mode after the other
GROUPS = (
    (("live", Mode.FULL), ("belief", Mode.FULL)),
    (("live-no-shape", Mode.NO_SHAPE),),
    (("live-no-depth", Mode.NO_DEPTH),),
)


def sweep():
    """Yield (vision, detector, run, scene, outcome, reason, sha256) per run."""
    for visions in GROUPS:
        yield from _sweep(visions)


def _sweep(visions):
    vocab = Vocabulary.from_yaml(os.path.join(DATA, "vocabulary.yaml"))
    lib = load_library(os.path.join(DATA, "library.yaml"), vocab)
    predicates = {p.name: p for e in lib.entries for p in e.domain.predicates.values()}
    scene_dir = os.path.join(DATA, "scenes")
    scene_names = sorted(f[: -len(".yaml")] for f in os.listdir(scene_dir) if f.endswith(".yaml"))
    seen: dict[str, int] = {}
    for chain in lib.chains:
        idx = seen[chain.task_id] = seen.get(chain.task_id, -1) + 1
        goals = [lib.entry(n).goal_state for n in chain.goals]
        for scene_name in scene_names:
            for vision_name, mode in visions:
                for det_name, detector in DETECTORS.items():
                    cfg = MonitorConfig(seed=0, mode=mode, detector=detector)
                    scene = load_scene(os.path.join(scene_dir, f"{scene_name}.yaml"))
                    if vision_name != "belief":
                        vision = LiveVision(scene, cfg)
                    else:
                        objects = {o.label: vocab.terms[o.label].sort for o in scene.objects}
                        candidates = candidate_atoms(objects, predicates.values(), vocab)
                        vision = BeliefVision(scene, candidates)
                    trace = run_task(
                        chain.task_id,
                        scene,
                        lib,
                        None,
                        SimActuator(scene, vocab, seed=cfg.seed),
                        cfg,
                        terminal=goals[-1],
                        vision=vision,
                        goal_source=ScriptedGoalSource(goals),
                    )
                    digest = hashlib.sha256("\n".join(trace_lines(trace)).encode()).hexdigest()
                    yield (
                        vision_name,
                        det_name,
                        f"{chain.task_id}#{idx}",
                        scene_name,
                        trace.outcome.status,
                        trace.outcome.reason or "-",
                        digest,
                    )


if __name__ == "__main__":
    for row in sweep():
        print("\t".join(row), flush=True)
