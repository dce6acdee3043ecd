"""Trace sweep: every packaged task chain on every distinct packaged world.

Runs each chain of the packaged library, its goals scripted in order, on
the named stagings of `stagings.py`: every chain on `base` and on the four
`alt:<task>` stagings, and each pick-up task's chains on its own
`moved:<task>` staging, 13 x 5 + 12 = 77 runs. Each runs seven ways:
LiveVision in the FULL, NO_SHAPE and NO_DEPTH perception modes (vision
`live`, `live-no-shape`, `live-no-depth`), each with a zero-noise and a
noisy detector, and BeliefVision once, with detector `-`, since it draws
nothing: 77 x 7 = 539 runs. Prints one tab-separated line per run:
vision, detector, task#chain, staging, outcome, reason and the SHA-256 of
the run's `trace_lines`. Comparing the output of two checkouts shows which
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

from conftest import load_packaged_lib
from stagings import ALT_SUPPORT, SCENES, run_chain
from taskmon.monitor import MonitorConfig, trace_lines
from taskmon.perception import DetectorModel, Mode

NOISY = DetectorModel(tp_rate=0.95, confusion=0.05, px_jitter=1.0, depth_sigma=0.02)

# (vision, mode, detector name, detector) per run of a chain on a staging,
# in output order
RUNS = (
    *(
        (vision, mode, det_name, detector)
        for vision, mode in (("live", Mode.FULL), ("live-no-shape", Mode.NO_SHAPE), ("live-no-depth", Mode.NO_DEPTH))
        for det_name, detector in (("zero-noise", DetectorModel()), ("noisy", NOISY))
    ),
    ("belief", Mode.FULL, "-", DetectorModel()),
)


def sweep():
    """Yield (vision, detector, run, staging, outcome, reason, sha256) per run."""
    lib = load_packaged_lib()
    seen: dict[str, int] = {}
    for chain in lib.chains:
        idx = seen[chain.task_id] = seen.get(chain.task_id, -1) + 1
        moved = (f"moved:{chain.task_id}",) if chain.task_id in ALT_SUPPORT else ()
        for staging_name in (*SCENES, *moved):
            for vision_name, mode, det_name, detector in RUNS:
                cfg = MonitorConfig(seed=0, mode=mode, detector=detector)
                trace = run_chain(lib, chain, staging_name, cfg, "belief" if vision_name == "belief" else "live")
                digest = hashlib.sha256("\n".join(trace_lines(trace)).encode()).hexdigest()
                yield (
                    vision_name,
                    det_name,
                    f"{chain.task_id}#{idx}",
                    staging_name,
                    trace.outcome.status,
                    trace.outcome.reason or "-",
                    digest,
                )


if __name__ == "__main__":
    for row in sweep():
        print("\t".join(row), flush=True)
