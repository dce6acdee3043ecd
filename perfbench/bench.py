"""The measured loop: set-up rounds, a warm-up, whole passes, checks.

Every workload is a closed loop with one client: one task runs at a time and
the next starts when it ends. A pass runs every case of the workload once, in
an order drawn from the seed. learn_deploy first trains the tier's net once,
untimed; each of its passes then times one training epoch over a slice of
the training set, a proposal on every held-out state, and the deployment of
the tier's net on every case. A run repeats whole passes until --seconds
have gone by, so every run attempts whole rounds of the same operations.

Only the work itself is timed: a task's clock covers the construction of
its vision seam and the run_task call. Scene copies, garbage collection, the
speed probe and the output checks happen between the timed spans.

Times are scaled to a nominal machine speed. The machine this benchmark was
built on is a 2-vCPU guest whose host runs other guests: its speed drifts by
up to a third over minutes, and the drift moves every Python workload alike.
After each timed span the run times `probe`, a fixed piece of pure Python
that shares no code with taskmon, once per PROBE_EVERY_S of the span, and
every time it reports is multiplied by PROBE_NOMINAL_MS over the median
probe time of its phase: the set-up rounds, the untraced passes or the
traced passes. A program change moves the figures; a change of machine
speed moves the probe as well and cancels out.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import checks, inputs, tracer as tracing
from taskmon import actuator, monitor, predictor
from taskmon.perception import Thresholds

END_TO_END = {"setup_s": "s", "task_ms_p50": "ms", "tasks_per_s": "1/s"}
SETUP_ROUNDS = 11
OUT_DIR = Path(__file__).resolve().parent / "out"

# The probe's median time on the reference machine at a quiet moment.
PROBE_NOMINAL_MS = 2.0
# One probe per this much timed work, and at least one per timed span.
PROBE_EVERY_S = 0.1
_PERMUTATION = list(range(256))
random.Random(0x9B0BE).shuffle(_PERMUTATION)


def probe() -> int:
    """The fixed speed probe, about 2 ms: a walk through a permutation table
    with dict stores. Every int in it is a cached small int, so it allocates
    nothing and reads the interpreter's speed, not the state of the heap."""
    acc = 0
    table = _PERMUTATION
    seen = {}
    for _ in range(110):
        for i in range(256):
            acc = table[acc ^ i]
            seen[i] = acc
    return acc


def time_probes(into: list[float], after_s: float = 0.0) -> None:
    for _ in range(1 + int(after_s / PROBE_EVERY_S)):
        t0 = perf_counter()
        probe()
        into.append((perf_counter() - t0) * 1e3)


def _scale(probes: list[float]) -> float:
    return PROBE_NOMINAL_MS / statistics.median(probes)


class Runner:
    """Runs whole passes of one workload and keeps what they measured."""

    def __init__(self, inp: inputs.Inputs, net=None, tracer: tracing.Tracer | None = None):
        self.inp = inp
        self.net = net  # learn_deploy: the tier's trained net
        self.tracer = tracer
        self.cfg = monitor.MonitorConfig(seed=inp.seed)
        self.thresholds = Thresholds()
        self._order = np.random.default_rng([inp.seed, 0x0D3E])
        self.task_ms: list[float] = []
        self.propose_ms: list[float] = []
        self.train_s: list[float] = []
        self.probe_ms: list[float] = []
        self.pass_rates: list[float] = []  # monitored tasks per second of timed work
        self.work_s = 0.0
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outcomes: Counter = Counter()
        self._task_id = 0

    def _timed(self, dt: float) -> None:
        self.work_s += dt
        self.attempted += 1
        time_probes(self.probe_ms, dt)

    def run_case(self, case: inputs.Case) -> None:
        inp = self.inp
        scene = case.scene.copy()
        act = actuator.SimActuator(scene, inp.vocab, seed=inp.seed, disturbances=case.disturbances)
        source = None if self.net is not None else inp.oracles[case.task_id]
        self._task_id += 1
        gc.collect()
        if self.tracer is not None:
            self.tracer.task = self._task_id
        t0 = perf_counter()
        if inp.workload == "live_recover":
            vision = monitor.LiveVision(scene, self.cfg)
        else:
            vision = monitor.BeliefVision(scene, inp.candidates)
        trace = monitor.run_task(
            case.task_id,
            scene,
            inp.lib,
            self.net,
            act,
            self.cfg,
            terminal=case.terminal,
            start=inp.start,
            vision=vision,
            goal_source=source,
        )
        dt = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.task = 0
        self.task_ms.append(dt * 1e3)
        self._timed(dt)
        self._judge(case, trace, scene)

    def _judge(self, case: inputs.Case, trace, scene) -> None:
        out = trace.outcome
        self.outcomes[(case.name, out.status, out.reason)] += 1
        found = checks.trace_shape(trace)
        if out.ok:
            found += checks.false_terminal_atoms(scene, case.terminal, self.thresholds)
        else:
            self.failed += 1
            if out.reason != case.known_failure:
                found.append(f"unexpected failure {out.reason!r}")
        self.problems += [f"{case.name}: {p}" for p in found]

    def train_slice(self) -> None:
        inp, tier = self.inp, inputs.TIER
        hyper = {"batch": tier.batch, "epochs": 1, "lr": tier.lr}
        gc.collect()
        t0 = perf_counter()
        predictor.train(inp.train_pairs[: tier.slice_pairs], inp.vocab, hyper, seed=tier.train_seed)
        dt = perf_counter() - t0
        self.train_s.append(dt)
        self._timed(dt)

    def propose_heldout(self) -> None:
        inp, k = self.inp, inputs.TIER.k
        for pair in inp.heldout:
            gc.collect()
            t0 = perf_counter()
            try:
                props = predictor.infer_topk(pair.task, pair.state, self.net, inp.vocab, k)
            except predictor.NoValidProposal:
                props = []
            dt = perf_counter() - t0
            self.propose_ms.append(dt * 1e3)
            self._timed(dt)
            if not props:
                self.failed += 1
                self.problems.append(f"held-out {pair.task.id}: no valid proposal")
            else:
                self.problems += checks.proposal_problems(props, inp.vocab, k)

    def one_pass(self) -> None:
        work0, tasks0 = self.work_s, len(self.task_ms)
        if self.net is not None:
            self.train_slice()
            self.propose_heldout()
        cases = self.inp.cases
        for i in self._order.permutation(len(cases)):
            self.run_case(cases[int(i)])
        self.pass_rates.append((len(self.task_ms) - tasks0) / (self.work_s - work0))
        self.passes += 1

    def run(self, seconds: float) -> None:
        t0 = perf_counter()
        while True:
            self.one_pass()
            if perf_counter() - t0 >= seconds:
                return


def fit(inp: inputs.Inputs):
    """Train the tier's net: the net learn_deploy deploys and checks."""
    tier = inputs.TIER
    hyper = {"batch": tier.batch, "epochs": tier.epochs, "lr": tier.lr}
    return predictor.train(inp.train_pairs, inp.vocab, hyper, seed=tier.train_seed)


def warm_up(inp: inputs.Inputs, net) -> None:
    """Untimed, unchecked: each code path of the workload once. A full
    live_recover pass takes about 20 s and would double a run, so live_recover
    warms up on one task."""
    r = Runner(inp, net)
    if inp.workload == "live_recover":
        r.run_case(next(c for c in inp.cases if c.task_id == "find_object"))
    else:
        r.one_pass()


def learning_problems(inp: inputs.Inputs, net, history: list[float]) -> list[str]:
    """The checks on the tier's net: falling loss, gradients against finite
    differences, and top-1 accuracy on the chain steps."""
    errors = predictor.grad_check(net, inp.train_pairs[0], min_samples=44)
    out = checks.training_problems(history, errors)

    def top(task, s):
        try:
            return predictor.infer_topk(task, s, net, inp.vocab, inputs.TIER.k)
        except predictor.NoValidProposal:
            return []

    best = checks.best_chain_accuracy(inp.chain_steps)
    hits = checks.chain_accuracy(inp.chain_steps, top)
    if not checks.ACCURACY_FLOOR <= hits <= best:
        out.append(
            f"top-1 on {hits} of {len(inp.chain_steps)} chain steps, "
            f"floor {checks.ACCURACY_FLOOR}, best {best}"
        )
    print(
        f"learn_deploy: loss {history[0]:.4f} -> {history[-1]:.4f}, "
        f"grad_check max {max(errors.values()):.3g}, top-1 {hits}/{len(inp.chain_steps)} (best {best})"
    )
    return out


def _traced_metrics(inp, net, plain, traced, pass_tracer, scale, setup_scale, setup_tracer, runs):
    """Turn the traced passes' spans into the per-layer metrics. The
    percentile and throughput figures come from the untraced passes."""
    totals = pass_tracer.layer_totals()
    rays_per_pass = 0.0
    if totals.get("perception.estimate_depth", {}).get("calls"):
        # one more, untimed pass to count the ray casts of depth estimation
        rays = tracing.Tracer()
        counted = Runner(inp, net)
        rays.install_ray_counter()
        try:
            counted.run(0.0)
        finally:
            rays.uninstall()
        runs.append(counted)
        rays_per_pass = rays.counts["geometry.ray_box.calls"] / counted.passes

    traced_scale = _scale(traced.probe_ms)
    train = totals.get("predictor.train", {})
    tier = inputs.TIER
    extra = {
        "predictor.train.ms_per_epoch": train.get("ms", 0.0) / max(train.get("calls", 0.0), 1.0) * traced_scale,
        "predictor.train.pairs_per_s": (
            tier.slice_pairs / statistics.median(plain.train_s) / scale if plain.train_s else 0.0
        ),
        "predictor.infer_topk.ms_p50": statistics.median(plain.propose_ms) * scale if plain.propose_ms else 0.0,
        "monitor.run_task.ms_p90": statistics.quantiles(plain.task_ms, n=10, method="inclusive")[-1] * scale,
        # each traced pass ran right after an untraced one: compare the pairs
        "trace.overhead_pct": 100.0 * (
            statistics.median(p / t for p, t in zip(plain.pass_rates, traced.pass_rates)) - 1.0
        ),
    }
    stem = OUT_DIR / f"spans-{inp.workload}-seed{inp.seed}"
    OUT_DIR.mkdir(exist_ok=True)
    pass_tracer.save(f"{stem}-passes.npz")
    setup_tracer.save(f"{stem}-setup.npz")
    print(
        f"{inp.workload}: {len(pass_tracer)} spans in {traced.passes} traced passes, "
        f"written to {stem.relative_to(OUT_DIR.parent.parent)}-*.npz"
    )
    return tracing.layer_metrics(
        pass_tracer, traced.passes, traced_scale, setup_tracer, SETUP_ROUNDS, setup_scale, rays_per_pass, extra
    )


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setup_tracer = tracing.Tracer()
    if trace:
        setup_tracer.install()
    setup_s, setup_probes = [], []
    inp = None
    try:
        for _ in range(SETUP_ROUNDS):
            inp = None  # the previous round's inputs are garbage before the next is timed
            gc.collect()
            t0 = perf_counter()
            inp = inputs.setup(workload, seed)
            setup_s.append(perf_counter() - t0)
            time_probes(setup_probes, setup_s[-1])
    finally:
        setup_tracer.uninstall()

    net, history = fit(inp) if workload == "learn_deploy" else (None, [])
    warm_up(inp, net)
    gc.collect()
    gc.freeze()

    plain = Runner(inp, net)
    runs = [plain]
    if trace:
        pass_tracer = tracing.Tracer()
        traced = Runner(inp, net, pass_tracer)
        runs.append(traced)
        # untraced and traced passes in turn, so both meet the same machine;
        # half the run length, since every round runs two passes
        t0 = perf_counter()
        while True:
            plain.one_pass()
            pass_tracer.install()
            try:
                traced.one_pass()
            finally:
                pass_tracer.uninstall()
            if perf_counter() - t0 >= seconds / 2:
                break
    else:
        plain.run(seconds)
    scale = _scale(plain.probe_ms)
    setup_scale = _scale(setup_probes)
    raw = {
        "setup_s": statistics.median(setup_s),
        "task_ms_p50": statistics.median(plain.task_ms),
        "tasks_per_s": statistics.median(plain.pass_rates),
    }
    if trace:
        values = _traced_metrics(
            inp, net, plain, traced, pass_tracer, scale, setup_scale, setup_tracer, runs
        )
        units = tracing.metric_units()
    else:
        values = {
            "setup_s": raw["setup_s"] * setup_scale,
            "task_ms_p50": raw["task_ms_p50"] * scale,
            "tasks_per_s": raw["tasks_per_s"] / scale,
        }
        units = END_TO_END

    problems = [p for r in runs for p in r.problems]
    if workload == "learn_deploy":
        problems += learning_problems(inp, net, history)

    print(
        f"{workload}: probe median {PROBE_NOMINAL_MS / scale:.4f} ms, scale {scale:.4f}, "
        f"set-up scale {setup_scale:.4f}; unscaled "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
    )
    for (name, status, reason), n in sorted(plain.outcomes.items()):
        print(f"{workload}: {name} {status}{' ' + reason if reason else ''} x{n}")
    print(f"{workload}: {plain.passes} passes, {plain.attempted} operations, {plain.failed} failed")
    for p in sorted(set(problems)):
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0
