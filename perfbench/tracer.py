"""Spans around taskmon's public functions, for the traced run.

`Tracer.install` replaces module and class attributes where the program
looks them up with wrappers that record one span per call: a name, start
and end in nanoseconds, the enclosing span and the task id. monitor,
actuator and perception bind some names at import, so those names are
wrapped in the importing module as well. Spans stay in flat arrays in memory
and are written out once, at the end. Ray casts are only counted, and in a
pass of their own: a live pass makes about nine million of them, and even a
bare counter around each one adds half again to the pass.

`layer_metrics` turns the spans into the per-layer figures of BENCHMARK.json:
calls, busy time and, for layers with wrapped children, self time.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Optional

import numpy as np

from taskmon import (
    actuator,
    autodiff,
    dataset,
    geometry,
    language,
    monitor,
    pddl,
    perception,
    planning,
    predictor,
)


def _targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped lookup site."""
    return [
        (monitor, "run_task", "monitor.run_task"),
        (monitor, "step", "monitor.step"),
        (monitor.LiveVision, "query", "monitor.LiveVision.query"),
        (monitor.LiveVision, "scan", "monitor.LiveVision.scan"),
        (monitor.BeliefVision, "__init__", "monitor.BeliefVision.init"),
        (monitor, "query_vision", "perception.query_vision"),
        (monitor, "perceive", "perception.perceive"),
        (perception, "perceive", "perception.perceive"),
        (perception, "estimate_depth", "perception.estimate_depth"),
        (monitor, "ground_relation", "perception.ground_relation"),
        (perception, "ground_relation", "perception.ground_relation"),
        (actuator, "ground_relation", "perception.ground_relation"),
        (monitor, "solve", "planning.solve"),
        (planning, "ground_actions", "planning.ground_actions"),
        (monitor, "match_plan", "planning.match_plan"),
        (actuator.SimActuator, "execute", "actuator.SimActuator.execute"),
        (monitor, "infer_topk", "predictor.infer_topk"),
        (predictor, "infer_topk", "predictor.infer_topk"),
        (predictor, "beam_decode", "predictor.beam_decode"),
        (predictor, "train", "predictor.train"),
        (autodiff, "lstm_step", "autodiff.lstm_step"),
        (autodiff.Tensor, "backward", "autodiff.Tensor.backward"),
        (dataset, "grow_dataset", "dataset.grow_dataset"),
        (pddl, "load_library", "pddl.load_library"),
        (language.Vocabulary, "from_yaml", "language.Vocabulary.from_yaml"),
        (geometry, "load_scene", "geometry.load_scene"),
    ]


class Tracer:
    """One in-memory span store. Install, run, uninstall, then read."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.task_of = array("i")
        self.raised: dict[int, str] = {}  # span index -> exception class name
        self.counts: Counter = Counter()
        self.task = 0  # set by the runner around each monitored task
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, post: Optional[Callable] = None) -> Callable:
        nid = self._id(name)
        names, starts, ends, parents, tasks = self.name, self.start, self.end, self.parent, self.task_of
        stack, raised = self._stack, self.raised

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            tasks.append(self.task)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                raised[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if post is not None:
                post(out)
            return out

        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _refused(self, result) -> None:
        if not result.ok:
            self.counts["actuator.refused"] += 1

    def install(self) -> None:
        """Wrap every target in a span."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        posts = {"actuator.SimActuator.execute": self._refused}
        for owner, attr, name in _targets():
            raw = inspect.getattr_static(owner, attr)
            fn = getattr(owner, attr)
            wrapped = self.wrap(name, fn, posts.get(name))
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def install_ray_counter(self) -> None:
        """Count the ray casts of estimate_depth, which looks ray_box up in
        perception."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._undo.append((perception, "ray_box", perception.ray_box))
        perception.ray_box = self._counted("geometry.ray_box.calls", perception.ray_box)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task_of, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        a = self.arrays()
        raised = np.array(sorted(self.raised), dtype=np.int64)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            raised_span=raised,
            raised_type=np.array([self.raised[i] for i in raised], dtype=str),
            **a,
        )

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy ms, self ms, and the calls and busy ms
        of spans that raised NoPlan."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]) / 1e6
        parent = a["parent"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        dead = np.zeros(len(dur), dtype=bool)
        for idx, kind in self.raised.items():
            dead[idx] = kind == "NoPlan"
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {
                "calls": float(sel.sum()),
                "ms": float(dur[sel].sum()),
                "self_ms": float(own[sel].sum()),
                "dead_ends": float((sel & dead).sum()),
                "dead_end_ms": float(dur[sel & dead].sum()),
            }
        return out


# Per-layer metrics: (metric, unit). A metric named <layer>.<field> is read
# from the span totals of <layer>; the others are filled in by name.
PASS_LAYERS = [
    ("perception.query_vision", ("calls", "ms", "self_ms")),
    ("perception.perceive", ("calls", "ms")),
    ("perception.estimate_depth", ("calls", "ms")),
    ("perception.ground_relation", ("calls", "ms")),
    ("monitor.LiveVision.query", ("calls", "ms", "self_ms")),
    ("monitor.LiveVision.scan", ("calls", "ms", "self_ms")),
    ("monitor.BeliefVision.init", ("calls", "ms", "self_ms")),
    ("monitor.step", ("calls", "ms", "self_ms")),
    ("monitor.run_task", ("calls", "ms", "self_ms")),
    ("planning.solve", ("calls", "ms", "self_ms", "dead_ends", "dead_end_ms")),
    ("planning.ground_actions", ("calls", "ms")),
    ("planning.match_plan", ("calls", "ms")),
    ("actuator.SimActuator.execute", ("calls", "ms", "self_ms")),
    ("predictor.infer_topk", ("calls", "ms", "self_ms")),
    ("predictor.beam_decode", ("calls", "ms", "self_ms")),
    ("predictor.train", ("calls", "ms", "self_ms")),
    ("autodiff.lstm_step", ("calls", "ms")),
    ("autodiff.Tensor.backward", ("calls", "ms")),
]
SETUP_LAYERS = [
    ("dataset.grow_dataset", ("ms",)),
    ("pddl.load_library", ("ms",)),
    ("language.Vocabulary.from_yaml", ("ms",)),
    ("geometry.load_scene", ("ms",)),
]
EXTRA_METRICS = [
    ("geometry.ray_box.calls", "count"),
    ("actuator.refused", "count"),
    ("predictor.train.ms_per_epoch", "ms"),
    ("predictor.train.pairs_per_s", "pairs/s"),
    ("predictor.infer_topk.ms_p50", "ms"),
    ("monitor.run_task.ms_p90", "ms"),
    ("trace.overhead_pct", "%"),
]
_UNIT = {"calls": "count", "dead_ends": "count", "ms": "ms", "self_ms": "ms", "dead_end_ms": "ms"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    out = {
        f"{layer}.{field}": _UNIT[field]
        for layer, fields in PASS_LAYERS + SETUP_LAYERS
        for field in fields
    }
    out.update(EXTRA_METRICS)
    return out


def layer_metrics(
    passes: "Tracer", n_passes: int, pass_scale: float,
    setups: "Tracer", n_setups: int, setup_scale: float,
    rays_per_pass: float, extra: dict[str, float],
) -> dict[str, float]:
    """Span totals per pass (per set-up round for the loaders), times
    multiplied by the phase's speed scale, plus the counts and the figures
    `extra` supplies. A layer the workload never calls reads 0."""
    values: dict[str, float] = {}
    phases = ((passes, PASS_LAYERS, n_passes, pass_scale), (setups, SETUP_LAYERS, n_setups, setup_scale))
    for tracer, layers, n, scale in phases:
        totals = tracer.layer_totals()
        for layer, fields in layers:
            got = totals.get(layer, {})
            for field in fields:
                unit_scale = scale if _UNIT[field] == "ms" else 1.0
                values[f"{layer}.{field}"] = got.get(field, 0.0) / n * unit_scale
    values["geometry.ray_box.calls"] = rays_per_pass
    values["actuator.refused"] = passes.counts["actuator.refused"] / n_passes
    values.update(extra)
    missing = set(metric_units()) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return values
