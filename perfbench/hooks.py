"""Attribute patching, per-call interval clocks and span tracing.

Everything here acts from outside the package: functions are replaced in
the module (or class) namespaces that hold them and put back afterwards,
so the package itself never changes.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np


class Patcher:
    """Replaces attributes of modules or classes and restores the originals,
    newest first, so stacked patches of one attribute unwind correctly."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class IntervalClock:
    """Interval between consecutive ticks of one key, one clock read per tick.

    The clock is the process's CPU time, and each interval is kept as its
    start and end timestamps, so that it can be converted to reference time
    afterwards (see ``calibrate``). ``reset`` forgets the previous tick of
    every key, so the first tick after it (the first step of an episode or
    of a training run) records nothing.
    """

    def __init__(self, clock=time.process_time_ns):
        self.clock = clock
        self.starts: dict[str, array] = {}
        self.ends: dict[str, array] = {}
        self._last: dict[str, int] = {}

    def reset(self) -> None:
        self._last.clear()

    def tick(self, key: str) -> None:
        now = self.clock()
        last = self._last.get(key)
        self._last[key] = now
        if last is not None:
            self.starts.setdefault(key, array("q")).append(last)
            self.ends.setdefault(key, array("q")).append(now)

    def us(self, key: str, convert=None) -> np.ndarray:
        """The intervals of `key` in µs, after mapping their timestamps
        through `convert` when it is given."""
        starts = np.asarray(self.starts.get(key, ()), dtype=np.float64)
        ends = np.asarray(self.ends.get(key, ()), dtype=np.float64)
        if convert is not None:
            starts, ends = convert(starts), convert(ends)
        return (ends - starts) / 1e3


# --- span tracing -------------------------------------------------------------

def public_callables(modules) -> dict:
    """Every public function defined in one of `modules`, and every public
    method of a class defined there, mapped to its span name
    ``<module>.<function>`` or ``<module>.<Class>.<method>``; keys are the
    function objects, or (class, method name) pairs for methods."""
    found = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found[obj] = f"{short}.{name}"
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found[(obj, meth)] = f"{short}.{name}.{meth}"
    return found


class Tracer:
    """Records one span per call into every public function of the given
    modules: its name, start and end (ns), parent span and step id.

    A step ends when a boundary function returns, or when ``mark`` switches
    the label; each ended step stores the label current at its end, so
    spans can be grouped by phase (a rollout mode, a training stage).
    Spans stay in memory until ``spans`` is read. While ``recording`` is
    off the wrappers stay in place but record nothing.
    """

    def __init__(self, modules, boundaries=()):
        self.modules = list(modules)
        self.boundaries = set(boundaries)
        self.names: list[str] = []
        self.label = ""
        self.step = 0
        self.step_labels: list[str] = []
        self.recording = True
        self._name_ids = array("i")
        self._starts = array("q")
        self._ends = array("q")
        self._parents = array("i")
        self._steps = array("i")
        self._stack: list[int] = []

    def end_step(self) -> None:
        self.step_labels.append(self.label)
        self.step += 1

    def mark(self, label: str) -> None:
        """End the current step and label the steps that follow."""
        self.end_step()
        self.label = label

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        name_ids, starts, ends = self._name_ids, self._starts, self._ends
        parents, steps, stack = self._parents, self._steps, self._stack
        clock = time.perf_counter_ns
        boundary = name in self.boundaries

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            steps.append(self.step)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if boundary:
                    self.end_step()

        return traced

    def install(self, patcher: Patcher) -> list[str]:
        """Wrap every public callable in each namespace that references it.
        Returns the span names installed."""
        targets = public_callables(self.modules)
        wrapped = {}
        for key, name in targets.items():
            if isinstance(key, tuple):
                cls, meth = key
                patcher.set(cls, meth, self.wrap(vars(cls)[meth], name))
            else:
                wrapped[key] = self.wrap(key, name)
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    patcher.set(mod, attr, wrapped[obj])
        return sorted(targets.values())

    def spans(self) -> dict[str, np.ndarray]:
        """Recorded spans as columns; ``label`` is the label of each span's
        step (the current label for a step still open)."""
        labels = self.step_labels + [self.label]
        label_ids = {lab: i for i, lab in enumerate(sorted(set(labels)))}
        step_label = np.array([label_ids[lab] for lab in labels], dtype=np.int64)
        steps = np.array(self._steps, dtype=np.int32)
        return {
            "name": np.array(self._name_ids, dtype=np.int32),
            "start": np.array(self._starts, dtype=np.int64),
            "end": np.array(self._ends, dtype=np.int64),
            "parent": np.array(self._parents, dtype=np.int32),
            "step": steps,
            "label": step_label[steps] if steps.size else steps,
            "names": np.array(self.names),
            "labels": np.array(sorted(label_ids, key=label_ids.get)),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the summed duration of its direct children.

    Calls nest strictly on one thread, so children never overlap and their
    durations add up to the part of the parent's interval they cover.
    """
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    return dur - child.astype(np.int64)


def summarize_spans(spans: dict, labels) -> dict[str, dict]:
    """Calls, summed self time and summed inclusive time (ns) per span name,
    over the spans whose step label is one of `labels`."""
    keep_ids = [i for i, lab in enumerate(spans["labels"]) if lab in set(labels)]
    mask = np.isin(spans["label"], keep_ids)
    selfs = self_times(spans["start"], spans["end"], spans["parent"])[mask]
    dur = (spans["end"] - spans["start"])[mask]
    names = spans["name"][mask]
    n = len(spans["names"])
    calls = np.bincount(names, minlength=n)
    self_ns = np.bincount(names, weights=selfs, minlength=n)
    incl_ns = np.bincount(names, weights=dur, minlength=n)
    return {str(spans["names"][i]): {"calls": int(calls[i]),
                                     "self_ns": float(self_ns[i]),
                                     "incl_ns": float(incl_ns[i])}
            for i in range(n) if calls[i]}


def span_overhead_us(calls: int = 20_000, samples: int = 5) -> float:
    """µs a traced call adds over the bare call, measured on a no-op: the
    bias each child span adds to its parent's self time."""

    def noop():
        return None

    traced = Tracer(()).wrap(noop, "noop")

    def per_call_ns(fn) -> float:
        runs = []
        for _ in range(samples):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            runs.append((time.perf_counter_ns() - t0) / calls)
        return sorted(runs)[samples // 2]

    return (per_call_ns(traced) - per_call_ns(noop)) / 1e3
