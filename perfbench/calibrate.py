"""How fast the machine runs at each moment, from two fixed reference kernels.

On a shared virtual machine the processor's speed changes with what the
other guests do. The same code here ran at half speed for stretches from a
tenth of a second to minutes, in CPU time as much as in wall-clock time,
so no statistic taken inside one run removes it. A kernel of fixed work,
timed between units of the measured work, slows down with it. The benchmark
therefore reports *reference time*: CPU time scaled, piece by piece, by
``REF_NS[kind]`` over the kernel's time measured at both ends of the piece.
When the machine runs at the speed the constants were taken at, reference
time equals CPU time.

There are two kernels because work of different kinds slows differently.
``step`` is batch-1 work like a control step: a small residual MLP on one
vector, with Python float arithmetic between the layers. ``batch`` is work
like an optimizer step: a forward and backward pass at batch 128. Measured
over two minutes of heavy interference, a rollout episode's CPU time moved
by a factor of two, while its ratio to the ``step`` kernel stayed within 8%.
A block of BC steps against the ``batch`` kernel stayed within 2%. The
kernels live in the benchmark, so a change to the package cannot change
them.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

_rng = np.random.default_rng(0)
_W = [_rng.standard_normal((64, 64)) / 8 for _ in range(4)]
_X1 = np.ones(64)
_XB = _rng.standard_normal((128, 64))


def step_kernel(reps: int = 20) -> float:
    y, acc = _X1, 0.0
    for _ in range(reps):
        for w in _W:
            y = y + np.maximum(w @ y, 0.0) * 0.1
        acc += float(y[0]) * 0.5 + sum(float(v) for v in y[:8])
    return acc


def batch_kernel(reps: int = 2) -> float:
    acc = 0.0
    for _ in range(reps):
        y, hidden = _XB, []
        for w in _W:
            h = np.maximum(y @ w, 0.0)
            hidden.append(h)
            y = y + 0.1 * h
        g = y
        for w, h in zip(_W[::-1], hidden[::-1]):
            acc += float((h.T @ g).sum())
            g = g + 0.1 * ((g * (h > 0)) @ w.T)
    return acc


KERNELS = {"step": step_kernel, "batch": batch_kernel}
# Each kernel's CPU time on an undisturbed 2-vCPU Intel Xeon virtual machine
# (numpy 2.4, OpenBLAS 0.3.31 on one thread): the speed reference time is
# expressed at.
REF_NS = {"step": 340_000, "batch": 810_000}


class Calibrator:
    """Times both kernels at each ``measure`` call and turns raw CPU
    timestamps taken between the first and the last call into reference
    time."""

    def __init__(self, clock=time.process_time_ns):
        self.clock = clock
        self.starts = array("q")
        self.ends = array("q")
        self.durations = {kind: array("q") for kind in KERNELS}

    def measure(self) -> None:
        t0 = self.clock()
        self.starts.append(t0)
        for kind, kernel in KERNELS.items():
            kernel()
            t1 = self.clock()
            self.durations[kind].append(t1 - t0)
            t0 = t1
        self.ends.append(t0)

    def to_reference(self, kind: str):
        """Function from raw timestamps (ns) to reference time (ns) of
        `kind`. Between two measurements time runs at ``REF_NS[kind]`` over
        the mean kernel time of the two; the kernels' own time maps to
        nothing."""
        starts = np.asarray(self.starts, dtype=np.float64)
        ends = np.asarray(self.ends, dtype=np.float64)
        if starts.size < 2:
            raise ValueError("reference time needs at least two measurements")
        kernel = np.asarray(self.durations[kind], dtype=np.float64)
        rate = REF_NS[kind] / ((kernel[:-1] + kernel[1:]) / 2)
        at_start = np.concatenate([[0.0], np.cumsum((starts[1:] - ends[:-1]) * rate)])
        xs = np.column_stack([starts, ends]).ravel()
        ys = np.repeat(at_start, 2)

        def convert(t):
            t = np.asarray(t, dtype=np.float64)
            if t.size and (t.min() < xs[0] or t.max() > xs[-1]):
                raise ValueError("timestamp outside the calibrated span")
            return np.interp(t, xs, ys)

        return convert
