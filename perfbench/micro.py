"""Component micro-benchmark: µs per call of each policy and skip-module
layer at several batch sizes, on an untrained policy (weights do not change
the cost). Batch 1 is a single vector, as in the control loop."""

from __future__ import annotations

import time

import numpy as np

from dynskip import model, profiler, runtime

BATCHES = (1, 16, 64, 256)
SAMPLES = 15
SAMPLE_NS = 2_000_000  # each sample repeats the call for about this long


def time_call(fn, samples: int = SAMPLES, sample_ns: int = SAMPLE_NS) -> float:
    """Median over `samples` of the mean CPU µs per call in a tight loop."""
    t0 = time.process_time_ns()
    fn()
    once = max(time.process_time_ns() - t0, 1)
    reps = max(1, sample_ns // once)
    per_call = []
    for _ in range(samples):
        t0 = time.process_time_ns()
        for _ in range(reps):
            fn()
        per_call.append((time.process_time_ns() - t0) / reps / 1e3)
    return float(np.median(per_call))


def component_latency(seed: int, samples: int = SAMPLES, sample_ns: int = SAMPLE_NS) -> dict:
    cfg = model.PolicyConfig(instr_dim=2)
    policy = model.build_policy(cfg)
    static_set = profiler.StaticSet(indices=(0, 3, 7, cfg.depth - 1), depth=cfg.depth)
    mods = runtime.init_skip_modules(policy, static_set)
    rng = np.random.default_rng(seed)
    out = {}
    for b in BATCHES:
        obs, instr, x = (rng.standard_normal(n if b == 1 else (b, n))
                         for n in (cfg.obs_dim, cfg.instr_dim, cfg.hidden_dim))
        calls = (
            (model, "embed_forward", (policy, obs, instr)),
            (model, "block_forward", (policy, 1, x)),
            (model, "head_forward", (policy, x)),
            (runtime, "adapter_forward", (mods, 1, x)),
            (runtime, "controller_forward", (mods, 1, x)),
        )
        for module, name, args in calls:
            fn = getattr(module, name, None)
            if fn is None:  # removed from the package: the metric is reported missing
                continue
            label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}.us.b{b}"
            out[label] = time_call(lambda: fn(*args), samples, sample_ns)
    return out
