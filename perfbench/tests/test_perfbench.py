"""Tests of the benchmark itself: the interval clock, span arithmetic,
attribute patching, and a tiny-budget run of both workloads."""

import dataclasses
import json
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import micro
from perfbench.calibrate import REF_NS, Calibrator
from perfbench.hooks import IntervalClock, Patcher, Tracer, self_times, summarize_spans
from perfbench.workloads import (
    LAYERS, MODES, Budget, Probe, run_workload, span_metrics)

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
TINY = Budget(train_episodes=3, val_episodes=2, bc_steps=60, stage1_steps=60,
              stage2_steps=60, loss_tail=5, chunk_episodes=1,
              setup_repeats=2, setup_seconds=0.0,
              reference_sets=((("dysl",), 2), (("controllers-only",), 1),
                              (("full", "random-skip"), 1)))


# --- clocks -------------------------------------------------------------------

def test_interval_clock_skips_the_first_tick_after_reset():
    ticks = iter([0, 10, 30, 100, 150, 210, 5])
    clock = IntervalClock(clock=lambda: next(ticks))
    clock.tick("a")    # t=0: first tick records nothing
    clock.tick("a")    # 10
    clock.tick("a")    # 20
    clock.reset()
    clock.tick("a")    # t=100: first after reset
    clock.tick("a")    # 50
    clock.tick("b")    # t=210: first tick of b
    assert clock.us("a").tolist() == [0.01, 0.02, 0.05]
    assert clock.us("a", convert=lambda t: 2 * t).tolist() == [0.02, 0.04, 0.1]
    assert clock.us("b").size == 0


def test_reference_time_scales_each_gap_by_its_kernels_and_drops_them():
    ticks = iter([0, 100, 200,          # measure 1: step kernel 100, batch 100
                  1200, 1400, 1600,     # measure 2: step kernel 200, batch 200
                  3600, 3800, 4000])    # measure 3: step kernel 200, batch 200
    cal = Calibrator(clock=lambda: next(ticks))
    for _ in range(3):
        cal.measure()
    ref = REF_NS["step"]
    to_ref = cal.to_reference("step")
    # 1000 ns between measures 1 and 2 at mean kernel time 150, 2000 ns at 200
    assert to_ref([200, 1200, 1600, 3600]).tolist() == pytest.approx(
        [0, 1000 * ref / 150, 1000 * ref / 150, 1000 * ref / 150 + 2000 * ref / 200])
    assert to_ref([1300])[0] == pytest.approx(1000 * ref / 150)   # inside a kernel
    with pytest.raises(ValueError):
        to_ref([4001])


# --- spans ------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    #   root 0..100 ├─ a 10..40 ── c 15..25
    #               └─ b 50..70
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 70]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [50, 20, 10, 20]


def _toy_module():
    mod = types.ModuleType("toy")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    def step(x):
        return mod.outer(x)

    for fn in (leaf, outer, step):
        fn.__module__ = "toy"
        setattr(mod, fn.__name__, fn)
    return mod


def test_tracer_nests_spans_counts_steps_and_restores():
    mod = _toy_module()
    original = dict(vars(mod))
    tracer = Tracer([mod], boundaries=("toy.step",))
    with Patcher() as patcher:
        assert tracer.install(patcher) == ["toy.leaf", "toy.outer", "toy.step"]
        tracer.mark("run")
        assert [mod.step(i) for i in range(3)] == [2, 4, 6]
        tracer.mark("idle")
        assert mod.leaf(1) == 2
    assert vars(mod) == original
    spans = tracer.spans()
    names = spans["names"][spans["name"]].tolist()
    assert names == ["toy.step", "toy.outer", "toy.leaf"] * 3 + ["toy.leaf"]
    assert spans["parent"].tolist() == [-1, 0, 1, -1, 3, 4, -1, 6, 7, -1]
    # one step per boundary call; mark() closes the open step
    assert len(set(spans["step"][:9].tolist())) == 3
    run = summarize_spans(spans, ["run"])
    assert {k: v["calls"] for k, v in run.items()} == {
        "toy.step": 3, "toy.outer": 3, "toy.leaf": 3}
    assert summarize_spans(spans, ["idle"])["toy.leaf"]["calls"] == 1
    selfs = self_times(spans["start"], spans["end"], spans["parent"])
    assert np.all(selfs >= 0)
    assert run["toy.step"]["incl_ns"] >= run["toy.outer"]["incl_ns"]


def _snapshot():
    snap = {}
    for mod in LAYERS:
        for name, obj in vars(mod).items():
            snap[(mod.__name__, name)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    snap[(mod.__name__, name, meth)] = fn
    return snap


def test_install_and_restore_leave_every_attribute_as_it_was():
    from dynskip import model, numerics, runtime
    before = _snapshot()
    block_forward, adam_step = model.block_forward, numerics.Adam.step
    tracer = Tracer(LAYERS, boundaries=("sim.env_step",))
    with Patcher() as patcher:
        installed = tracer.install(patcher)
        Probe(tracer).install(patcher)
        assert "numerics.Adam.step" in installed
        assert model.block_forward is not block_forward
        assert runtime.block_forward is model.block_forward
        assert numerics.Adam.step is not adam_step
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


# --- tiny runs of both workloads ------------------------------------------------------

def _names(section):
    return [m["name"] for m in SPEC[section]]


@pytest.mark.parametrize("workload", ["eval-modes", "train"])
def test_tiny_run_prints_every_end_to_end_metric_and_passes_its_checks(workload, tmp_path):
    res = run_workload(workload, seed=3, seconds=0.01, work_dir=tmp_path / "a", budget=TINY)
    assert sorted(res.metrics) == sorted(_names("end_to_end"))
    assert all(res.checks.values()), res.checks
    assert res.failed == 0 and res.attempted > 0
    assert all(v > 0 for v in res.metrics.values())
    again = run_workload(workload, seed=3, seconds=0.01, work_dir=tmp_path / "b", budget=TINY)
    assert again.info["reference_trace_digests"] == res.info["reference_trace_digests"]
    assert set(res.info["reference_trace_digests"]) == set(MODES)


def test_tiny_traced_run_matches_untraced_and_yields_per_layer_metrics(tmp_path):
    budget = dataclasses.replace(TINY, setup_repeats=1)
    plain = run_workload("eval-modes", 5, 0.01, tmp_path / "a", budget)
    tracer = Tracer(LAYERS, boundaries=("sim.env_step", "numerics.Adam.step"))
    traced = run_workload("eval-modes", 5, 0.01, tmp_path / "b", budget, tracer)
    assert traced.info["reference_trace_digests"] == plain.info["reference_trace_digests"]
    assert traced.info["fixture_digest"] == plain.info["fixture_digest"]
    metrics, missing = span_metrics(tracer.spans())
    assert missing == []
    metrics.update(traced.counters)
    metrics.update(micro.component_latency(0, samples=1, sample_ns=10_000))
    trace_meta = {n for n in _names("per_layer") if n.startswith("trace.")}
    assert sorted(metrics) == sorted(set(_names("per_layer")) - trace_meta)
    assert metrics["model.block_forward.calls_per_step.full"] == 12
