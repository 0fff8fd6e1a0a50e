"""The benchmark's two workloads and the checks on their outputs.

``eval-modes`` sets up a small trained fixture (expert datasets, BC policy,
static set, distilled skip modules) and then measures closed-loop
evaluation of every runtime mode. ``train`` sets up only the expert datasets
and measures the training pipeline that builds the fixture for half the
run, then evaluates what it trained for the other half. Both print every
end-to-end metric; each stresses a different part of the package.

The workload seed draws the evaluation task chains. The training inputs
(the expert datasets) come from a fixed fixture seed and the training seeds
stay at the package defaults: at this budget the learned skip behaviour
depends so strongly on the training data that no run-to-run bound could hold
on the metrics it touches. Over five dataset seeds the static set changed
every time, the dysl verify rate ranged from 0.28 to 0.99 and dysl FLOPs per
step from 139k to 296k.
"""

from __future__ import annotations

import functools
import hashlib
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dynskip import bench, containers, distill, flops, model, numerics, profiler, runtime, sim

from .calibrate import Calibrator
from .hooks import IntervalClock, Patcher, Tracer, summarize_spans

LAYERS = (sim, model, numerics, runtime, flops, profiler, distill, bench, containers)
MODES = runtime.MODES
WORKLOADS = ("eval-modes", "train")
TRAIN_LABELS = ("bc", "profile", "distill")
# the reference kernel each phase's time is converted with; rollouts are "step"
PHASE_KIND = {"dataset": "step", "bc": "batch", "profile": "batch", "distill": "batch",
              "reference": "step"}
CALIBRATE_EVERY = 20  # optimizer steps between two calibrations


@dataclass(frozen=True)
class Budget:
    """Fixed sizes of one run's work; only the workload seed varies."""

    fixture_seed: int = 0        # draws the expert datasets
    subtasks: int = 2
    train_episodes: int = 30
    val_episodes: int = 8
    bc_steps: int = 600
    bc_batch: int = 128
    static_ratio: float = 0.3
    stage1_steps: int = 150
    stage2_steps: int = 200
    distill_batch: int = 64
    chunk_episodes: int = 4      # tasks per chunk; each chunk runs every mode
    train_share: float = 0.5     # train workload: share of the run spent training,
                                 # the rest evaluating what it trained
    # fixed task chains per mode for FLOPs, action deviation and trace digests.
    # dysl leaves its verification loop in about 8% of episodes and then
    # deviates; the first 32 reference tasks hold none of those, 48 hold four.
    reference_sets: tuple = ((("dysl",), 48), (("controllers-only",), 16),
                             (("full", "random-skip"), 4))
    setup_repeats: int = 3       # setup_s is the median of at least this many
    setup_seconds: float = 1.0   # ... set-ups, repeated for at least this long
    loss_tail: int = 50          # stage-2 steps averaged for distill_task_loss


def derive_seed(seed: int, stream: int) -> int:
    """Independent 31-bit base seed per input stream of one workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0] >> 1)


def digest_bytes(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def params_digest(params: dict) -> str:
    return digest_bytes(name.encode() + np.ascontiguousarray(params[name]).tobytes()
                        for name in sorted(params))


# --- instrumentation every run carries ------------------------------------------

class Probe:
    """The untraced run's only hooks: one clock read per control step (the
    interval between consecutive ``sim.env_step`` calls of one episode,
    keyed by the mode taken from ``runtime.rollout_episode``) and per
    optimizer step, a finiteness check of every training loss, and a
    calibration before every phase, every episode and every
    CALIBRATE_EVERY optimizer steps."""

    def __init__(self, tracer: Tracer | None = None):
        self.clock = IntervalClock()
        self.calibrator = Calibrator(self.clock.clock)
        self.phases: list[tuple[int, str]] = []   # (start timestamp, kernel kind)
        self.tracer = tracer
        self.mode: str | None = None
        self.active = True
        self.train_steps = 0
        self.train_failed = 0
        self._convert = {}

    def phase(self, label: str) -> None:
        """Start a phase outside the rollouts (dataset, bc, check, ...)."""
        self._start(label, PHASE_KIND.get(label, "step"))
        self.mode = None

    def _start(self, label: str, kind: str) -> None:
        self.calibrator.measure()
        self.phases.append((self.clock.clock(), kind))
        self.clock.reset()
        if self.tracer is not None:
            self.tracer.mark(label)

    def to_reference(self, kind: str):
        """Raw timestamps to reference time of `kind`; call after the run."""
        if kind not in self._convert:
            self._convert[kind] = self.calibrator.to_reference(kind)
        return self._convert[kind]

    def reference_ns(self, t0: int, t1: int) -> float:
        """Reference time from raw t0 to t1, each phase converted with its
        own kernel."""
        total = 0.0
        bounds = [t for t, _ in self.phases[1:]] + [math.inf]
        for (start, kind), end in zip(self.phases, bounds):
            a, b = max(start, t0), min(end, t1)
            if a < b:
                total += float(np.diff(self.to_reference(kind)([a, b]))[0])
        return total

    def install(self, patcher: Patcher) -> None:
        rollout_episode = runtime.rollout_episode
        env_step = sim.env_step

        @functools.wraps(rollout_episode)
        def timed_rollout(task, model_, mods, mode, *args, **kwargs):
            if not self.active:
                return rollout_episode(task, model_, mods, mode, *args, **kwargs)
            self._start(mode, "step")
            self.mode = mode
            return rollout_episode(task, model_, mods, mode, *args, **kwargs)

        @functools.wraps(env_step)
        def timed_env_step(*args, **kwargs):
            if self.mode is not None:
                self.clock.tick(self.mode)
            return env_step(*args, **kwargs)

        patcher.set(runtime, "rollout_episode", timed_rollout)
        patcher.set(sim, "env_step", timed_env_step)
        self._time_steps(patcher, bench, "task_loss_and_grads", "bc")
        self._time_steps(patcher, distill, "stage1_step", "stage1")
        self._time_steps(patcher, distill, "stage2_step", "stage2")

    def _time_steps(self, patcher: Patcher, module, name: str, key: str) -> None:
        fn = getattr(module, name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self.train_steps % CALIBRATE_EVERY == 0:
                self.calibrator.measure()
            self.clock.tick(key)
            self.train_steps += 1
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.train_failed += 1
                raise
            loss = out[0] if isinstance(out, tuple) else out
            if not math.isfinite(loss):
                self.train_failed += 1
            return out

        patcher.set(module, name, timed)


# --- the training pipeline --------------------------------------------------------

@dataclass
class Datasets:
    sim_config: sim.SimConfig
    train: sim.Dataset
    val: sim.Dataset

    def digest(self) -> str:
        return digest_bytes(np.ascontiguousarray(a).tobytes() for a in (
            self.train.obs, self.train.instr, self.train.actions,
            self.val.obs, self.val.instr, self.val.actions))


@dataclass
class Fixture:
    datasets: Datasets
    policy: model.PolicyModel
    mods: runtime.SkipModules
    bc_log: list
    reports: dict

    def digest(self) -> str:
        return params_digest({**{"p." + k: v for k, v in self.policy.params.items()},
                              **{"m." + k: v for k, v in self.mods.params.items()}})


def make_datasets(budget: Budget, probe: Probe) -> Datasets:
    probe.phase("dataset")
    cfg = sim.SimConfig(subtasks=budget.subtasks)
    train = sim.generate_dataset(cfg, budget.train_episodes,
                                 derive_seed(budget.fixture_seed, 1))
    val = sim.generate_dataset(cfg, budget.val_episodes,
                               derive_seed(budget.fixture_seed, 2))
    return Datasets(cfg, train, val)


def train_fixture(data: Datasets, budget: Budget, probe: Probe) -> Fixture:
    """BC, static-set selection with the zero-shot ablation, then two-stage
    distillation, all at the package's default training seeds."""
    probe.phase("bc")
    policy_cfg = model.PolicyConfig(instr_dim=budget.subtasks)
    train_cfg = bench.TrainConfig(steps=budget.bc_steps, batch_size=budget.bc_batch,
                                  val_every=budget.bc_steps)
    policy, log = bench.train_base_policy(policy_cfg, train_cfg, data.train, data.val)
    probe.phase("profile")
    instr = data.train.instr_onehot()
    layer_profile = profiler.profile_layers(policy, data.train.obs, instr)
    static_set = profiler.select_static(layer_profile, budget.static_ratio)
    profiler.zero_shot_sensitivity(policy, data.val.obs, data.val.instr_onehot(),
                                   data.val.actions)
    probe.phase("distill")
    distill_cfg = distill.DistillConfig(stage1_steps=budget.stage1_steps,
                                        stage2_steps=budget.stage2_steps,
                                        batch_size=budget.distill_batch)
    mods, reports = distill.distill_pipeline(policy, static_set, data.train, distill_cfg)
    return Fixture(data, policy, mods, log, reports)


# --- closed-loop evaluation ---------------------------------------------------------

@dataclass
class EvalLog:
    """Running totals over the measured chunks. Episodes are not kept, so
    the heap (and the collector's work) does not grow during the run."""

    chunk_times: list = field(default_factory=list)  # CPU (start, end) of each chunk
    chunk_wall_ns: list = field(default_factory=list)
    chunk_steps: int = 0
    skip_probs: list = field(default_factory=list)
    chunk_digests: set = field(default_factory=set)
    steps: dict = field(default_factory=lambda: dict.fromkeys(MODES, 0))
    episodes: dict = field(default_factory=lambda: dict.fromkeys(MODES, 0))
    successes: dict = field(default_factory=lambda: dict.fromkeys(MODES, 0))
    verified: int = 0            # dysl steps re-run at full depth
    verify_repeats: int = 0      # ... that follow a verified step
    controllers: int = 0         # gate checks in dysl and controllers-only
    adapters: int = 0            # ... that skipped
    trace_bytes: int = 0
    trace_files: int = 0
    attempted: int = 0
    failed: int = 0

    def add(self, episodes: dict) -> None:
        for mode in MODES:
            for ep in episodes[mode]:
                self.steps[mode] += ep.n_steps
                self.episodes[mode] += 1
                self.successes[mode] += ep.success
                self.failed += ep.diverged
        for ep in episodes["dysl"]:
            flags = [rec.trace.verified for rec in ep.steps]
            self.verified += sum(flags)
            self.verify_repeats += sum(a and b for a, b in zip(flags, flags[1:]))
        for mode in ("dysl", "controllers-only"):
            for ep in episodes[mode]:
                for rec in ep.steps:
                    self.controllers += len(rec.trace.controllers_evaluated)
                    self.adapters += len(rec.trace.adapters_invoked)


def evaluate(fixture: Fixture, modes, n_episodes: int, base_seed: int, out_dir: Path):
    """Modes on shared task seeds with the trace dump, then the report CSV
    and its cross-check, which re-derives every step's FLOPs."""
    stats, episodes = bench.evaluate_modes(
        fixture.policy, fixture.mods, fixture.datasets.sim_config,
        runtime.GuidanceConfig(), modes, n_episodes, base_seed, out_dir=out_dir)
    report = out_dir / "report.csv"
    bench.write_report_csv(report, stats)
    bench.cross_check_report(out_dir, report, fixture.policy.config)
    return stats, episodes


def run_chunk(fixture: Fixture, seed: int, index: int, budget: Budget,
              out_dir: Path, log: EvalLog, probe: Probe) -> None:
    """One measured chunk: all modes on the seed's task chains. Every chunk
    repeats the same tasks, so chunks differ only by machine noise, and the
    modes interleave chunk by chunk so that noise hits them alike."""
    n = budget.chunk_episodes
    chunk_dir = out_dir / f"chunk_{index:04d}"
    log.attempted += n * len(MODES)
    t0, w0 = probe.clock.clock(), time.perf_counter_ns()
    try:
        stats, episodes = evaluate(fixture, MODES, n, derive_seed(seed, 3), chunk_dir)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        log.failed += n * len(MODES)
        return
    log.chunk_times.append((t0, probe.clock.clock()))
    log.chunk_wall_ns.append(time.perf_counter_ns() - w0)
    log.chunk_steps = sum(ep.n_steps for eps in episodes.values() for ep in eps)
    log.skip_probs.append(next(s.random_skip_prob for s in stats if s.mode == "random-skip"))
    log.add(episodes)
    files = sorted(chunk_dir.glob("traces/*/*.jsonl"))
    log.trace_files += len(files)
    log.trace_bytes += sum(f.stat().st_size for f in files)
    log.chunk_digests.add(digest_bytes(f.read_bytes() for f in files))
    shutil.rmtree(chunk_dir)


def replay_deviation(fixture: Fixture, episodes) -> tuple[float, bool]:
    """RMS distance between the recorded actions and full-depth actions on
    the visited states, rebuilt by replaying the actions through the sim;
    also whether every replay reproduced its episode's score."""
    cfg = fixture.datasets.sim_config
    n_instr = fixture.policy.config.instr_dim
    obs_rows, instr_rows, acted = [], [], []
    consistent = True
    for ep in episodes:
        task = sim.sample_task_sequence(ep.task_seed, cfg)
        state = sim.reset_state(task)
        events = []
        for action in ep.actions:
            obs, instr_id = sim.observe(task, state)
            obs_rows.append(obs)
            instr_rows.append(sim.instr_onehot(instr_id, n_instr))
            state, evs = sim.env_step(task, state, action)
            events.extend((state.total_steps - 1, ev) for ev in evs)
        acted.extend(ep.actions)
        consistent &= sim.score_rollout(task, events)[0] == ep.success_length
    full, _ = model.forward_recorded(fixture.policy, np.array(obs_rows), np.array(instr_rows))
    dist2 = np.sum((np.array(acted) - full) ** 2, axis=1)
    return float(np.sqrt(np.mean(dist2))), consistent


@dataclass
class Reference:
    """The fixed reference evaluation: the fixture on task chains drawn from
    the fixture seed, so what it measures repeats exactly from run to run."""

    episodes: dict
    digests: dict
    failed: int


def reference_evaluation(fixture: Fixture, budget: Budget, out_dir: Path) -> Reference:
    base_seed = derive_seed(budget.fixture_seed, 3)
    episodes, digests = {}, {}
    for i, (modes, n) in enumerate(budget.reference_sets):
        run_dir = out_dir / f"set_{i}"
        _, eps = evaluate(fixture, modes, n, base_seed, run_dir)
        for mode in modes:
            episodes[mode] = eps[mode]
            digests[mode] = digest_bytes(f.read_bytes() for f in
                                         sorted((run_dir / "traces" / mode).glob("*.jsonl")))
    shutil.rmtree(out_dir)
    failed = sum(ep.diverged for eps in episodes.values() for ep in eps)
    return Reference(episodes, digests, failed)


# --- one run --------------------------------------------------------------------------

@dataclass
class RunResult:
    metrics: dict            # end-to-end metric name -> value
    counters: dict           # per-layer figures of this run's measurement
    info: dict
    attempted: int
    failed: int
    checks: dict             # check name -> passed


def training_metrics(probe: Probe, fixture: Fixture, budget: Budget) -> dict:
    """BC and distillation step rates from the median interval between
    consecutive optimizer steps, and the trained fixture's losses."""
    to_ref = probe.to_reference("batch")
    bc, s1, s2 = (np.median(probe.clock.us(key, to_ref)) for key in ("bc", "stage1", "stage2"))
    n1, n2 = budget.stage1_steps, budget.stage2_steps
    task_losses = fixture.reports["stage2"].task_losses
    return {
        "bc_steps_per_s": 1e6 / bc,
        "distill_steps_per_s": 1e6 * (n1 + n2) / (n1 * s1 + n2 * s2),
        "bc_val_mse": float(fixture.bc_log[-1][2]),
        "distill_task_loss": float(np.mean(task_losses[-budget.loss_tail:])),
    }


def evaluation_metrics(probe: Probe, log: EvalLog) -> tuple[dict, dict]:
    """Steps per second of the median chunk (every chunk repeats the same
    work), and percentiles of each mode's control-loop period over all its
    steps, all in reference time. The 90th percentiles go with the
    per-layer figures."""
    to_ref = probe.to_reference("step")
    steps = log.chunk_steps
    chunk_ns = [float(np.diff(to_ref(t))[0]) for t in log.chunk_times]
    m = {"eval_steps_per_s": steps / np.median(chunk_ns) * 1e9}
    tails = {"wall.eval_steps_per_s": steps / np.median(log.chunk_wall_ns) * 1e9}
    for mode in MODES:
        us = probe.clock.us(mode, to_ref)
        m[f"step_us_p50.{mode}"] = float(np.median(us))
        if mode in ("full", "dysl"):
            tails[f"step_us_p90.{mode}"] = float(np.percentile(us, 90))
    return m, tails


def reference_metrics(fixture: Fixture, ref: Reference) -> tuple[dict, dict]:
    """FLOPs and action deviation on the reference evaluation, and whether
    every replay reproduced its episode."""
    m = {"flops_per_step.dysl": float(np.mean(
        [rec.trace.flops for ep in ref.episodes["dysl"] for rec in ep.steps]))}
    checks = {}
    for mode in ("full", "dysl", "controllers-only"):
        m[f"action_rmse.{mode}"], checks[f"replay_consistent.{mode}"] = replay_deviation(
            fixture, ref.episodes[mode])
    # batched and single-row forwards differ by rounding only
    checks["action_rmse.full<=1e-12"] = m.pop("action_rmse.full") <= 1e-12
    return m, checks


def episode_counters(log: EvalLog) -> dict:
    """Per-layer ratios read from the measured episodes' step traces."""
    probs = log.skip_probs
    return {
        "runtime.skip_yield": log.adapters / max(log.controllers, 1),
        "runtime.verify_rate": log.verified / max(log.steps["dysl"], 1),
        "runtime.verify_repeat_frac": log.verify_repeats / max(log.verified, 1),
        "bench.random_skip_prob": float(np.median(probs)),
        "bench.random_skip_prob_zero": sum(p == 0.0 for p in probs) / len(probs),
        "runtime.write_episode_trace.bytes": log.trace_bytes / max(log.trace_files, 1),
    }


def run_workload(workload: str, seed: int, seconds: float, work_dir: Path,
                 budget: Budget = Budget(), tracer: Tracer | None = None) -> RunResult:
    """Set up, measure for `seconds`, run the reference evaluation, then
    check the outputs. With a tracer, every public function of the package
    is traced for the whole run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    probe = Probe(tracer)
    log = EvalLog()
    checks = {}
    setup_times = []   # CPU (start, end) of each set-up
    with Patcher() as patcher:
        if tracer is not None:
            tracer.install(patcher)
        probe.install(patcher)

        # set-up: repeated and timed; every repeat must build identical inputs
        probe.phase("setup")
        digests = set()
        while (len(setup_times) < budget.setup_repeats
               or sum(b - a for a, b in setup_times) < budget.setup_seconds * 1e9):
            t0 = probe.clock.clock()
            data = make_datasets(budget, probe)
            built = train_fixture(data, budget, probe) if workload == "eval-modes" else data
            setup_times.append((t0, probe.clock.clock()))
            digests.add(built.digest())
        checks["setup_repeats_identical"] = len(digests) == 1

        # measured phase; its deadlines are wall-clock
        eval_seconds = seconds
        if workload == "eval-modes":
            fixture = built
        else:
            eval_seconds = seconds * (1.0 - budget.train_share)
            t_end = time.perf_counter() + seconds * budget.train_share
            digests = set()
            while not digests or time.perf_counter() < t_end:
                fixture = train_fixture(data, budget, probe)
                digests.add(fixture.digest())
            checks["train_rounds_identical"] = len(digests) == 1
        t_end = time.perf_counter() + eval_seconds
        index = 0
        while index == 0 or time.perf_counter() < t_end:
            run_chunk(fixture, seed, index, budget, work_dir / "eval", log, probe)
            index += 1

        # the reference evaluation runs through the wrappers (its trace
        # digests must match the untraced run's) but adds no spans or timings
        probe.phase("reference")
        probe.active = False
        if tracer is not None:
            tracer.recording = False
        ref = reference_evaluation(fixture, budget, work_dir / "reference")

    if not log.chunk_times:
        raise RuntimeError("every evaluation chunk failed")
    setup_s = [probe.reference_ns(a, b) / 1e9 for a, b in setup_times]
    metrics = {"setup_s": float(np.median(setup_s))}
    timing, tails = evaluation_metrics(probe, log)
    metrics.update(timing)
    metrics.update(training_metrics(probe, fixture, budget))
    quality, quality_checks = reference_metrics(fixture, ref)
    metrics.update(quality)
    checks.update(quality_checks)
    checks["metrics_finite"] = all(math.isfinite(v) for v in metrics.values())
    checks["chunk_traces_identical"] = len(log.chunk_digests) == 1
    counters = {**episode_counters(log), **tails}
    info = {
        "setup_s_each": setup_s,
        "chunks": len(log.chunk_times),
        "steps_per_mode": log.steps,
        "reference_trace_digests": ref.digests,
        "success_rate": {m: log.successes[m] / log.episodes[m] for m in MODES},
        "static_set": list(fixture.mods.static_set.indices),
        "fixture_digest": fixture.digest(),
    }
    if counters["bench.random_skip_prob_zero"]:
        info["warning"] = ("match_random_skip_prob returned 0 in "
                           f"{counters['bench.random_skip_prob_zero']:.0%} of chunks: "
                           "random-skip then runs at full depth")
    return RunResult(metrics=metrics, counters=counters, info=info,
                     attempted=log.attempted + probe.train_steps,
                     failed=log.failed + probe.train_failed + ref.failed, checks=checks)


# --- per-layer metrics from the traced run ------------------------------------------

# (metric, span name, "self" µs per call | "incl" µs per call | "s" incl. s per call)
EVAL_SPAN_METRICS = [
    ("model.embed_forward.us", "model.embed_forward", "self"),
    ("model.block_forward.us", "model.block_forward", "self"),
    ("model.head_forward.us", "model.head_forward", "self"),
    ("model.forward_recorded.us", "model.forward_recorded", "self"),
    ("model.forward_recorded.incl_us", "model.forward_recorded", "incl"),
    ("runtime.forward_skipped.us", "runtime.forward_skipped", "self"),
    ("runtime.forward_skipped.incl_us", "runtime.forward_skipped", "incl"),
    ("runtime.forward_random.us", "runtime.forward_random", "self"),
    ("runtime.forward_random.incl_us", "runtime.forward_random", "incl"),
    ("runtime.controller_forward.us", "runtime.controller_forward", "self"),
    ("runtime.adapter_forward.us", "runtime.adapter_forward", "self"),
    ("runtime.post_skip_verify.us", "runtime.post_skip_verify", "self"),
    ("runtime.post_skip_verify.incl_us", "runtime.post_skip_verify", "incl"),
    ("runtime.observe_action.us", "runtime.observe_action", "self"),
    ("runtime.update_allow_points.us", "runtime.update_allow_points", "self"),
    ("sim.env_step.us", "sim.env_step", "self"),
    ("sim.observe.us", "sim.observe", "self"),
    ("flops.flop_estimate.us", "flops.flop_estimate", "self"),
    ("runtime.write_episode_trace.s", "runtime.write_episode_trace", "s"),
    ("bench.cross_check_report.s", "bench.cross_check_report", "s"),
]
TRAIN_SPAN_METRICS = [
    ("model.task_loss_and_grads.us", "model.task_loss_and_grads", "self"),
    ("model.task_loss_and_grads.incl_us", "model.task_loss_and_grads", "incl"),
    ("numerics.Adam.step.us", "numerics.Adam.step", "self"),
    ("distill.stage1_step.us", "distill.stage1_step", "self"),
    ("distill.stage1_step.incl_us", "distill.stage1_step", "incl"),
    ("distill.stage2_blend_forward.us", "distill.stage2_blend_forward", "self"),
    ("distill.stage2_blend_forward.incl_us", "distill.stage2_blend_forward", "incl"),
    ("distill.stage2_loss_and_grads.us", "distill.stage2_loss_and_grads", "self"),
    ("distill.stage2_loss_and_grads.incl_us", "distill.stage2_loss_and_grads", "incl"),
    ("distill.stage2_step.us", "distill.stage2_step", "self"),
    ("distill.stage2_step.incl_us", "distill.stage2_step", "incl"),
    ("distill.estimate_skip_rate.s", "distill.estimate_skip_rate", "s"),
    ("profiler.profile_layers.s", "profiler.profile_layers", "s"),
    ("profiler.zero_shot_sensitivity.s", "profiler.zero_shot_sensitivity", "s"),
]
# per-step call counts over the rollouts of each mode, or of all modes
CALLS_PER_STEP = [
    *((f"model.block_forward.calls_per_step.{m}", "model.block_forward", (m,)) for m in MODES),
    ("model.forward_recorded.calls_per_step", "model.forward_recorded", MODES),
    ("runtime.controller_forward.calls_per_step", "runtime.controller_forward", MODES),
    ("runtime.adapter_forward.calls_per_step", "runtime.adapter_forward", MODES),
]


def span_metrics(spans: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced run's spans; a metric whose
    function no longer exists or was never called is listed as missing."""
    out, missing = {}, []
    scale = {"self": ("self_ns", 1e-3), "incl": ("incl_ns", 1e-3), "s": ("incl_ns", 1e-9)}
    for table, labels in ((EVAL_SPAN_METRICS, MODES), (TRAIN_SPAN_METRICS, TRAIN_LABELS)):
        summary = summarize_spans(spans, labels)
        for metric, span, kind in table:
            row = summary.get(span)
            if row is None:
                missing.append(metric)
                continue
            key, factor = scale[kind]
            out[metric] = row[key] * factor / row["calls"]
    for metric, span, labels in CALLS_PER_STEP:
        summary = summarize_spans(spans, labels)
        steps = summary.get("sim.env_step", {}).get("calls", 0)
        if span not in summary or not steps:
            missing.append(metric)
            continue
        out[metric] = summary[span]["calls"] / steps
    return out, missing
