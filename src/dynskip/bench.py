"""Benchmark harness: base-policy behaviour cloning, mode evaluation with
compute accounting, the random-skip compute-matching baseline, and report
assembly with a trace-level consistency cross-check.

The report holds compute as executed-layer counts and FLOP estimates, a
proxy for cost. Wall-clock time, per step and per layer, is measured by the
`perfbench` benchmark in calibrated CPU time, not here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import containers, flops, runtime as rt, sim
from .errors import ConfigError, TraceIntegrityError
from .model import (PolicyConfig, PolicyModel, TaskWorkspace, build_policy, forward_recorded,
                    mse_and_grad, task_loss_and_grads)
from .numerics import Adam
from .runtime import Episode, GuidanceConfig, SkipModules

REPORT_HEADER_COMMENT = (
    "# compute is reported as executed-layer counts and FLOP estimates, a proxy; "
    "wall-clock time per step and per layer is measured by perfbench"
)

# task-seed namespaces per pipeline stage, relative to the master seed
TRAIN_SEED_OFFSET = 100_000
VAL_SEED_OFFSET = 200_000
EVAL_SEED_OFFSET = 300_000

logger = logging.getLogger(__name__)


# --- base-policy training --------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    steps: int = 20_000
    batch_size: int = 128
    lr: float = 3e-3
    lr_floor_frac: float = 0.1   # cosine decay floor as a fraction of lr
    val_every: int = 500
    seed: int = 1

    def __post_init__(self):
        containers.check_int_fields(self, steps=1, batch_size=1, val_every=1)
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if not 0.0 < self.lr_floor_frac <= 1.0:
            raise ConfigError("lr_floor_frac must be in (0, 1]")


def validation_mse(model: PolicyModel, dataset: sim.Dataset) -> float:
    pred, _ = forward_recorded(model, dataset.obs, dataset.instr_onehot())
    return mse_and_grad(pred, dataset.actions)[0]


def train_base_policy(model_config: PolicyConfig, train_config: TrainConfig,
                      train_set: sim.Dataset, val_set: sim.Dataset):
    """Behaviour-clone the policy on expert rows with Adam and cosine decay.

    Returns (model, log rows); each log row is (step, train_loss, val_mse)
    with a step-0 row recording the pre-training validation MSE. Every step
    runs through one TaskWorkspace, so once its arrays have been touched a
    step allocates nothing of batch size.
    """
    model = build_policy(model_config)
    obs, instr, actions = train_set.obs, train_set.instr_onehot(), train_set.actions
    workspace = TaskWorkspace(model, train_config.batch_size)
    opt = Adam(lr=train_config.lr)
    rng = np.random.default_rng(train_config.seed)
    log = [(0, float("nan"), validation_mse(model, val_set))]
    floor = train_config.lr_floor_frac
    for step in range(1, train_config.steps + 1):
        opt.lr = train_config.lr * (
            0.5 * (1 + np.cos(np.pi * step / train_config.steps)) * (1 - floor) + floor)
        idx = rng.integers(0, len(train_set), train_config.batch_size)
        loss, grads = task_loss_and_grads(model, obs[idx], instr[idx], actions[idx],
                                          workspace=workspace)
        opt.step(model.params, grads)
        if step % train_config.val_every == 0 or step == train_config.steps:
            log.append((step, loss, validation_mse(model, val_set)))
    return model, log


def write_train_log(path, log) -> None:
    """The step-0 row has no training loss and leaves its cell empty."""
    containers.write_csv(path, ["step", "train_loss", "val_mse"],
                         ((step, None if np.isnan(loss) else loss, val)
                          for step, loss, val in log))


# --- mode evaluation ---------------------------------------------------------------

@dataclass
class ModeStats:
    mode: str
    episodes: int
    avg_successful_length: float
    success_rate: float
    avg_executed_layers: float
    avg_flops: float
    controller_evals_per_step: float
    verify_rate: float
    random_skip_prob: float | None = None

    @property
    def random_skip_full_depth(self) -> bool | None:
        """True when the random-skip row ran at probability 0, that is at full
        depth, because dysl cost no less (see match_random_skip_prob); None
        on the rows of the other modes."""
        return None if self.random_skip_prob is None else self.random_skip_prob == 0.0


def summarize_episodes(mode: str, episodes: list[Episode],
                       random_skip_prob: float | None = None) -> ModeStats:
    layers, flop_counts, ctrl, verify = [], [], [], []
    for ep in episodes:
        for rec in ep.steps:
            layers.append(len(rec.trace.executed_layers))
            flop_counts.append(rec.trace.flops)
            ctrl.append(len(rec.trace.controllers_evaluated))
            verify.append(rec.trace.verified)
    return ModeStats(
        mode=mode,
        episodes=len(episodes),
        avg_successful_length=float(np.mean([ep.success_length for ep in episodes])),
        success_rate=float(np.mean([ep.success for ep in episodes])),
        avg_executed_layers=float(np.mean(layers)),
        avg_flops=float(np.mean(flop_counts)),
        controller_evals_per_step=float(np.mean(ctrl)),
        verify_rate=float(np.mean(verify)),
        random_skip_prob=random_skip_prob,
    )


def expected_random_flops(costs: flops.ArchCosts, static_set, p: float) -> float:
    """Closed-form expected per-step FLOPs of the random-skip walk with
    i.i.d. skip probability p (skipping jumps over the segment remainder)."""
    total = costs.embed + costs.head + len(static_set.indices) * costs.block
    for front, back in static_set.segments:
        m = back - front - 1
        survive = 1.0
        expected_exec = 0.0
        for _ in range(m):
            survive *= (1.0 - p)
            expected_exec += survive
        total += expected_exec * costs.block
        total += (1.0 - survive) * costs.adapter
    return total


def match_random_skip_prob(costs: flops.ArchCosts, static_set,
                           target_flops: float) -> float:
    """Bisection for the skip probability whose expected per-step cost
    matches the target (e.g. the measured dysl average). Logs a warning when
    the target is at or above full-depth cost, where p = 0 makes the
    random-skip baseline run at full depth."""
    lo, hi = 0.0, 1.0
    full = expected_random_flops(costs, static_set, 0.0)
    if full <= target_flops:
        logger.warning("match_random_skip_prob: target %r FLOPs is not below the "
                       "full-depth %r; random-skip runs at full depth", target_flops, full)
        return 0.0
    if expected_random_flops(costs, static_set, 1.0) >= target_flops:
        return 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if expected_random_flops(costs, static_set, mid) > target_flops:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def evaluate_modes(model: PolicyModel, mods: SkipModules | None, sim_config,
                   guidance: GuidanceConfig, modes, n_episodes: int,
                   base_seed: int, out_dir=None):
    """Run n_episodes per mode on shared task seeds.

    Returns (stats rows in requested order, episodes per mode). When
    random-skip is requested, its probability is calibrated to match the
    dysl mode's measured average FLOPs, so dysl episodes are computed first.
    """
    for mode in modes:
        if mode not in rt.MODES:
            raise ConfigError(f"unknown mode {mode!r}")
    if n_episodes < 1:
        raise ConfigError("n_episodes must be >= 1")
    costs = flops.arch_costs(model.config)
    tasks = [sim.sample_task_sequence(base_seed + i, sim_config)
             for i in range(n_episodes)]
    episodes: dict[str, list[Episode]] = {}
    skip_prob = None

    def run_mode(mode: str) -> list[Episode]:
        out = []
        for i, task in enumerate(tasks):
            rng = np.random.default_rng([base_seed, i]) if mode == "random-skip" else None
            out.append(rt.rollout_episode(
                task, model, mods, mode, guidance, rng=rng,
                random_skip_prob=skip_prob or 0.0))
        return out

    ordered = list(modes)
    if "random-skip" in ordered:
        episodes["dysl"] = run_mode("dysl")
        dysl_flops = summarize_episodes("dysl", episodes["dysl"]).avg_flops
        skip_prob = match_random_skip_prob(costs, mods.static_set, dysl_flops)
    for mode in ordered:
        if mode not in episodes:
            episodes[mode] = run_mode(mode)

    stats = [summarize_episodes(m, episodes[m],
                                skip_prob if m == "random-skip" else None)
             for m in ordered]
    if out_dir is not None:
        out_dir = Path(out_dir)
        for mode in ordered:
            for i, ep in enumerate(episodes[mode]):
                rt.write_episode_trace(out_dir / "traces" / mode / f"ep_{i:04d}.jsonl", ep)
    return stats, episodes


REPORT_FIELDS = ["mode", "avg_successful_length", "success_rate",
                 "avg_executed_layers", "avg_flops", "controller_evals_per_step",
                 "verify_rate", "episodes", "random_skip_prob", "random_skip_full_depth"]


def write_report_csv(path, stats: list[ModeStats]) -> None:
    containers.write_csv(path, REPORT_FIELDS,
                         ([getattr(s, name) for name in REPORT_FIELDS] for s in stats),
                         comment=REPORT_HEADER_COMMENT)


def cross_check_report(out_dir, report_path, model_config: PolicyConfig) -> None:
    """Verify that every reported avg_flops equals the mean of per-step
    costs re-derived from the dumped traces. TraceIntegrityError on any
    mismatch, and on a malformed record, naming its file, number and field."""
    costs = flops.arch_costs(model_config)
    out_dir = Path(out_dir)
    for row in containers.read_csv(report_path):
        mode = row["mode"]
        trace_dir = out_dir / "traces" / mode
        files = sorted(trace_dir.glob("ep_*.jsonl"))
        if not files:
            raise TraceIntegrityError(f"no trace dumps for mode {mode!r}")
        step_costs = []
        for f in files:
            _, records = rt.read_episode_trace(f)
            for n, rec in enumerate(records, 1):
                where = f"{f.name}: step record {n}"
                if "flops" not in rec:
                    raise TraceIntegrityError(f"{where}: no 'flops'")
                try:
                    recomputed = flops.flop_estimate_record(costs, rec)
                except TraceIntegrityError as err:
                    raise TraceIntegrityError(f"{where}: {err}") from None
                if recomputed != rec["flops"]:
                    raise TraceIntegrityError(
                        f"{where}: stored flops {rec['flops']} != recomputed {recomputed}")
                step_costs.append(recomputed)
        mean = float(np.mean(step_costs))
        reported = float(row["avg_flops"])
        if abs(mean - reported) > 1e-6 * max(1.0, abs(reported)):
            raise TraceIntegrityError(
                f"mode {mode!r}: reported avg_flops {reported} != trace mean {mean}")


# --- paired significance test -------------------------------------------------------

def paired_one_sided_pvalue(better, worse, n_resamples: int = 10_000,
                            seed: int = 0) -> float:
    """Sign-flip permutation p-value for H1: mean(better - worse) > 0."""
    d = np.asarray(better, dtype=np.float64) - np.asarray(worse, dtype=np.float64)
    if d.size == 0:
        raise ConfigError("paired test needs at least one pair")
    observed = d.mean()
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(n_resamples, d.size))
    null = (signs * d).mean(axis=1)
    exceed = int(np.sum(null >= observed))
    return (exceed + 1) / (n_resamples + 1)

