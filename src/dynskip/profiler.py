"""Layer informativeness profiling, static-layer selection, zero-shot layer
ablation, and the weight-noise action-importance study.

Informativeness is read as low input/output activation similarity: layers
that change the hidden-state distribution the most hurt the most when
skipped, so those become the always-executed static set. The pairwise
similarity matrix is computed for reporting; selection uses the per-layer
input/output vector.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import containers, sim
from .errors import ConfigError, DegenerateInputError
from .model import PolicyModel, block_forward, forward_recorded, head_forward, mse_and_grad
from .numerics import MLP_PARTS

logger = logging.getLogger(__name__)


# --- static-layer set ---------------------------------------------------------

@dataclass(frozen=True)
class StaticSet:
    """Strictly increasing always-executed layer ids; the final block is
    always a member so every skip has a jump target. `segments` and
    `dynamic_layers` are computed on first use and kept; equality, hashing
    and repr still see only the two fields."""

    indices: tuple[int, ...]
    depth: int

    def __post_init__(self):
        if not self.indices:
            raise ConfigError("static set must be nonempty")
        if list(self.indices) != sorted(set(self.indices)):
            raise ConfigError("static indices must be strictly increasing")
        if self.indices[0] < 0 or self.indices[-1] >= self.depth:
            raise ConfigError("static index out of range")
        if self.indices[-1] != self.depth - 1:
            raise ConfigError("final block must be static")

    @functools.cached_property
    def segments(self) -> tuple[tuple[int, int], ...]:
        """(front, back) static pairs enclosing at least one dynamic layer;
        front is -1 for layers before the first static block."""
        segs = []
        front = -1
        for back in self.indices:
            if back - front > 1:
                segs.append((front, back))
            front = back
        return tuple(segs)

    @functools.cached_property
    def dynamic_layers(self) -> tuple[int, ...]:
        static = set(self.indices)
        return tuple(i for i in range(self.depth) if i not in static)

    def segment_layers(self, segment: tuple[int, int]) -> tuple[int, ...]:
        front, back = segment
        return tuple(range(front + 1, back))


# --- activation similarity profile --------------------------------------------

@dataclass
class LayerProfile:
    pair_similarity: np.ndarray  # (N, N) mean cosine over block outputs
    io_similarity: np.ndarray    # (N,) mean cosine between block input/output
    samples: int
    excluded: int = 0


def profile_layers(model: PolicyModel, obs: np.ndarray, instr: np.ndarray) -> LayerProfile:
    """Mean pairwise cosine similarity of block outputs plus the per-layer
    input/output similarity, over a dataset of inputs.

    Samples with any zero-norm activation are excluded from the means with a
    logged count; if everything is excluded the profile is degenerate.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    if obs.shape[0] == 0:
        raise DegenerateInputError("profile needs a nonempty dataset")
    instr = np.atleast_2d(np.asarray(instr, dtype=np.float64))
    _, trace = forward_recorded(model, obs, instr)
    stack = np.stack(trace)                      # (N+1, B, d)
    norms = np.linalg.norm(stack, axis=2)        # (N+1, B)
    valid = np.all(norms > 0.0, axis=0)          # (B,)
    excluded = int(np.sum(~valid))
    if excluded:
        logger.warning("profile_layers: excluded %d sample(s) with zero-norm activations",
                       excluded)
    if not np.any(valid):
        raise DegenerateInputError("all profile samples had zero-norm activations")
    unit = stack[:, valid, :] / norms[:, valid, None]
    n_blocks = model.config.depth
    outs = unit[1:]                              # block outputs
    pair = np.einsum("ibd,jbd->ij", outs, outs) / unit.shape[1]
    pair = 0.5 * (pair + pair.T)                 # enforce exact symmetry
    io = np.einsum("ibd,ibd->i", unit[:-1], unit[1:]) / unit.shape[1]
    assert pair.shape == (n_blocks, n_blocks)
    return LayerProfile(pair_similarity=pair, io_similarity=io,
                        samples=int(np.sum(valid)), excluded=excluded)


def select_static(profile: LayerProfile, ratio: float) -> StaticSet:
    """Pick the ceil(ratio * N) layers with the lowest input/output
    similarity (ties broken by lower index), then force in the final block."""
    if not 0.0 < ratio <= 1.0:
        raise ConfigError("static ratio must be in (0, 1]")
    n_blocks = profile.io_similarity.shape[0]
    n_pick = math.ceil(ratio * n_blocks)
    order = np.lexsort((np.arange(n_blocks), profile.io_similarity))
    chosen = sorted(set(order[:n_pick].tolist()) | {n_blocks - 1})
    return StaticSet(indices=tuple(int(i) for i in chosen), depth=n_blocks)


def write_profile_csv(io_path, pairs_path, profile: LayerProfile) -> None:
    containers.write_csv(io_path, ["layer", "io_similarity"],
                         enumerate(profile.io_similarity.tolist()))
    containers.write_csv(pairs_path, ["i", "j", "similarity"],
                         ((i, j, s) for i, row in enumerate(profile.pair_similarity.tolist())
                          for j, s in enumerate(row)))


# --- zero-shot layer sensitivity ----------------------------------------------

def zero_shot_sensitivity(model: PolicyModel, obs, instr, targets):
    """Task-MSE increase from replacing each block with the identity.

    Returns (baseline_mse, deltas) where deltas[i] is the metric change when
    only layer i is skipped; skipping nothing is the baseline by definition.
    One recorded full pass gives the baseline and every skip-i pass its
    input trace[i], so skipping i runs only blocks i+1..N-1 and the head.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    instr = np.atleast_2d(np.asarray(instr, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    full, trace = forward_recorded(model, obs, instr)
    baseline, _ = mse_and_grad(full, targets)
    depth = model.config.depth
    deltas = np.empty(depth)
    for i in range(depth):
        x = trace[i]
        for j in range(i + 1, depth):
            x = block_forward(model, j, x)
        skipped, _ = mse_and_grad(head_forward(model, x), targets)
        deltas[i] = skipped - baseline
    return baseline, deltas


def write_zero_shot_csv(path, deltas: np.ndarray) -> None:
    """Layer -1 is the no-skip reference row, with delta 0 by definition."""
    rows = [(-1, 0.0)] + list(enumerate(np.asarray(deltas, dtype=np.float64).tolist()))
    containers.write_csv(path, ["layer", "mse_delta"], rows)


# --- weight-noise action-importance study --------------------------------------

@dataclass
class NoiseCell:
    label: str            # phase attribution of the step range (free/fine)
    range_start: int
    range_end: int
    sigma: float
    completion_rate: float
    trials: int


@dataclass
class NoiseStudy:
    task_seed: int
    clean_steps: int
    horizon: int
    cells: list


def _noisy_model_policy(model: PolicyModel, lo: int, hi: int, sigma: float,
                        rng: np.random.Generator):
    """Full-depth policy that, on every forward whose step index falls in
    [lo, hi), runs a perturbed copy of the block weights; `model` itself is
    never changed."""
    keys = [f"block{i}.{part}" for i in range(model.config.depth)
            for part in MLP_PARTS]
    n_instr = model.config.instr_dim
    counter = {"t": 0}

    def policy(obs, instr_id, state):
        t = counter["t"]
        counter["t"] = t + 1
        instr = sim.instr_onehot(instr_id, n_instr)
        net = model
        if lo <= t < hi:
            p = model.params
            net = PolicyModel(model.config, {
                **p, **{k: p[k] + rng.normal(0.0, sigma, p[k].shape) for k in keys}})
        action, _ = forward_recorded(net, obs, instr)
        return action

    return policy


def _model_policy(model: PolicyModel):
    n_instr = model.config.instr_dim

    def policy(obs, instr_id, state):
        action, _ = forward_recorded(model, obs, sim.instr_onehot(instr_id, n_instr))
        return action

    return policy


def _phase_windows(phases: list) -> list[tuple[str, int, int]]:
    windows = []
    start = 0
    for t in range(1, len(phases) + 1):
        if t == len(phases) or phases[t] != phases[start]:
            windows.append((phases[start], start, t))
            start = t
    return windows


def derive_phase_ranges(phases: list) -> list[tuple[str, int, int]]:
    """One fine and one free step range from a clean rollout's phase labels:
    the first fine window (the initial grasp) and an equally long slice from
    the longest free window."""
    windows = _phase_windows(phases)
    fine = next((w for w in windows if w[0] == sim.FINE), None)
    frees = [w for w in windows if w[0] == sim.FREE]
    if fine is None or not frees:
        raise DegenerateInputError("clean rollout lacks both phases")
    length = fine[2] - fine[1]
    label, lo, hi = max(frees, key=lambda w: w[2] - w[1])
    mid = (lo + hi) // 2
    half = max(1, length // 2)
    flo = max(lo, mid - half)
    fhi = min(hi, flo + max(length, 1))
    return [(sim.FREE, flo, fhi), (sim.FINE, fine[1], fine[2])]


def noise_importance(model: PolicyModel, sim_config: sim.SimConfig,
                     sigmas, trials: int = 50, seed: int = 0,
                     step_ranges=None, subtasks: int = 1,
                     horizon_slack: int = 12,
                     max_task_scan: int = 50) -> NoiseStudy:
    """Closed-loop completion rate under per-step Gaussian weight noise.

    Protocol: fix one task (the first seed whose clean full-depth rollout
    succeeds), derive a free-phase and a fine-phase step range from the
    clean rollout, then for every (range, sigma) cell run `trials` rollouts
    with noise injected into all block weights before each forward inside
    the range. Completion is binary chain success within a horizon of the
    clean episode length plus `horizon_slack` steps. With sigma 0 the noise
    is exactly zero, so those cells reproduce the clean outcome.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if any(s < 0 for s in sigmas):
        raise ConfigError("noise magnitudes must be >= 0")
    study_cfg = replace(sim_config, subtasks=subtasks)
    policy = _model_policy(model)
    task = None
    clean = None
    for offset in range(max_task_scan):
        cand = sim.sample_task_sequence(seed + offset, study_cfg)
        ep = sim.run_episode(cand, policy)
        if ep.success:
            task, clean = cand, ep
            break
    if task is None:
        raise DegenerateInputError(
            f"no clean-success task found in {max_task_scan} seeds; train the model first")

    horizon = clean.n_steps + horizon_slack
    if step_ranges is None:
        ranges = derive_phase_ranges(clean.phases)
    else:
        ranges = [("custom", int(lo), int(hi)) for lo, hi in step_ranges]

    cells = []
    for ri, (label, lo, hi) in enumerate(ranges):
        for si, sigma in enumerate(sigmas):
            ok = 0
            for trial in range(trials):
                rng = np.random.default_rng([seed, ri, si, trial])
                noisy = _noisy_model_policy(model, lo, hi, float(sigma), rng)
                ep = sim.run_episode(task, noisy, max_total_steps=horizon)
                ok += ep.success
            cells.append(NoiseCell(label=label, range_start=lo, range_end=hi,
                                   sigma=float(sigma),
                                   completion_rate=ok / trials, trials=trials))
    return NoiseStudy(task_seed=task.seed, clean_steps=clean.n_steps,
                      horizon=horizon, cells=cells)


def write_noise_csv(path, study: NoiseStudy) -> None:
    columns = ["range_start", "range_end", "sigma", "completion_rate", "trials"]
    containers.write_csv(path, columns,
                         ([getattr(c, name) for name in columns] for c in study.cells))
