"""Two-stage gate/adapter training against a frozen backbone.

Stage 1 regresses every adapter onto the output its segment's remaining
dynamic layers would have produced, so each adapter learns to summarize a
layer suffix. Stage 2 trains controllers and adapters jointly through a
differentiable soft blend of the adapter path and the full path at one
sampled layer per segment, plus a normalization loss paying for every layer
a closed gate keeps executing. Backbone parameters never receive gradients.

Teacher trace. The backbone is frozen, so every activation the stages read is
a constant of the dataset. `run_two_stage` records it once, with one
`forward_recorded` pass over all rows, and keeps that pass's depth + 1
(rows, d) float64 arrays: (depth + 1) x rows x d x 8 B, 6.7 kB a row at
depth 12 and d = 64. Each step gathers its batch's rows of every array, and
the stage functions take those rows in place of observations: `trace[j]` is
the input of block j and `trace[depth]` the last block's output. So stage 1
runs no backbone block, and stage 2 runs blocks only from segment 0's blend
onwards and back-propagates no lower than segment 0's modules, below which
nothing trains.

Rounding caveat: a row of a batched matmul need not equal that row computed
in another batch. On the OpenBLAS this was measured on, the rows of a
per-batch forward equal the whole-set pass only at batch >= 19; below that a
small-matrix kernel rounds differently. The trace makes each row's teacher
value independent of the batch it is drawn in.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import containers
from .errors import ConfigError
from .model import PolicyModel, block_forward, block_vjp, forward_recorded, head_forward, mse_and_grad
from .numerics import Adam, Params, affine_vjp
from .runtime import (
    SkipModules,
    adapter_forward,
    adapter_vjp,
    check_depth,
    controller_forward,
    controller_vjp,
    forward_skipped,
    init_skip_modules,
)
from .sim import Dataset


@dataclass(frozen=True)
class DistillConfig:
    lam: float = 0.05              # normalization-loss weight
    stage1_steps: int = 1200
    stage2_steps: int = 1500
    stage1_lr: float = 3e-3
    stage2_lr: float = 1e-3
    batch_size: int = 64
    selection: str = "harmonic"    # harmonic or linear decay over offsets
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise ConfigError("lam must be >= 0")
        if self.stage1_steps < 1 or self.stage2_steps < 1:
            raise ConfigError("stage steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.selection not in ("harmonic", "linear"):
            raise ConfigError("selection must be 'harmonic' or 'linear'")


@dataclass
class StageReport:
    name: str
    losses: list = field(default_factory=list)
    task_losses: list = field(default_factory=list)
    norm_losses: list = field(default_factory=list)
    mean_gates: list = field(default_factory=list)
    final_adapter_residual: dict = field(default_factory=dict)
    controller_mean_gate: dict = field(default_factory=dict)
    skip_rate: float = 0.0
    diverged: bool = False


# --- stage 1: adapter suffix regression ---------------------------------------

def stage1_loss_and_grads(mods: SkipModules, trace):
    """Squared-residual loss between each adapter's output and its segment
    suffix target, summed over dynamic layers and averaged over the batch.
    Adapter j reads its input `trace[j]` and its target `trace[back]` from
    the batch's teacher rows, so no backbone block runs. Only adapter
    parameters receive gradients.
    """
    batch = len(trace[0])
    grads: Params = {k: np.zeros_like(mods.params[k]) for k in mods.adapter_keys()}
    loss = 0.0
    for front, back in mods.static_set.segments:
        target = trace[back]
        for j in range(front + 1, back):
            x = trace[j]
            out, h = adapter_forward(mods, j, x, cache=True)
            resid = out - target
            loss += float(np.sum(resid * resid)) / batch
            adapter_vjp(mods, j, x, h, (2.0 / batch) * resid, grads)
    return loss, grads


def stage1_step(mods: SkipModules, opt: Adam, trace) -> float:
    loss, grads = stage1_loss_and_grads(mods, trace)
    adapters = {k: mods.params[k] for k in mods.adapter_keys()}
    opt.step(adapters, grads)
    return loss


# --- stage 2: soft-gate blended training ---------------------------------------

@functools.cache
def segment_offset_probs(m: int, selection: str = "harmonic") -> np.ndarray:
    """Probability of picking offset r in {1..m} from the segment start:
    (1/r)/H_m for harmonic decay, or proportional to m-r+1 for linear.
    Cached per (m, selection), so the array is read-only."""
    if m < 1:
        raise ConfigError("segment must hold at least one dynamic layer")
    r = np.arange(1, m + 1, dtype=np.float64)
    w = 1.0 / r if selection == "harmonic" else (m - r + 1)
    probs = w / w.sum()
    probs.flags.writeable = False
    return probs


def draw_selections(mods: SkipModules, batch: int, rng: np.random.Generator,
                    selection: str = "harmonic") -> list[np.ndarray]:
    """Fresh per-sample draw for every segment: list of (batch,) layer ids.
    Early layers are favoured because their adapters summarize longer
    suffixes."""
    out = []
    for front, back in mods.static_set.segments:
        m = back - front - 1
        probs = segment_offset_probs(m, selection)
        out.append(front + 1 + rng.choice(m, p=probs, size=batch))
    return out


def stage2_blend_forward(model: PolicyModel, mods: SkipModules, selections,
                         trace, caches: list | None = None):
    """Soft-gate blended forward pass over the batch's teacher rows `trace`.

    Per segment, the full chain of dynamic blocks serves every sample (its
    prefix up to the selected layer doubles as the forced execution, its
    suffix as the no-skip path); at each sample's selected layer i the
    segment output becomes g * adapter_i(x_i) + (1 - g) * full_path, with
    g the controller_i gate. Statics always execute. Segment 0's input
    and chain are the teacher's, `trace[front + 1:back + 1]`, so blocks run
    only from segment 0's blend onwards.

    Returns (actions, gates) with gates shaped (batch, n_segments); when
    `caches` is a list it is filled with the intermediates needed by
    stage2_loss_and_grads.
    """
    segments = mods.static_set.segments
    if len(selections) != len(segments):
        raise ConfigError("one selection array per segment required")

    batch = len(trace[0])
    gates = np.zeros((batch, len(segments)))
    x = trace[-1]  # the output when every layer is static

    for si, (statics, front, back) in enumerate(mods.segment_plan):
        sel = np.asarray(selections[si])
        if sel.shape != (batch,):
            raise ConfigError("selection shape must match the batch")
        if si == 0:
            chain, hs = trace[front + 1:back + 1], None
        else:
            for layer in statics:
                x, h = block_forward(model, layer, x, cache=True)
                if caches is not None:
                    caches.append(("static", layer, h))
            chain = [x]
            hs = []
            for j in range(front + 1, back):
                x, h = block_forward(model, j, x, cache=True)
                chain.append(x)
                hs.append(h)
        full = chain[-1]
        blend = np.empty_like(full)
        seg_cache = []
        for off, j in enumerate(range(front + 1, back)):
            idx = np.flatnonzero(sel == j)
            if idx.size == 0:
                seg_cache.append(None)
                continue
            xj = chain[off][idx]
            g, hc = controller_forward(mods, j, xj, cache=True)
            a, ha = adapter_forward(mods, j, xj, cache=True)
            blend[idx] = g[:, None] * a + (1.0 - g)[:, None] * full[idx]
            gates[idx, si] = g
            seg_cache.append((idx, xj, g, hc, a, ha))
        if caches is not None:
            caches.append(("segment", (front, back), chain, hs, seg_cache, sel))
        x = blend
    for layer in mods.trailing_statics if segments else ():
        x, h = block_forward(model, layer, x, cache=True)
        if caches is not None:
            caches.append(("static", layer, h))
    actions = head_forward(model, x)
    if caches is not None:
        caches.append(("head", x))
    return actions, gates


def stage2_loss_and_grads(model: PolicyModel, mods: SkipModules, selections,
                          trace, targets, lam: float):
    """Blended task MSE plus lam * mean_batch sum_segments (1-g)*(back-sel).

    Gradients flow to controller and adapter parameters only; frozen
    backbone blocks only propagate upstream gradients, and none below
    segment 0's modules.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    caches: list = []
    actions, gates = stage2_blend_forward(model, mods, selections, trace, caches)
    batch = actions.shape[0]
    task_loss, dpred = mse_and_grad(actions, targets)
    segments = mods.static_set.segments
    norm_loss = 0.0
    for si, (front, back) in enumerate(segments):
        norm_loss += float(np.sum((1.0 - gates[:, si]) * (back - selections[si]))) / batch
    loss = task_loss + lam * norm_loss

    grads: Params = {k: np.zeros_like(v) for k, v in mods.params.items()}
    kind = caches[-1]
    assert kind[0] == "head"
    _, _, dx = affine_vjp(model.params["head.W"], kind[1], dpred)
    for entry in reversed(caches[:-1]):
        if entry[0] == "static":
            _, layer, h = entry
            dx = block_vjp(model, layer, None, h, dx)
        else:
            _, (front, back), chain, hs, seg_cache, sel = entry
            dx = _segment_vjp(model, mods, front, back, chain, hs,
                              seg_cache, sel, dx, lam, batch, grads)
    return loss, task_loss, norm_loss, gates, grads


def _segment_vjp(model, mods, front, back, chain, hs, seg_cache, sel,
                 d_blend, lam, batch, grads):
    """Backward through one segment's blend: splits the upstream gradient
    over the gate, adapter, and full paths, then walks the block chain in
    reverse, injecting each sample's adapter/controller input gradients at
    its selected layer. A chain read from the teacher trace (hs is None)
    has nothing trainable below it, so the walk stops before it."""
    full = chain[-1]
    d_chain = np.zeros_like(full)
    inj = {}
    for off, j in enumerate(range(front + 1, back)):
        entry = seg_cache[off]
        if entry is None:
            continue
        idx, xj, g, hc, a, ha = entry
        du = d_blend[idx]
        dg = np.sum(du * (a - full[idx]), axis=1)
        dg += -lam * (back - sel[idx]) / batch
        d_chain[idx] = (1.0 - g)[:, None] * du
        da = g[:, None] * du
        dxa = adapter_vjp(mods, j, xj, ha, da, grads)
        dxc = controller_vjp(mods, j, xj, hc, g, dg, grads)
        inj[off] = (idx, dxa + dxc)
    if hs is None:
        return None
    d = d_chain
    for off in reversed(range(len(hs))):
        d = block_vjp(model, front + 1 + off, chain[off], hs[off], d)
        if off in inj:
            idx, dxi = inj[off]
            d[idx] += dxi
    return d


def stage2_step(model: PolicyModel, mods: SkipModules, opt: Adam, trace,
                targets, lam: float, rng: np.random.Generator,
                selection: str = "harmonic"):
    selections = draw_selections(mods, len(trace[0]), rng, selection)
    loss, task_loss, norm_loss, gates, grads = stage2_loss_and_grads(
        model, mods, selections, trace, targets, lam)
    opt.step(mods.params, grads)
    return loss, task_loss, norm_loss, float(gates.mean())


# --- orchestration --------------------------------------------------------------

def estimate_skip_rate(model: PolicyModel, mods: SkipModules, obs, instr,
                       limit: int = 256) -> float:
    """Fraction of dynamic layers skipped by the pure controller policy
    (allow points pinned at the segment starts) on probe inputs."""
    points = [front + 1 for front, _ in mods.static_set.segments]
    n_dyn = len(mods.static_set.dynamic_layers)
    n_static = len(mods.static_set.indices)
    if n_dyn == 0:
        return 0.0
    executed = 0
    n = min(limit, np.atleast_2d(obs).shape[0])
    for i in range(n):  # every static layer runs, so the rest are dynamic
        _, trace = forward_skipped(model, mods, points, obs[i], instr[i])
        executed += len(trace.executed_layers) - n_static
    return 1.0 - executed / (n * n_dyn)


def _probe_diagnostics(model, mods, report: StageReport, trace, obs, instr) -> None:
    """Adapter residuals and mean gates on the probe rows' teacher `trace`,
    and the controller-only skip rate on their observations."""
    batch = len(trace[0])
    for front, back in mods.static_set.segments:
        target = trace[back]
        for j in range(front + 1, back):
            out = adapter_forward(mods, j, trace[j])
            resid = out - target
            report.final_adapter_residual[j] = float(np.sum(resid * resid)) / batch
            g = controller_forward(mods, j, trace[j])
            report.controller_mean_gate[j] = float(np.mean(g))
    report.skip_rate = estimate_skip_rate(model, mods, obs, instr)


def _write_stage_log(path, report: StageReport) -> None:
    """One row per step; stage 1 leaves the stage-2 columns empty."""
    extra = [report.task_losses, report.norm_losses, report.mean_gates]
    containers.write_csv(path, ["step", "loss", "task_loss", "norm_loss", "mean_gate"],
                         ([i, loss] + [col[i] if col else None for col in extra]
                          for i, loss in enumerate(report.losses)))


def run_two_stage(model: PolicyModel, mods: SkipModules, dataset: Dataset,
                  config: DistillConfig, log_dir=None,
                  joint_from_scratch: bool = False):
    """Stage-1 adapter regression then stage-2 joint blend training.

    With joint_from_scratch=True (the ablation), stage 1 is skipped and the
    randomly initialized controllers and adapters train jointly on the
    stage-2 loss for the combined step budget. Divergence (non-finite loss)
    aborts the stage and marks its report. The backbone is never modified.
    """
    check_depth(model, mods.static_set)
    rng = np.random.default_rng(config.seed)
    obs = dataset.obs
    instr = dataset.instr_onehot()
    actions = dataset.actions
    n_rows = len(dataset)
    if n_rows < 1:
        raise ConfigError("empty distillation dataset")
    teacher = forward_recorded(model, obs, instr)[1]
    probe = [t[:256] for t in teacher]
    reports: dict[str, StageReport] = {}

    def rows(idx):  # take is about twice as fast as t[idx] here
        return [t.take(idx, axis=0) for t in teacher]

    def batches(steps):
        for _ in range(steps):
            yield rng.integers(0, n_rows, size=min(config.batch_size, n_rows))

    if not joint_from_scratch:
        report = StageReport(name="stage1")
        opt = Adam(lr=config.stage1_lr)
        for idx in batches(config.stage1_steps):
            loss = stage1_step(mods, opt, rows(idx))
            report.losses.append(loss)
            if not np.isfinite(loss):
                report.diverged = True
                break
        _probe_diagnostics(model, mods, report, probe, obs[:256], instr[:256])
        reports["stage1"] = report
        if log_dir is not None:
            _write_stage_log(Path(log_dir) / "stage1_log.csv", report)
        if report.diverged:
            return mods, reports

    stage2_steps = config.stage2_steps
    name = "stage2"
    if joint_from_scratch:
        stage2_steps = config.stage1_steps + config.stage2_steps
        name = "joint"
    report = StageReport(name=name)
    opt = Adam(lr=config.stage2_lr)
    for idx in batches(stage2_steps):
        loss, task_loss, norm_loss, mean_gate = stage2_step(
            model, mods, opt, rows(idx), actions[idx],
            config.lam, rng, config.selection)
        report.losses.append(loss)
        report.task_losses.append(task_loss)
        report.norm_losses.append(norm_loss)
        report.mean_gates.append(mean_gate)
        if not np.isfinite(loss):
            report.diverged = True
            break
    _probe_diagnostics(model, mods, report, probe, obs[:256], instr[:256])
    reports[name] = report
    if log_dir is not None:
        _write_stage_log(Path(log_dir) / f"{name}_log.csv", report)
    return mods, reports


def distill_pipeline(model: PolicyModel, static_set, dataset: Dataset,
                     config: DistillConfig, tau: float = 0.5, log_dir=None,
                     joint_from_scratch: bool = False):
    """Fresh modules + two-stage training; returns (mods, reports)."""
    mods = init_skip_modules(model, static_set, tau=tau, seed=config.seed)
    return run_two_stage(model, mods, dataset, config, log_dir, joint_from_scratch)
