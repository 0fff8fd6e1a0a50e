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

from . import containers, flops
from .errors import ConfigError
from .model import PolicyModel, block_forward, block_vjp, forward_recorded, head_forward, mse_and_grad
from .numerics import MLP_PARTS, Adam, Params
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
        containers.check_int_fields(self, stage1_steps=1, stage2_steps=1, batch_size=1)
        if not 0.0 <= self.lam < np.inf:
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        for name in ("stage1_lr", "stage2_lr"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ConfigError(f"{name} must be finite and positive, got {value}")
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
    parameters receive gradients, keyed in `adapter_keys()` order; each
    adapter's VJP runs once and stores its gradients.
    """
    batch = len(trace[0])
    grads: Params = dict.fromkeys(mods.adapter_keys())
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

    One loop over the layers start .. depth, where start is segment 0's
    closing static layer (depth when there is no segment). The block inputs
    below start are the teacher's, `trace[:start + 1]`, so blocks run only
    from segment 0's blend onwards. At a segment's closing static layer
    back, the block input becomes the blend: each sample's row is
    g * adapter_i(x_i) + (1 - g) * full, with x_i the input of its selected
    layer i, g the controller_i gate and full the unblended input of back.
    So the dynamic blocks serve every sample: their prefix up to the
    selected layer is its forced execution, their suffix its no-skip path.
    Statics always execute. A selection that is not one of its segment's
    dynamic layers raises ConfigError naming the segment.

    Returns (actions, gates) with gates shaped (batch, n_segments). When
    `caches` is a list it receives what stage2_loss_and_grads reads: every
    block's tanh activation in layer order, then each segment's blend cache.
    """
    segments = mods.static_set.segments
    if len(selections) != len(segments):
        raise ConfigError("one selection array per segment required")

    depth = mods.static_set.depth
    start = segments[0][1] if segments else depth
    batch = len(trace[0])
    gates = np.zeros((batch, len(segments)))
    closing = {back: si for si, (_, back) in enumerate(segments)}
    xs = list(trace[:start + 1])  # xs[layer] is the input of block layer
    hs, blends = [], []
    for layer in range(start, depth + 1):
        if layer in closing:
            si = closing[layer]
            front, back = segments[si]
            sel = np.asarray(selections[si])
            if sel.shape != (batch,):
                raise ConfigError("selection shape must match the batch")
            full = xs[back]
            blend = np.empty_like(full)
            units, n_selected = [], 0
            for j in range(front + 1, back):
                idx = np.flatnonzero(sel == j)
                n_selected += idx.size
                if idx.size == 0:
                    units.append((j, None))
                    continue
                xj = xs[j][idx]
                g, hc = controller_forward(mods, j, xj, cache=True)
                a, ha = adapter_forward(mods, j, xj, cache=True)
                blend[idx] = g[:, None] * a + (1.0 - g)[:, None] * full[idx]
                gates[idx, si] = g
                units.append((j, (idx, xj, g, hc, a, ha)))
            if n_selected != batch:  # a row left out would keep empty_like's garbage
                raise ConfigError(f"segment {si} {(front, back)}: every selection must be "
                                  f"one of its dynamic layers {front + 1}..{back - 1}")
            blends.append((back, full, units))
            xs[back] = blend
        if layer < depth:
            x, h = block_forward(model, layer, xs[layer], cache=True)
            xs.append(x)
            hs.append(h)
    if caches is not None:
        caches += hs + blends
    return head_forward(model, xs[depth]), gates


def stage2_loss_and_grads(model: PolicyModel, mods: SkipModules, selections,
                          trace, targets, lam: float):
    """Blended task MSE plus lam * mean_batch sum_segments (1-g)*(back-sel).

    Gradients flow to controller and adapter parameters only, keyed in
    `mods.params` order; frozen backbone blocks only propagate upstream
    gradients. One reverse loop over stage2_blend_forward's layers: each
    block's VJP, then the input gradients the blend VJP left for the
    samples that selected that layer. Segment 0's blend VJP runs last and
    its input gradients are dropped, because nothing below it trains. Each
    selected unit's VJP runs once and stores its gradients; a unit no
    sample selected gets exact zeros.
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

    grads: Params = dict.fromkeys(mods.params)
    n_blocks = len(caches) - len(segments)
    hs, blends = caches[:n_blocks], caches[n_blocks:]
    depth = mods.static_set.depth
    inj = {}  # layer -> (rows that selected it, their unit input gradient)
    dx = dpred @ model.params["head.W"]  # the head is frozen: input gradient only
    for layer in reversed(range(depth - n_blocks, depth)):
        dx = block_vjp(model, layer, None, hs.pop(), dx)
        if layer in inj:
            idx, dxi = inj.pop(layer)
            dx[idx] += dxi
        if blends[-1][0] == layer:  # the loop ends at segment 0's blend, the last one
            dx = _blend_vjp(mods, blends.pop(), dx, lam, batch, grads, inj)
    return loss, task_loss, norm_loss, gates, grads


def _blend_vjp(mods, blend, d_blend, lam, batch, grads, inj):
    """Backward through one segment's blend: splits the upstream gradient
    over the gate, adapter and full paths, stores the units' parameter
    gradients, leaves each selected unit's input gradient in `inj` under
    its layer and returns the gradient of the full path."""
    back, full, units = blend
    d_full = np.zeros_like(full)
    for j, unit in units:
        if unit is None:  # no sample selected layer j
            for key in (f"{kind}{j}.{part}" for kind in ("adapter", "controller")
                        for part in MLP_PARTS):
                grads[key] = np.zeros_like(mods.params[key])
            continue
        idx, xj, g, hc, a, ha = unit
        du = d_blend[idx]
        dg = np.sum(du * (a - full[idx]), axis=1)
        dg += -lam * (back - j) / batch
        d_full[idx] = (1.0 - g)[:, None] * du
        da = g[:, None] * du
        dxa = adapter_vjp(mods, j, xj, ha, da, grads)
        dxc = controller_vjp(mods, j, xj, hc, g, dg, grads)
        inj[j] = (idx, dxa + dxc)
    return d_full


def stage2_step(model: PolicyModel, mods: SkipModules, opt: Adam, trace,
                targets, lam: float, rng: np.random.Generator,
                selection: str = "harmonic"):
    selections = draw_selections(mods, len(trace[0]), rng, selection)
    loss, task_loss, norm_loss, gates, grads = stage2_loss_and_grads(
        model, mods, selections, trace, targets, lam)
    opt.step(mods.params, grads)
    return loss, task_loss, norm_loss, float(gates.mean())


# --- orchestration --------------------------------------------------------------

def estimate_skip_rate(model: PolicyModel, mods: SkipModules, obs, instr) -> float:
    """Fraction of dynamic layers skipped by the pure controller policy
    (allow points pinned at the segment starts) on probe inputs."""
    points = [front + 1 for front, _ in mods.static_set.segments]
    n_dyn = len(mods.static_set.dynamic_layers)
    n_static = len(mods.static_set.indices)
    if n_dyn == 0:
        return 0.0
    costs = flops.arch_costs(model.config)
    executed = 0
    n = np.atleast_2d(obs).shape[0]
    for i in range(n):  # every static layer runs, so the rest are dynamic
        _, trace = forward_skipped(model, mods, points, obs[i], instr[i], costs)
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
    marks the stage's report and ends the run. The backbone is never modified.
    """
    check_depth(model, mods.static_set)
    rng = np.random.default_rng(config.seed)
    obs = dataset.obs
    instr = dataset.instr_onehot()
    n_rows = len(dataset)
    if n_rows < 1:
        raise ConfigError("empty distillation dataset")
    teacher = forward_recorded(model, obs, instr)[1]
    probe = slice(256)  # the leading rows the end-of-stage diagnostics read
    probe_trace = [t[probe] for t in teacher]
    batch = min(config.batch_size, n_rows)

    def rows(idx):  # take is about twice as fast as t[idx] here
        return [t.take(idx, axis=0) for t in teacher]

    def stage1(report, opt, idx):
        report.losses.append(stage1_step(mods, opt, rows(idx)))

    def stage2(report, opt, idx):
        loss, task_loss, norm_loss, mean_gate = stage2_step(
            model, mods, opt, rows(idx), dataset.actions[idx], config.lam, rng, config.selection)
        report.losses.append(loss)
        report.task_losses.append(task_loss)
        report.norm_losses.append(norm_loss)
        report.mean_gates.append(mean_gate)

    if joint_from_scratch:
        stages = [("joint", config.stage1_steps + config.stage2_steps, config.stage2_lr, stage2)]
    else:
        stages = [("stage1", config.stage1_steps, config.stage1_lr, stage1),
                  ("stage2", config.stage2_steps, config.stage2_lr, stage2)]
    reports: dict[str, StageReport] = {}
    for name, steps, lr, step in stages:
        report = reports[name] = StageReport(name=name)
        opt = Adam(lr=lr)
        for _ in range(steps):
            step(report, opt, rng.integers(0, n_rows, size=batch))
            if not np.isfinite(report.losses[-1]):
                report.diverged = True
                break
        _probe_diagnostics(model, mods, report, probe_trace, obs[probe], instr[probe])
        if log_dir is not None:
            _write_stage_log(Path(log_dir) / f"{name}_log.csv", report)
        if report.diverged:
            break
    return mods, reports


def distill_pipeline(model: PolicyModel, static_set, dataset: Dataset,
                     config: DistillConfig, tau: float = 0.5, log_dir=None,
                     joint_from_scratch: bool = False):
    """Fresh modules + two-stage training; returns (mods, reports)."""
    mods = init_skip_modules(model, static_set, tau=tau, seed=config.seed)
    return run_two_stage(model, mods, dataset, config, log_dir, joint_from_scratch)
