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
depth 12 and d = 64. `trace[j]` is the input of block j and `trace[depth]`
the last block's output, and the stage functions take a batch's rows of it
in place of observations. So stage 1 runs no backbone block, and stage 2
runs blocks only from segment 0's blend onwards and back-propagates no lower
than segment 0's modules, below which nothing trains: it forms no input
gradient of segment 0's units and no gradient of that segment's full path.

Stage workspaces. `run_two_stage` builds one workspace per stage, which
each step writes into, and gathers into it only the teacher layers the
stage reads; the other entries of the gathered trace are None.
Stage 1 reads each dynamic layer's input and each segment's closing layer,
`trace[front + 1 .. back]` for every segment (9 of 13 arrays on the
benchmark's static set (0, 2, 9, 10, 11)). Stage 2 reads segment 0's
dynamic inputs and closing layer, `trace[front0 + 1 .. back0]` (2 of 13
there), or only `trace[depth]` when every layer is static. A workspace also
holds stage 2's block outputs, tanh activations and alternating VJP
buffers, the units' VJP temporaries and the stage's gradients, views into
one flat array. The gradients a step returns are those views: they alias
the workspace until its next step. The unit forwards still return fresh
arrays, and a step never writes into the trace it is given.

Rounding caveat: a row of a batched matmul need not equal that row computed
in another batch. On the OpenBLAS this was measured on, the rows of a
per-batch forward equal the whole-set pass only at batch >= 19; below that a
small-matrix kernel rounds differently. The trace makes each row's teacher
value independent of the batch it is drawn in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import containers, flops
from .errors import ConfigError, ShapeError
from .model import PolicyModel, block_forward, block_vjp, forward_recorded, head_forward, mse_and_grad
from .numerics import MLP_PARTS, Adam, Params, flat_views
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
    seed: int = 0

    def __post_init__(self):
        containers.check_int_fields(self, stage1_steps=1, stage2_steps=1, batch_size=1)
        if not 0.0 <= self.lam < np.inf:
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        for name in ("stage1_lr", "stage2_lr"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ConfigError(f"{name} must be finite and positive, got {value}")


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


# --- stage workspaces ----------------------------------------------------------

class StageWorkspace:
    """What every stage's workspace holds for `batch` rows: `rows`, one
    (batch, d) array per teacher layer in `layers` at that layer's index
    and None elsewhere; `params`, the dict of trained parameters the
    stage's Adam updates; `grads`, a view per entry of `params` into one
    flat array; and `adapter_tmp`, the adapters' VJP temporaries."""

    def __init__(self, mods: SkipModules, batch: int, layers, params: Params):
        d = mods.hidden_dim
        self.mods = mods
        self.batch = batch
        self.layers = tuple(layers)
        self.rows: list = [None] * (mods.static_set.depth + 1)
        for j in self.layers:
            self.rows[j] = np.empty((batch, d))
        self.params = params
        self.grads = flat_views(params)
        self.adapter_tmp = tuple(np.empty((batch, mods.adapter_dim)) for _ in range(2))

    def gather(self, teacher, idx) -> list:
        """Rows `idx` of every teacher layer this stage reads, written into
        `rows`, which is returned. The indices must lie in range: mode="clip"
        spares the buffered copy that numpy's checking take makes."""
        if len(idx) != self.batch:
            raise ShapeError(f"the workspace holds {self.batch} rows, the batch has {len(idx)}")
        for j in self.layers:
            teacher[j].take(idx, axis=0, out=self.rows[j], mode="clip")
        return self.rows


class Stage1Workspace(StageWorkspace):
    """Stage 1's workspace: the teacher layers `front + 1 .. back` of every
    segment, the adapters' gradients and `adapter_out`, the (y, h) pair
    each adapter's forward writes in turn."""

    def __init__(self, mods: SkipModules, batch: int):
        layers = sorted({j for front, back in mods.static_set.segments
                         for j in range(front + 1, back + 1)})
        super().__init__(mods, batch, layers,
                         {k: mods.params[k] for k in mods.adapter_keys()})
        self.adapter_out = (np.empty((batch, mods.hidden_dim)),
                            np.empty((batch, mods.adapter_dim)))


class Stage2Workspace(StageWorkspace):
    """Stage 2's workspace for `model`: the teacher layers
    `front0 + 1 .. back0` of segment 0 (`depth` alone without segments),
    every block's output `xs` and tanh activation `hs` from layer `start`
    = back0 on, each segment's blend, the blocks' alternating input
    gradients `dx` and `spare` with their temporaries `dz` and `t`, the
    controllers' VJP temporaries, the units' input gradients `unit_dx`
    (each unit's rows one slice of them) and every module's gradient."""

    def __init__(self, model: PolicyModel, mods: SkipModules, batch: int):
        segments = mods.static_set.segments
        depth = mods.static_set.depth
        front, start = segments[0] if segments else (depth - 1, depth)
        super().__init__(mods, batch, range(front + 1, start + 1), mods.params)
        d = mods.hidden_dim
        self.model = model
        self.start = start
        self.xs = [np.empty((batch, d)) for _ in range(start, depth)]
        self.hs = [np.empty((batch, d)) for _ in range(start, depth)]
        self.blends = [np.empty((batch, d)) for _ in segments]
        self.dx, self.spare, self.dz, self.t = (np.empty((batch, d)) for _ in range(4))
        self.controller_tmp = tuple(np.empty((batch, mods.controller_dim)) for _ in range(2))
        self.unit_dx = tuple(np.empty((batch, d)) for _ in range(2))


def _batch_of(trace) -> int:
    """Rows in a (gathered) teacher trace: those of its first array."""
    return next((len(t) for t in trace if t is not None), 0)


def _workspace(kind, mods: SkipModules, trace, workspace, model=None):
    """`workspace`, checked to be a `kind` built for `mods`, `model` (stage
    2) and the rows of `trace` (ShapeError otherwise), or a fresh one when
    it is None."""
    if workspace is None:
        batch = _batch_of(trace)
        return kind(mods, batch) if model is None else kind(model, mods, batch)
    if not isinstance(workspace, kind):
        raise ShapeError(f"a {kind.__name__} is needed, got a {type(workspace).__name__}")
    if workspace.mods is not mods:
        raise ShapeError(f"the {kind.__name__} was built for other skip modules")
    if model is not None and workspace.model is not model:
        raise ShapeError("the workspace was built for another model")
    for j in workspace.layers[:1]:  # the first gathered layer's rows are the batch
        if len(trace[j]) != workspace.batch:
            raise ShapeError(f"the workspace holds {workspace.batch} rows, "
                             f"the batch has {len(trace[j])}")
    return workspace


# --- stage 1: adapter suffix regression ---------------------------------------

def stage1_loss_and_grads(mods: SkipModules, trace, workspace: Stage1Workspace | None = None):
    """Squared-residual loss between each adapter's output and its segment
    suffix target, summed over dynamic layers and averaged over the batch.
    Adapter j reads its input `trace[j]` and its target `trace[back]` from
    the batch's teacher rows, so no backbone block runs. Only adapter
    parameters receive gradients, keyed in `adapter_keys()` order; each
    adapter's VJP runs once, forms no input gradient, and writes its
    gradients into `workspace` (ShapeError unless it was built for these
    modules and this batch size; a fresh one when none is given). The
    returned gradients are `workspace.grads`.
    """
    ws = _workspace(Stage1Workspace, mods, trace, workspace)
    batch, grads = ws.batch, ws.grads
    tmp = ws.adapter_tmp + (None,)
    loss = 0.0
    for front, back in mods.static_set.segments:
        target = trace[back]
        for j in range(front + 1, back):
            x = trace[j]
            resid, h = adapter_forward(mods, j, x, cache=True, out=ws.adapter_out)
            resid -= target  # == out - target, in place of the adapter's output
            loss += float((resid * resid).sum()) / batch
            resid *= 2.0 / batch  # == (2.0 / batch) * resid: IEEE multiplication commutes
            adapter_vjp(mods, j, x, h, resid, grads, tmp, input_grad=False)
    return loss, grads


def stage1_step(mods: SkipModules, opt: Adam, trace,
                workspace: Stage1Workspace | None = None) -> float:
    ws = _workspace(Stage1Workspace, mods, trace, workspace)
    loss, grads = stage1_loss_and_grads(mods, trace, ws)
    opt.step(ws.params, grads)
    return loss


# --- stage 2: soft-gate blended training ---------------------------------------

@functools.cache
def segment_offset_probs(m: int) -> np.ndarray:
    """Probability of picking offset r in {1..m} from the segment start,
    (1/r)/H_m: harmonic decay. Cached per m, so the array is read-only."""
    if m < 1:
        raise ConfigError("segment must hold at least one dynamic layer")
    r = np.arange(1, m + 1, dtype=np.float64)
    w = 1.0 / r
    probs = w / w.sum()
    probs.flags.writeable = False
    return probs


def draw_selections(mods: SkipModules, batch: int,
                    rng: np.random.Generator) -> list[np.ndarray]:
    """Fresh per-sample draw for every segment: list of (batch,) layer ids.
    Early layers are favoured because their adapters summarize longer
    suffixes."""
    out = []
    for front, back in mods.static_set.segments:
        m = back - front - 1
        probs = segment_offset_probs(m)
        out.append(front + 1 + rng.choice(m, p=probs, size=batch))
    return out


def stage2_blend_forward(model: PolicyModel, mods: SkipModules, selections,
                         trace, caches: list | None = None,
                         workspace: Stage2Workspace | None = None):
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
    dynamic layers raises ConfigError naming the segment. A layer that
    every row selects is served by views and whole-array writes, not
    fancy-index copies.

    Block outputs, tanh activations and blends are written into
    `workspace` (ShapeError unless it was built for this model, these
    modules and this batch size; a fresh one when none is given). Returns
    (actions, gates) with gates shaped (batch, n_segments). When `caches`
    is a list it receives each segment's blend cache, which
    stage2_loss_and_grads reads with the workspace.
    """
    segments = mods.static_set.segments
    if len(selections) != len(segments):
        raise ConfigError("one selection array per segment required")
    ws = _workspace(Stage2Workspace, mods, trace, workspace, model)
    depth, start, batch = mods.static_set.depth, ws.start, ws.batch
    gates = np.zeros((batch, len(segments)))
    closing = {back: si for si, (_, back) in enumerate(segments)}
    xs = list(trace[:start + 1])  # xs[layer] is the input of block layer
    blends = []
    for layer in range(start, depth + 1):
        if layer in closing:
            si = closing[layer]
            front, back = segments[si]
            sel = np.asarray(selections[si])
            if sel.shape != (batch,):
                raise ConfigError("selection shape must match the batch")
            full = xs[back]
            blend = ws.blends[si]
            units, n_selected = [], 0
            for j in range(front + 1, back):
                idx = np.flatnonzero(sel == j)
                n_selected += idx.size
                if idx.size == 0:
                    units.append((j, None))
                    continue
                if idx.size == batch:
                    idx = slice(None)
                xj = xs[j][idx]
                g, hc = controller_forward(mods, j, xj, cache=True)
                a, ha = adapter_forward(mods, j, xj, cache=True)
                blend[idx] = g[:, None] * a + (1.0 - g)[:, None] * full[idx]
                gates[idx, si] = g
                units.append((j, (idx, xj, g, hc, a, ha)))
            if n_selected != batch:  # a row left out would keep the buffer's stale values
                raise ConfigError(f"segment {si} {(front, back)}: every selection must be "
                                  f"one of its dynamic layers {front + 1}..{back - 1}")
            blends.append((back, full, units))
            xs[back] = blend
        if layer < depth:
            k = layer - start
            block_forward(model, layer, xs[layer], out=(ws.xs[k], ws.hs[k]))
            xs.append(ws.xs[k])
    if caches is not None:
        caches += blends
    return head_forward(model, xs[depth]), gates


def stage2_loss_and_grads(model: PolicyModel, mods: SkipModules, selections,
                          trace, targets, lam: float,
                          workspace: Stage2Workspace | None = None):
    """Blended task MSE plus lam * mean_batch sum_segments (1-g)*(back-sel).

    Gradients flow to controller and adapter parameters only, keyed in
    `mods.params` order; frozen backbone blocks only propagate upstream
    gradients. One reverse loop over stage2_blend_forward's layers: each
    block's VJP, then the input gradients the blend VJP left for the
    samples that selected that layer. Segment 0's blend VJP runs last and
    forms no input gradient, because nothing below it trains. Each
    selected unit's VJP runs once; a unit no sample selected gets exact
    zeros. Everything batch-sized is written into `workspace`, as
    stage2_blend_forward says, and the returned gradients are
    `workspace.grads`.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    ws = _workspace(Stage2Workspace, mods, trace, workspace, model)
    blends: list = []
    actions, gates = stage2_blend_forward(model, mods, selections, trace, blends, ws)
    batch = ws.batch
    task_loss, dpred = mse_and_grad(actions, targets)
    segments = mods.static_set.segments
    norm_loss = 0.0
    for si, (front, back) in enumerate(segments):
        norm_loss += float(np.sum((1.0 - gates[:, si]) * (back - selections[si]))) / batch
    loss = task_loss + lam * norm_loss

    inj = {}  # layer -> (rows that selected it, their unit input gradient)
    dx, spare = ws.dx, ws.spare  # the input gradient alternates between these two
    np.matmul(dpred, model.params["head.W"], out=dx)  # the head is frozen: input gradient only
    for layer in reversed(range(ws.start, mods.static_set.depth)):
        k = layer - ws.start
        block_vjp(model, layer, None, ws.hs[k], dx, out=(ws.dz, ws.t, spare))
        dx, spare = spare, dx
        if layer in inj:
            idx, dxi = inj.pop(layer)
            dx[idx] += dxi
        if blends[-1][0] == layer:  # the loop ends at segment 0's blend, the last one
            blend = blends.pop()
            d_full = spare if blends else None
            _blend_vjp(mods, blend, dx, lam, batch, ws, inj, d_full)
            dx, spare = spare, dx
    return loss, task_loss, norm_loss, gates, ws.grads


def _blend_vjp(mods, blend, d_blend, lam, batch, ws, inj, d_full):
    """Backward through one segment's blend: splits the upstream gradient
    over the gate, adapter and full paths and writes the units' parameter
    gradients into the workspace. With `d_full`, it writes the gradient of
    the full path there and leaves each selected unit's input gradient in
    `inj` under its layer; without (segment 0), it forms neither."""
    back, full, units = blend
    grads = ws.grads
    input_grad = d_full is not None
    a_dz, a_t = ws.adapter_tmp
    c_dz, c_t = ws.controller_tmp
    a_dx, c_dx = ws.unit_dx
    lo = 0
    for j, unit in units:
        if unit is None:  # no sample selected layer j
            for kind in ("adapter", "controller"):
                for part in MLP_PARTS:
                    grads[f"{kind}{j}.{part}"].fill(0.0)
            continue
        idx, xj, g, hc, a, ha = unit
        rows = slice(lo, lo + len(g))  # this unit's rows of the VJP temporaries
        lo += len(g)
        du = d_blend[idx]
        dg = (du * (a - full[idx])).sum(axis=1)
        dg += -lam * (back - j) / batch
        da = g[:, None] * du
        dxa = adapter_vjp(mods, j, xj, ha, da, grads, (a_dz[rows], a_t[rows], a_dx[rows]),
                          input_grad)
        dxc = controller_vjp(mods, j, xj, hc, g, dg, grads,
                             (c_dz[rows], c_t[rows], c_dx[rows]), input_grad)
        if input_grad:
            d_full[idx] = (1.0 - g)[:, None] * du
            dxa += dxc  # == dxa + dxc: IEEE addition commutes
            inj[j] = (idx, dxa)


def stage2_step(model: PolicyModel, mods: SkipModules, opt: Adam, trace,
                targets, lam: float, rng: np.random.Generator,
                workspace: Stage2Workspace | None = None):
    """One Adam step on the stage-2 loss of freshly drawn selections.
    Returns (loss, task_loss, norm_loss, mean gate); the mean gate is nan
    when every layer is static, so there is no gate."""
    selections = draw_selections(mods, _batch_of(trace), rng)
    loss, task_loss, norm_loss, gates, grads = stage2_loss_and_grads(
        model, mods, selections, trace, targets, lam, workspace)
    opt.step(mods.params, grads)
    return loss, task_loss, norm_loss, float(gates.mean()) if gates.size else math.nan


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
                  config: DistillConfig, log_dir=None):
    """Stage-1 adapter regression then stage-2 joint blend training.

    Divergence (non-finite loss) marks the stage's report and ends the run.
    The backbone is never modified.
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

    def stage1(report, opt, ws, idx):
        report.losses.append(stage1_step(mods, opt, ws.gather(teacher, idx), ws))

    def stage2(report, opt, ws, idx):
        loss, task_loss, norm_loss, mean_gate = stage2_step(
            model, mods, opt, ws.gather(teacher, idx), dataset.actions[idx], config.lam, rng, ws)
        report.losses.append(loss)
        report.task_losses.append(task_loss)
        report.norm_losses.append(norm_loss)
        report.mean_gates.append(mean_gate)

    stages = [("stage1", config.stage1_steps, config.stage1_lr, stage1,
               functools.partial(Stage1Workspace, mods, batch)),
              ("stage2", config.stage2_steps, config.stage2_lr, stage2,
               functools.partial(Stage2Workspace, model, mods, batch))]
    reports: dict[str, StageReport] = {}
    for name, steps, lr, step, workspace in stages:
        report = reports[name] = StageReport(name=name)
        opt = Adam(lr=lr)
        ws = workspace()
        for _ in range(steps):
            step(report, opt, ws, rng.integers(0, n_rows, size=batch))
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
                     config: DistillConfig, tau: float = 0.5, log_dir=None):
    """Fresh modules + two-stage training; returns (mods, reports)."""
    mods = init_skip_modules(model, static_set, tau=tau, seed=config.seed)
    return run_two_stage(model, mods, dataset, config, log_dir)
