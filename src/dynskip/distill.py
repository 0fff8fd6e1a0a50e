"""Two-stage gate/adapter training against a frozen backbone.

Stage 1 regresses every adapter onto the output its segment's remaining
dynamic layers would have produced, so each adapter learns to summarize a
layer suffix. Stage 2 trains controllers and adapters jointly through a
differentiable soft blend of the adapter path and the full path at one
sampled layer per segment, plus a normalization loss paying for every layer
a closed gate keeps executing. Backbone parameters never receive gradients.
`distill_pipeline` builds fresh modules and runs the two stages in turn; a
non-finite loss marks its stage's report diverged and ends the run, and the
backbone is never modified.

Teacher trace. The backbone is frozen, so every activation the stages read is
a constant of the dataset. `distill_pipeline` records it once, with one
`forward_recorded` pass over all rows, and keeps that pass's depth + 1
(rows, d) float64 arrays: (depth + 1) x rows x d x 8 B, 6.7 kB a row at
depth 12 and d = 64. `trace[j]` is the input of block j and `trace[depth]`
the last block's output, and the stage functions take a batch's rows of it
in place of observations. So stage 1 runs no backbone block, and stage 2
runs blocks only from segment 0's blend onwards and back-propagates no lower
than segment 0's modules, below which nothing trains: it forms no input
gradient of segment 0's units and no gradient of that segment's full path.

Stage workspaces. Each stage step takes its workspace as its one state
argument and reads from it the modules (and, in stage 2, the model) it was
built for and the batch's teacher rows. `distill_pipeline` builds one
workspace per stage, and each step's `gather` writes into it only the
teacher layers the stage reads; the other entries of `rows` are None.
Stage 1 reads each dynamic layer's input and each segment's closing layer,
`trace[front + 1 .. back]` for every segment (9 of 13 arrays on the
benchmark's static set (0, 2, 9, 10, 11)). Stage 2 reads segment 0's
dynamic inputs and closing layer, `trace[front0 + 1 .. back0]` (2 of 13
there), or only `trace[depth]` when every layer is static. A workspace also
holds stage 2's block outputs, tanh activations and alternating VJP
buffers, the units' forward outputs, gathers, blend and VJP temporaries
(each unit's rows one slice of them), and the stage's gradients: views into
one gradient arena, laid out as the trained set's parameter arena (stage 1
the adapters, `SkipModules.adapter_arena`; stage 2 all of
`SkipModules.arena`), so Adam steps the two arenas. The gradients a step
returns are those views: they alias the workspace until its next step. A
step never writes into the gathered rows or the teacher.

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

from . import containers
from .errors import ConfigError, DegenerateInputError, ShapeError
from .model import PolicyModel, block_forward, block_vjp, forward_recorded, head_forward, mse_and_grad
from .numerics import MLP_PARTS, Adam, Params, flat_views
from .runtime import (
    SkipModules,
    adapter_forward,
    adapter_vjp,
    controller_forward,
    controller_vjp,
    forward_skipped,
    init_skip_modules,
)
from .sim import Dataset

STAGE1_LR = 3e-3  # stage 1's Adam step size


@dataclass(frozen=True)
class DistillConfig:
    lam: float = 0.05              # normalization-loss weight
    stage1_steps: int = 1200
    stage2_steps: int = 1500
    stage2_lr: float = 1e-3
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        containers.check_int_fields(self, stage1_steps=1, stage2_steps=1, batch_size=1)
        if not 0.0 <= self.lam < np.inf:
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        if not 0.0 < self.stage2_lr < np.inf:
            raise ConfigError(f"stage2_lr must be finite and positive, got {self.stage2_lr}")


@dataclass
class StageReport:
    name: str
    losses: list = field(default_factory=list)
    task_losses: list = field(default_factory=list)
    norm_losses: list = field(default_factory=list)
    mean_gates: list = field(default_factory=list)
    skip_rate: float = 0.0
    diverged: bool = False


# --- stage workspaces ----------------------------------------------------------

class StageWorkspace:
    """What every stage's workspace holds for `batch` rows of `mods`:
    `rows`, one (batch, d) array per teacher layer in `layers` at that
    layer's index and None elsewhere, which `gather` fills; `grads`, a
    view per entry of the trained parameters `trained` into `grad_arena`,
    laid out in `layout` order as the trained set's parameter arena; and
    `adapter_tmp`, the adapters' VJP temporaries."""

    def __init__(self, mods: SkipModules, batch: int, layers, trained: Params, layout=None):
        d = mods.hidden_dim
        self.mods = mods
        self.batch = batch
        self.layers = tuple(layers)
        self.rows: list = [None] * (mods.static_set.depth + 1)
        for j in self.layers:
            self.rows[j] = np.empty((batch, d))
        self.grad_arena, self.grads = flat_views(trained, layout)
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
    segment, the adapters' gradients, laid out as `mods.adapter_arena`,
    and `adapter_out`, the (y, h) pair each adapter's forward writes in
    turn."""

    def __init__(self, mods: SkipModules, batch: int):
        layers = sorted({j for front, back in mods.static_set.segments
                         for j in range(front + 1, back + 1)})
        # the adapters lead mods.layout, in that order
        super().__init__(mods, batch, layers, {k: mods.params[k] for k in mods.layout
                                               if k.startswith("adapter")})
        self.adapter_out = (np.empty((batch, mods.hidden_dim)),
                            np.empty((batch, mods.adapter_dim)))


class Stage2Workspace(StageWorkspace):
    """Stage 2's workspace for `model`: the teacher layers
    `front0 + 1 .. back0` of segment 0 (`depth` alone without segments),
    every block's output `xs` and tanh activation `hs` from layer `start`
    = back0 on, each segment's blend, the blocks' alternating input
    gradients `dx` and `spare` with their temporaries `dz` and `t`, the
    controllers' VJP temporaries and every module's gradient, laid out as
    `mods.arena`. Each unit's rows are one slice of the per-unit arrays:
    the units' input gradients `unit_dx`; per segment, in `unit_rows`, the
    forward outputs its blend VJP reads (selected inputs, controller output
    and tanh activation, adapter output and tanh activation); and the
    blend's and its VJP's (batch, d) and (batch,) temporaries `blend_tmp`
    and `gate_tmp`, which every segment reuses. `caches` holds each
    segment's blend cache, which every forward overwrites."""

    def __init__(self, model: PolicyModel, mods: SkipModules, batch: int):
        segments = mods.static_set.segments
        depth = mods.static_set.depth
        front, start = segments[0] if segments else (depth - 1, depth)
        super().__init__(mods, batch, range(front + 1, start + 1), mods.params, mods.layout)
        d, da, dc = mods.hidden_dim, mods.adapter_dim, mods.controller_dim
        self.model = model
        self.start = start
        self.xs = [np.empty((batch, d)) for _ in range(start, depth)]
        self.hs = [np.empty((batch, d)) for _ in range(start, depth)]
        self.blends = [np.empty((batch, d)) for _ in segments]
        self.dx, self.spare, self.dz, self.t = (np.empty((batch, d)) for _ in range(4))
        self.controller_tmp = tuple(np.empty((batch, dc)) for _ in range(2))
        self.unit_dx = tuple(np.empty((batch, d)) for _ in range(2))
        self.unit_rows = [(np.empty((batch, d)), np.empty((batch, 1)), np.empty((batch, dc)),
                           np.empty((batch, d)), np.empty((batch, da))) for _ in segments]
        self.blend_tmp = tuple(np.empty((batch, d)) for _ in range(3))
        self.gate_tmp = tuple(np.empty(batch) for _ in range(2))
        self.caches: list = []


# --- stage 1: adapter suffix regression ---------------------------------------

def stage1_loss_and_grads(ws: Stage1Workspace):
    """Squared-residual loss between each adapter's output and its segment
    suffix target, summed over dynamic layers and averaged over the batch.
    Adapter j reads its input `ws.rows[j]` and its target `ws.rows[back]`,
    the teacher rows `ws.gather` wrote, so no backbone block runs. Only
    adapter parameters receive gradients, keyed in `ws.mods.params` order;
    each adapter's VJP runs once, forms no input gradient, and writes its
    gradients into `ws.grads`, which are returned.
    """
    mods, rows, batch, grads = ws.mods, ws.rows, ws.batch, ws.grads
    tmp = ws.adapter_tmp + (None,)
    loss = 0.0
    for front, back in mods.static_set.segments:
        target = rows[back]
        for j in range(front + 1, back):
            x = rows[j]
            resid = adapter_forward(mods, j, x, out=ws.adapter_out)
            resid -= target  # == out - target, in place of the adapter's output
            loss += float((resid * resid).sum()) / batch
            resid *= 2.0 / batch  # == (2.0 / batch) * resid: IEEE multiplication commutes
            adapter_vjp(mods, j, x, ws.adapter_out[1], resid, grads, tmp, input_grad=False)
    return loss, grads


def stage1_step(ws: Stage1Workspace, opt: Adam) -> float:
    loss, _ = stage1_loss_and_grads(ws)
    opt.step(ws.mods.adapter_arena, ws.grad_arena)
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


@functools.cache
def _segment_offset_cdf(m: int) -> np.ndarray:
    """segment_offset_probs(m)'s CDF as Generator.choice builds it: the
    cumulative sum divided by its last entry. Cached and read-only."""
    cdf = segment_offset_probs(m).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def draw_selections(mods: SkipModules, batch: int,
                    rng: np.random.Generator) -> list[np.ndarray]:
    """Fresh per-sample draw for every segment: list of (batch,) layer ids.
    Early layers are favoured because their adapters summarize longer
    suffixes. Each draw is `rng.choice(m, p=segment_offset_probs(m),
    size=batch)`'s, the same offsets from the same generator state, read
    from the cached CDF."""
    out = []
    for front, back in mods.static_set.segments:
        cdf = _segment_offset_cdf(back - front - 1)
        out.append(front + 1 + cdf.searchsorted(rng.random(batch), side="right"))
    return out


def stage2_blend_forward(ws: Stage2Workspace, selections):
    """Soft-gate blended forward pass of `ws.model` over the batch's
    teacher rows `ws.rows`.

    One loop over the layers start .. depth, where start is segment 0's
    closing static layer (depth when there is no segment). The block inputs
    below start are the teacher's, `ws.rows[:start + 1]`, so blocks run only
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

    Block outputs, tanh activations, blends and the units' gathered
    inputs, outputs and blend terms (each unit's rows one slice of its
    segment's arrays) are written into `ws`, and each segment's blend cache
    into `ws.caches`, which stage2_loss_and_grads pops. Returns
    (actions, gates) with gates shaped (batch, n_segments).
    """
    model, mods = ws.model, ws.mods
    segments = mods.static_set.segments
    if len(selections) != len(segments):
        raise ConfigError("one selection array per segment required")
    depth, start, batch = mods.static_set.depth, ws.start, ws.batch
    gates = np.zeros((batch, len(segments)))
    closing = {back: si for si, (_, back) in enumerate(segments)}
    xs = list(ws.rows[:start + 1])  # xs[layer] is the input of block layer
    ws.caches.clear()
    for layer in range(start, depth + 1):
        if layer in closing:
            si = closing[layer]
            front, back = segments[si]
            sel = np.asarray(selections[si])
            if sel.shape != (batch,):
                raise ConfigError("selection shape must match the batch")
            full = xs[back]
            blend = ws.blends[si]
            ux, uz, uhc, ua, uha = ws.unit_rows[si]
            mix, full_rows, _ = ws.blend_tmp
            one_minus_g = ws.gate_tmp[0]
            units, n_selected = [], 0
            for j in range(front + 1, back):
                idx = np.flatnonzero(sel == j)
                rows = slice(n_selected, n_selected + idx.size)  # this unit's workspace rows
                n_selected += idx.size
                if idx.size == 0:
                    units.append((j, None))
                    continue
                if idx.size == batch:
                    idx = slice(None)
                xj = _rows_of(xs[j], idx, ux[rows])
                hc, ha = uhc[rows], uha[rows]
                g = controller_forward(mods, j, xj, out=(uz[rows], hc))
                a = adapter_forward(mods, j, xj, out=(ua[rows], ha))
                # g[:, None] * a + (1.0 - g)[:, None] * full[idx], term by term
                ga = np.multiply(g[:, None], a, out=mix[rows])
                omg = np.subtract(1.0, g, out=one_minus_g[rows])
                fj = _rows_of(full, idx, full_rows[rows])
                ga += np.multiply(omg[:, None], fj, out=full_rows[rows])
                blend[idx] = ga
                gates[idx, si] = g
                units.append((j, (idx, xj, g, hc, a, ha)))
            if n_selected != batch:  # a row left out would keep the buffer's stale values
                raise ConfigError(f"segment {si} {(front, back)}: every selection must be "
                                  f"one of its dynamic layers {front + 1}..{back - 1}")
            ws.caches.append((back, full, units))
            xs[back] = blend
        if layer < depth:
            k = layer - start
            block_forward(model, layer, xs[layer], out=(ws.xs[k], ws.hs[k]))
            xs.append(ws.xs[k])
    return head_forward(model, xs[depth]), gates


def _rows_of(a: np.ndarray, idx, out: np.ndarray) -> np.ndarray:
    """a[idx]: `a` itself when idx is the whole batch's slice, else rows
    idx of `a` written into `out` (in range, so mode="clip" as in gather)."""
    return a if isinstance(idx, slice) else a.take(idx, axis=0, out=out, mode="clip")


def stage2_loss_and_grads(ws: Stage2Workspace, selections, targets, lam: float):
    """Blended task MSE plus lam * mean_batch sum_segments (1-g)*(back-sel).

    Gradients flow to controller and adapter parameters only, keyed in
    `ws.mods.params` order; frozen backbone blocks only propagate upstream
    gradients. One reverse loop over stage2_blend_forward's layers: each
    block's VJP, then the input gradients the blend VJP left for the
    samples that selected that layer. Segment 0's blend VJP runs last and
    forms no input gradient, because nothing below it trains. Each
    selected unit's VJP runs once; a unit no sample selected gets exact
    zeros. Everything batch-sized is written into `ws`, as
    stage2_blend_forward says, and the returned gradients are `ws.grads`.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    actions, gates = stage2_blend_forward(ws, selections)
    model, mods, batch, blends = ws.model, ws.mods, ws.batch, ws.caches
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
            _blend_vjp(ws, blend, dx, lam, inj, d_full)
            dx, spare = spare, dx
    return loss, task_loss, norm_loss, gates, ws.grads


def _blend_vjp(ws, blend, d_blend, lam, inj, d_full):
    """Backward through one segment's blend: splits the upstream gradient
    over the gate, adapter and full paths and writes the units' parameter
    gradients into the workspace. With `d_full`, it writes the gradient of
    the full path there and leaves each selected unit's input gradient in
    `inj` under its layer; without (segment 0), it forms neither."""
    back, full, units = blend
    mods, batch, grads = ws.mods, ws.batch, ws.grads
    input_grad = d_full is not None
    a_dz, a_t = ws.adapter_tmp
    c_dz, c_t = ws.controller_tmp
    a_dx, c_dx = ws.unit_dx
    du_rows, diff_rows, da_rows = ws.blend_tmp
    dg_rows, omg_rows = ws.gate_tmp
    lo = 0
    for j, unit in units:
        if unit is None:  # no sample selected layer j
            for kind in ("adapter", "controller"):
                for part in MLP_PARTS:
                    grads[f"{kind}{j}.{part}"].fill(0.0)
            continue
        idx, xj, g, hc, a, ha = unit
        rows = slice(lo, lo + len(g))  # this unit's rows of the temporaries
        lo += len(g)
        du = _rows_of(d_blend, idx, du_rows[rows])
        # (du * (a - full[idx])).sum(axis=1), one operation at a time
        diff = np.subtract(a, _rows_of(full, idx, diff_rows[rows]), out=diff_rows[rows])
        dg = np.multiply(du, diff, out=diff).sum(axis=1, out=dg_rows[rows])
        dg += -lam * (back - j) / batch
        da = np.multiply(g[:, None], du, out=da_rows[rows])
        dxa = adapter_vjp(mods, j, xj, ha, da, grads, (a_dz[rows], a_t[rows], a_dx[rows]),
                          input_grad)
        dxc = controller_vjp(mods, j, xj, hc, g, dg, grads,
                             (c_dz[rows], c_t[rows], c_dx[rows]), input_grad)
        if input_grad:
            omg = np.subtract(1.0, g, out=omg_rows[rows])
            d_full[idx] = np.multiply(omg[:, None], du, out=diff_rows[rows])
            dxa += dxc  # == dxa + dxc: IEEE addition commutes
            inj[j] = (idx, dxa)


def stage2_step(ws: Stage2Workspace, opt: Adam, targets, lam: float,
                rng: np.random.Generator):
    """One Adam step on the stage-2 loss of freshly drawn selections.
    Returns (loss, task_loss, norm_loss, mean gate); the mean gate is nan
    when every layer is static, so there is no gate."""
    selections = draw_selections(ws.mods, ws.batch, rng)
    loss, task_loss, norm_loss, gates, _ = stage2_loss_and_grads(ws, selections, targets, lam)
    opt.step(ws.mods.arena, ws.grad_arena)
    return loss, task_loss, norm_loss, float(gates.mean()) if gates.size else math.nan


# --- orchestration --------------------------------------------------------------

def estimate_skip_rate(model: PolicyModel, mods: SkipModules, obs, instr) -> float:
    """Fraction of dynamic layers skipped by the pure controller policy
    (allow points pinned at the segment starts) on probe rows; a 1-D obs and
    instr are one row. Every observation row needs its instruction row
    (ShapeError), and there must be at least one (DegenerateInputError)."""
    obs, instr = np.atleast_2d(obs), np.atleast_2d(instr)
    if len(obs) != len(instr):
        raise ShapeError(f"{len(obs)} probe observation rows but {len(instr)} instruction rows")
    if len(obs) == 0:
        raise DegenerateInputError("skip rate needs at least one probe row")
    n_dyn = len(mods.static_set.dynamic_layers)
    n_static = len(mods.static_set.indices)
    if n_dyn == 0:
        return 0.0
    executed = 0
    for o, c in zip(obs, instr):  # every static layer runs; the rest are dynamic
        _, trace = forward_skipped(model, mods, mods.static_set.segment_starts, o, c)
        executed += len(trace.executed_layers) - n_static
    return 1.0 - executed / (len(obs) * n_dyn)


def _write_stage_log(path, report: StageReport) -> None:
    """One row per step; stage 1 leaves the stage-2 columns empty."""
    extra = [report.task_losses, report.norm_losses, report.mean_gates]
    containers.write_csv(path, ["step", "loss", "task_loss", "norm_loss", "mean_gate"],
                         ([i, loss] + [col[i] if col else None for col in extra]
                          for i, loss in enumerate(report.losses)))


def distill_pipeline(model: PolicyModel, static_set, dataset: Dataset,
                     config: DistillConfig, tau: float = 0.5, log_dir=None):
    """Fresh skip modules for `static_set` (ConfigError for a static set of
    another depth than the model's), trained by stage-1 adapter regression
    then stage-2 joint blend training; returns (mods, reports).

    Divergence (non-finite loss) marks the stage's report and ends the run.
    The backbone is never modified.
    """
    mods = init_skip_modules(model, static_set, tau=tau, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    obs = dataset.obs
    instr = dataset.instr_onehot()
    n_rows = len(dataset)
    if n_rows < 1:
        raise ConfigError("empty distillation dataset")
    teacher = forward_recorded(model, obs, instr)[1]
    probe = slice(256)  # the leading rows the end-of-stage skip rate reads
    batch = min(config.batch_size, n_rows)

    def stage1(report, opt, ws, idx):
        report.losses.append(stage1_step(ws, opt))

    def stage2(report, opt, ws, idx):
        loss, task_loss, norm_loss, mean_gate = stage2_step(
            ws, opt, dataset.actions[idx], config.lam, rng)
        report.losses.append(loss)
        report.task_losses.append(task_loss)
        report.norm_losses.append(norm_loss)
        report.mean_gates.append(mean_gate)

    stages = [("stage1", config.stage1_steps, STAGE1_LR, stage1,
               functools.partial(Stage1Workspace, mods, batch)),
              ("stage2", config.stage2_steps, config.stage2_lr, stage2,
               functools.partial(Stage2Workspace, model, mods, batch))]
    reports: dict[str, StageReport] = {}
    for name, steps, lr, step, workspace in stages:
        report = reports[name] = StageReport(name=name)
        opt = Adam(lr=lr)
        ws = workspace()
        for _ in range(steps):
            idx = rng.integers(0, n_rows, size=batch)
            ws.gather(teacher, idx)
            step(report, opt, ws, idx)
            if not np.isfinite(report.losses[-1]):
                report.diverged = True
                break
        report.skip_rate = estimate_skip_rate(model, mods, obs[probe], instr[probe])
        if log_dir is not None:
            _write_stage_log(Path(log_dir) / f"{name}_log.csv", report)
        if report.diverged:
            break
    return mods, reports
