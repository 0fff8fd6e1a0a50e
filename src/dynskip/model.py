"""Residual MLP policy: an embedding of the `sim.OBS_DIM`-wide observation and
the instruction, depth-N residual tanh blocks, and a linear head to the
`sim.ACTION_DIM`-wide action, with full activation tracing and hand-derived
task-loss gradients. Forward functions take a sample or a (batch, dim) matrix.
Each block is the `numerics` two-layer unit plus a residual add; every layer
kernel keeps the contract stated at `numerics.mlp_forward` and returns one
value, its output.

Here only `task_loss_and_grads` passes out= to the kernels (the
distillation stages in `distill` do too, into their own workspaces), and
reads each block's tanh activation from the out pair it passed: it takes a
TaskWorkspace as its one state argument, reads the model from it, and
writes every activation, temporary and gradient of a training step into
it, so a step allocates no array of its own (numpy's iterator buffer
for a broadcast bias add, at most 64 KiB, is the largest transient left).
The gradients it returns are views into the workspace's gradient arena,
laid out as the model's parameter arena, and alias it until its next use;
Adam steps the two arenas. A caller that keeps the gradients of several
steps copies them or builds one workspace per step. Every other caller,
the batch-1 rollouts included, gets fresh arrays.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from . import containers, sim
from .errors import ShapeError
from .numerics import (
    MLP_PARTS,
    Params,
    affine_param_grads,
    as_f64,
    bind_affine,
    bind_mlp,
    flat_views,
    init_mlp,
    into_arena,
    mlp_forward,
    mlp_vjp,
    reject_unknown_keys,
    scaled_uniform,
)


@dataclass(frozen=True)
class PolicyConfig:
    """Instruction width, layer sizes and init seed; obs_dim and action_dim are sim's."""

    obs_dim: ClassVar[int] = sim.OBS_DIM
    action_dim: ClassVar[int] = sim.ACTION_DIM
    instr_dim: int = 5
    hidden_dim: int = 64
    depth: int = 12
    seed: int = 0

    def __post_init__(self):
        containers.check_int_fields(self, instr_dim=1, hidden_dim=1, depth=4)

    @property
    def input_dim(self) -> int:
        return self.obs_dim + self.instr_dim


class PolicyModel:
    """Weight container; the math lives in module-level functions.

    Construction copies `params` into one flat float64 `arena`, laid out in
    dict order, and keeps as `params` its own dict, in that order, whose
    every entry is a view into the arena (numerics.into_arena); the dict
    passed in is left as it was, so two models never share one. It then
    checks every weight against the config (ShapeError names a missing,
    mis-shaped or unexpected key) and binds each layer's (W.T, b) views
    once. Adam steps the arena in place, and every bound view sees it; an
    array passed in is no longer the model's, and an entry of `params`
    replaced later is not seen and needs a new PolicyModel. A copy
    (copy.deepcopy, pickle) is rebuilt from its own params, into its own
    arena.
    """

    def __init__(self, config: PolicyConfig, params: Params):
        self.config = config
        self.params = params = dict(params)
        self.arena = into_arena(params)
        d = config.hidden_dim
        self._embed = bind_affine(params, "embed.W", "embed.b", d, config.input_dim)
        self._blocks = tuple(bind_mlp(params, f"block{i}", d, d, d)
                             for i in range(config.depth))
        self._head = bind_affine(params, "head.W", "head.b", config.action_dim, d)
        reject_unknown_keys(params, ["embed.W", "embed.b", "head.W", "head.b"]
                            + [f"block{i}.{part}" for i in range(config.depth)
                               for part in MLP_PARTS])

    def __reduce__(self):
        return PolicyModel, (self.config, self.params)

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())


def build_policy(config: PolicyConfig) -> PolicyModel:
    """Deterministically initialize a policy from its config seed."""
    rng = np.random.default_rng(config.seed)
    d = config.hidden_dim
    params: Params = {}
    params["embed.W"] = scaled_uniform(rng, config.input_dim, (d, config.input_dim))
    params["embed.b"] = np.zeros(d)
    for i in range(config.depth):
        init_mlp(rng, params, f"block{i}", d, d, d)
    params["head.W"] = scaled_uniform(rng, d, (config.action_dim, d))
    params["head.b"] = np.zeros(config.action_dim)
    return PolicyModel(config, params)


def embed_forward(model: PolicyModel, obs, instr, out=None) -> np.ndarray:
    """The embedded input. With `out`, a (y, u) pair, the output is written
    into y and the embedding input [obs, instr] into u, as out= does."""
    cfg = model.config
    obs = np.asarray(obs, dtype=np.float64)
    instr = np.asarray(instr, dtype=np.float64)
    if obs.shape[-1] != cfg.obs_dim:
        raise ShapeError(f"obs has size {obs.shape[-1]}, expected {cfg.obs_dim}")
    if instr.shape[-1] != cfg.instr_dim:
        raise ShapeError(f"instr has size {instr.shape[-1]}, expected {cfg.instr_dim}")
    if obs.shape[:-1] != instr.shape[:-1]:
        raise ShapeError(f"obs and instr differ in rows: obs is {obs.shape}, "
                         f"instr is {instr.shape}")
    WT, b = model._embed
    if out is None:
        y = np.concatenate([obs, instr], axis=-1).dot(WT)
    else:
        y = np.concatenate([obs, instr], axis=-1, out=out[1]).dot(WT, out=out[0])
    y += b
    return y


def block_forward(model: PolicyModel, i: int, x: np.ndarray, out=None):
    """y = x + W2 @ tanh(W1 @ x + b1) + b2 for block i. `out` is a (y, h)
    pair, as for mlp_forward; y alone is returned."""
    if x.shape[-1] != model.config.hidden_dim:
        raise ShapeError(f"block{i}: x is {x.shape}, expected hidden size {model.config.hidden_dim}")
    y = mlp_forward(model._blocks[i], x, out)[0]
    y += x  # == x + (h @ W2T + b2): IEEE addition commutes
    return y


def block_vjp(model: PolicyModel, i: int, x, h, dy, param_grads: Params | None = None,
              out=None):
    """Input gradient of block i, the unit's plus the residual's dy, added in
    place into the unit's array. With param_grads given, the block's
    parameter gradients are stored in it, and `out` is used, as mlp_vjp
    does."""
    dx = mlp_vjp(model.params, f"block{i}", x, h, dy, param_grads, out)
    dx += dy  # == dy + dx: IEEE addition commutes
    return dx


def head_forward(model: PolicyModel, x: np.ndarray, out=None) -> np.ndarray:
    WT, b = model._head
    if x.shape[-1] != model.config.hidden_dim:
        raise ShapeError(f"head: x is {x.shape}, expected hidden size {model.config.hidden_dim}")
    y = x.dot(WT) if out is None else x.dot(WT, out=out)
    y += b
    return y


def forward_recorded(model: PolicyModel, obs, instr):
    """Run the full stack and record every hidden state.

    Returns (action, trace) where trace[0] is the embedded input and
    trace[i + 1] the output of block i; len(trace) == depth + 1.
    """
    x = embed_forward(model, obs, instr)
    trace = [x]
    for i in range(model.config.depth):
        x = block_forward(model, i, x)
        trace.append(x)
    return head_forward(model, x), trace


def mse_and_grad(pred: np.ndarray, targets: np.ndarray, out=None):
    """Mean squared error over all entries and its gradient w.r.t. pred. The
    error, then the gradient, is formed in `out` when given, as out= does."""
    if pred.shape != targets.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {targets.shape}")
    err = np.subtract(pred, targets, out=out)
    loss = float(np.mean(err * err))
    err *= 2.0 / err.size  # == (2.0 / err.size) * err: IEEE multiplication commutes
    return loss, err


class TaskWorkspace:
    """Every array that task_loss_and_grads writes for `batch` rows of
    `model`, allocated once: the embedding input `u`, the trace `xs` (the
    embedding output, then each block's output), each block's tanh
    activation `hs`, the head output `pred` and error `err`, the backward
    temporaries, and `grads`, which maps each parameter name, in
    `model.params` order, to a view into `grad_arena`, laid out as the
    model's arena."""

    def __init__(self, model: PolicyModel, batch: int):
        cfg = model.config
        d = cfg.hidden_dim
        self.model = model
        self.batch = batch
        self.u = np.empty((batch, cfg.input_dim))
        self.xs = [np.empty((batch, d)) for _ in range(cfg.depth + 1)]
        self.hs = [np.empty((batch, d)) for _ in range(cfg.depth)]
        self.pred, self.err = (np.empty((batch, cfg.action_dim)) for _ in range(2))
        self.dz, self.t, self.dx, self.spare = (np.empty((batch, d)) for _ in range(4))
        self.grad_arena, self.grads = flat_views(model.params)


def task_loss_and_grads(ws: TaskWorkspace, obs, instr, targets):
    """Batch MSE between the predicted actions of `ws.model` and target
    actions, with gradients for every model parameter, keyed in
    `ws.model.params` order. Each gradient is stored once: every block's
    VJP runs once, and the embedding's backward forms no input gradient.
    The batch must be nonempty and hold `ws.batch` rows (ShapeError).

    Every activation, temporary and gradient is written into `ws`. The
    returned gradients are `ws.grads`: views into `ws.grad_arena`, which
    the workspace's next use overwrites."""
    obs = as_f64(obs, "obs")
    instr = as_f64(instr, "instr")
    targets = as_f64(targets, "targets")
    if obs.ndim != 2 or obs.shape[0] == 0:
        raise ShapeError(f"task loss needs a nonempty 2-D batch, got obs of shape {obs.shape}")
    if ws.batch != len(obs):
        raise ShapeError(f"the workspace holds {ws.batch} rows, the batch has {len(obs)}")
    model, xs, hs, grads = ws.model, ws.xs, ws.hs, ws.grads
    embed_forward(model, obs, instr, out=(xs[0], ws.u))
    for i in range(model.config.depth):
        block_forward(model, i, xs[i], out=(xs[i + 1], hs[i]))
    loss, dpred = mse_and_grad(head_forward(model, xs[-1], out=ws.pred), targets, out=ws.err)

    dx, spare = ws.dx, ws.spare  # the input gradient alternates between these two
    affine_param_grads(xs[-1], dpred, out=(grads["head.W"], grads["head.b"]))
    np.matmul(dpred, model.params["head.W"], out=dx)
    for i in reversed(range(model.config.depth)):
        block_vjp(model, i, xs[i], hs[i], dx, grads, out=(ws.dz, ws.t, spare))
        dx, spare = spare, dx
    affine_param_grads(ws.u, dx, out=(grads["embed.W"], grads["embed.b"]))
    return loss, grads


_SCHEMA_VERSION = 2  # version 1 also saved obs_dim and action_dim, now the environment's


def save_policy(path, model: PolicyModel) -> None:
    header = {"kind": "policy", "schema_version": _SCHEMA_VERSION,
              "config": asdict(model.config)}
    containers.save_arrays(path, header, model.params)


def load_policy(path) -> PolicyModel:
    """ConfigError for no policy checkpoint of this schema or a config other
    than PolicyConfig's fields; ShapeError for a missing or mis-shaped weight."""
    header, arrays = containers.load_arrays(path)
    containers.check_header(header, "policy", _SCHEMA_VERSION, path, {"config": "dict"})
    config = containers.config_from_header(PolicyConfig, header["config"], path, "policy config")
    return PolicyModel(config, arrays)
