"""Residual MLP policy: an input embedding, depth-N residual tanh blocks, and
a linear action head, with full activation tracing and hand-derived task-loss
gradients. Forward functions accept a single sample or a (batch, dim) matrix.
Each block is the `numerics` two-layer unit plus a residual add; every layer
kernel keeps the contract stated at `numerics.mlp_forward`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import containers
from .errors import ConfigError, ShapeError
from .numerics import (
    MLP_PARTS,
    Params,
    affine_vjp,
    as_f64,
    bind_affine,
    bind_mlp,
    init_mlp,
    mlp_forward,
    mlp_vjp,
    reject_unknown_keys,
    scaled_uniform,
)


@dataclass(frozen=True)
class PolicyConfig:
    obs_dim: int = 7
    instr_dim: int = 5
    hidden_dim: int = 64
    depth: int = 12
    action_dim: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("obs_dim", "instr_dim", "hidden_dim", "action_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.depth < 4:
            raise ConfigError("depth must be >= 4")

    @property
    def input_dim(self) -> int:
        return self.obs_dim + self.instr_dim


class PolicyModel:
    """Weight container; the math lives in module-level functions.

    Construction checks every weight against the config (ShapeError names a
    missing, mis-shaped or unexpected key) and binds each layer's (W.T, b)
    views once. The views share memory with `params`, so update its arrays in
    place (as Adam does); a replaced dict entry is not seen and needs a new
    PolicyModel.
    """

    def __init__(self, config: PolicyConfig, params: Params):
        self.config = config
        self.params = params
        d = config.hidden_dim
        self._embed = bind_affine(params, "embed.W", "embed.b", d, config.input_dim)
        self._blocks = tuple(bind_mlp(params, f"block{i}", d, d, d)
                             for i in range(config.depth))
        self._head = bind_affine(params, "head.W", "head.b", config.action_dim, d)
        reject_unknown_keys(params, ["embed.W", "embed.b", "head.W", "head.b"]
                            + [f"block{i}.{part}" for i in range(config.depth)
                               for part in MLP_PARTS])

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def copy(self) -> "PolicyModel":
        return PolicyModel(self.config, {k: v.copy() for k, v in self.params.items()})


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


def embed_forward(model: PolicyModel, obs, instr) -> np.ndarray:
    cfg = model.config
    obs = np.asarray(obs, dtype=np.float64)
    instr = np.asarray(instr, dtype=np.float64)
    if obs.shape[-1] != cfg.obs_dim:
        raise ShapeError(f"obs has size {obs.shape[-1]}, expected {cfg.obs_dim}")
    if instr.shape[-1] != cfg.instr_dim:
        raise ShapeError(f"instr has size {instr.shape[-1]}, expected {cfg.instr_dim}")
    WT, b = model._embed
    y = np.dot(np.concatenate([obs, instr], axis=-1), WT)
    y += b
    return y


def block_forward(model: PolicyModel, i: int, x: np.ndarray, cache: bool = False):
    """y = x + W2 @ tanh(W1 @ x + b1) + b2 for block i."""
    if x.shape[-1] != model.config.hidden_dim:
        raise ShapeError(f"block{i}: x is {x.shape}, expected hidden size {model.config.hidden_dim}")
    y, h = mlp_forward(model._blocks[i], x)
    y += x  # == x + (h @ W2T + b2): IEEE addition commutes
    return (y, h) if cache else y


def block_vjp(model: PolicyModel, i: int, x, h, dy, param_grads: Params | None = None):
    """VJP through block i; accumulates parameter grads into param_grads when given."""
    return dy + mlp_vjp(model.params, f"block{i}", x, h, dy, param_grads)


def head_forward(model: PolicyModel, x: np.ndarray) -> np.ndarray:
    WT, b = model._head
    if x.shape[-1] != model.config.hidden_dim:
        raise ShapeError(f"head: x is {x.shape}, expected hidden size {model.config.hidden_dim}")
    y = np.dot(x, WT)
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


def mse_and_grad(pred: np.ndarray, targets: np.ndarray):
    """Mean squared error over all entries and its gradient w.r.t. pred."""
    if pred.shape != targets.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {targets.shape}")
    err = pred - targets
    loss = float(np.mean(err * err))
    return loss, (2.0 / err.size) * err


def task_loss_and_grads(model: PolicyModel, obs, instr, targets):
    """Batch MSE between predicted and target actions, with gradients for
    every model parameter. The batch must be nonempty."""
    obs = as_f64(obs, "obs")
    instr = as_f64(instr, "instr")
    targets = as_f64(targets, "targets")
    if obs.ndim != 2 or obs.shape[0] == 0:
        raise ValueError("task loss needs a nonempty 2-D batch")
    cfg = model.config
    x = embed_forward(model, obs, instr)
    xs = [x]
    hs = []
    for i in range(cfg.depth):
        x, h = block_forward(model, i, x, cache=True)
        xs.append(x)
        hs.append(h)
    pred = head_forward(model, x)
    loss, dpred = mse_and_grad(pred, targets)

    grads: Params = {k: np.zeros_like(v) for k, v in model.params.items()}
    dW, db, dx = affine_vjp(model.params["head.W"], xs[-1], dpred)
    grads["head.W"] += dW
    grads["head.b"] += db
    for i in reversed(range(cfg.depth)):
        dx = block_vjp(model, i, xs[i], hs[i], dx, grads)
    u = np.concatenate([obs, instr], axis=-1)
    dW, db, _ = affine_vjp(model.params["embed.W"], u, dx)
    grads["embed.W"] += dW
    grads["embed.b"] += db
    return loss, grads


_SCHEMA_VERSION = 1


def save_policy(path, model: PolicyModel) -> None:
    header = {"kind": "policy", "schema_version": _SCHEMA_VERSION,
              "config": asdict(model.config)}
    containers.save_arrays(path, header, model.params)


def load_policy(path) -> PolicyModel:
    header, arrays = containers.load_arrays(path)
    containers.check_header(header, "policy", _SCHEMA_VERSION, path)
    return PolicyModel(PolicyConfig(**header["config"]), arrays)
