"""Skipping inference runtime.

Per-dynamic-layer gate controllers decide, from the current hidden state,
whether to jump straight to the segment's closing static layer through a
small adapter. Gate activity is gated in turn by per-segment allow points
that move with the trajectory-continuity signal (hysteresis: fast forward
on continuity drops, single-step retreat on recovery), and a verification
pass re-predicts the first post-drop action at full depth.

`forward_skipped` (controller gates) and `forward_random` (the random-skip
baseline) share one segment walk over the plan SkipModules builds once, and
differ only in the per-dynamic-layer skip decision they hand it.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import containers, flops, sim
from .errors import ConfigError, DegenerateInputError, ShapeError
from .model import PolicyModel, block_forward, embed_forward, forward_recorded, head_forward
from .numerics import (
    MLP_PARTS,
    Params,
    bind_mlp,
    init_mlp,
    l2_norm,
    mlp_forward,
    mlp_vjp,
    reject_unknown_keys,
    sigmoid,
)
from .profiler import StaticSet

MODES = ("full", "dysl", "controllers-only", "random-skip")


# --- skip modules ---------------------------------------------------------------

@dataclass
class SkipModules:
    """One gate controller and one suffix adapter per dynamic layer.

    Construction checks that the gate threshold tau lies in (0, 1)
    (ConfigError) and every weight against hidden_dim (ShapeError names a
    missing, mis-shaped or unexpected key), binds each layer's (W.T, b) views
    once and lays out the segment walk: `segment_plan` holds, per segment, the
    static layers before it and its (front, back), and `trailing_statics` the
    rest.
    As with PolicyModel, update `params` arrays in place; a replaced entry
    needs a new SkipModules.
    """

    static_set: StaticSet
    hidden_dim: int
    tau: float
    params: Params

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must be in (0, 1), got {self.tau}")
        p, d, da, dc = self.params, self.hidden_dim, self.adapter_dim, self.controller_dim
        self._adapters = {j: bind_mlp(p, f"adapter{j}", d, da, d)
                          for j in self.static_set.dynamic_layers}
        self._controllers = {j: bind_mlp(p, f"controller{j}", d, dc, 1)
                             for j in self.static_set.dynamic_layers}
        reject_unknown_keys(p, [f"{kind}{j}.{part}" for j in self.static_set.dynamic_layers
                                for kind in ("adapter", "controller")
                                for part in MLP_PARTS])
        plan, start = [], 0  # every layer outside the segments is static
        for front, back in self.static_set.segments:
            plan.append((range(start, front + 1), front, back))
            start = back
        self.segment_plan = tuple(plan)
        self.trailing_statics = range(start, self.static_set.depth)

    @property
    def adapter_dim(self) -> int:
        return flops.adapter_hidden_dim(self.hidden_dim)

    @property
    def controller_dim(self) -> int:
        return flops.controller_hidden_dim(self.hidden_dim)

    def adapter_keys(self) -> list[str]:
        return [k for k in self.params if k.startswith("adapter")]

    def controller_keys(self) -> list[str]:
        return [k for k in self.params if k.startswith("controller")]

    def copy(self) -> "SkipModules":
        return SkipModules(self.static_set, self.hidden_dim, self.tau,
                           {k: v.copy() for k, v in self.params.items()})


def check_depth(model: PolicyModel, static_set: StaticSet) -> None:
    """ConfigError unless the static set spans exactly the model's blocks:
    skip modules of another depth would drop or misplace layers silently."""
    if static_set.depth != model.config.depth:
        raise ConfigError(f"static set depth {static_set.depth} does not match "
                          f"the model's {model.config.depth}")


def init_skip_modules(model: PolicyModel, static_set: StaticSet,
                      tau: float = 0.5, seed: int = 0) -> SkipModules:
    """Scaled-uniform initialization of adapters/controllers, deterministic
    per seed. tau is the gate threshold for skipping."""
    check_depth(model, static_set)
    d = model.config.hidden_dim
    rng = np.random.default_rng(seed)
    params: Params = {}
    for j in static_set.dynamic_layers:
        init_mlp(rng, params, f"adapter{j}", d, flops.adapter_hidden_dim(d), d)
        init_mlp(rng, params, f"controller{j}", d, flops.controller_hidden_dim(d), 1)
    return SkipModules(static_set=static_set, hidden_dim=d, tau=tau, params=params)


def adapter_forward(mods: SkipModules, j: int, x, cache: bool = False):
    if x.shape[-1] != mods.hidden_dim:
        raise ShapeError(f"adapter{j}: x is {x.shape}, expected hidden size {mods.hidden_dim}")
    y, h = mlp_forward(mods._adapters[j], x)
    return (y, h) if cache else y


def adapter_vjp(mods: SkipModules, j: int, x, h, dy, param_grads: Params):
    return mlp_vjp(mods.params, f"adapter{j}", x, h, dy, param_grads)


def controller_forward(mods: SkipModules, j: int, x, cache: bool = False):
    """Gate value in (0, 1); scalar for a vector input, (B,) for a batch."""
    if x.shape[-1] != mods.hidden_dim:
        raise ShapeError(f"controller{j}: x is {x.shape}, expected hidden size {mods.hidden_dim}")
    z, h = mlp_forward(mods._controllers[j], x)
    g = sigmoid(z)
    g = g[..., 0] if g.ndim > 1 else float(g[0])
    return (g, h) if cache else g


def controller_vjp(mods: SkipModules, j: int, x, h, g, dg, param_grads: Params):
    dz = np.asarray(dg) * g * (1.0 - g)  # through the sigmoid
    dz = dz[..., None] if np.ndim(dz) else np.array([dz])
    return mlp_vjp(mods.params, f"controller{j}", x, h, dz, param_grads)


_SKIPMODS_SCHEMA_VERSION = 1


def save_skip_modules(path, mods: SkipModules) -> None:
    header = {
        "kind": "skip_modules",
        "schema_version": _SKIPMODS_SCHEMA_VERSION,
        "static_indices": list(mods.static_set.indices),
        "depth": mods.static_set.depth,
        "hidden_dim": mods.hidden_dim,
        "tau": mods.tau,
    }
    containers.save_arrays(path, header, mods.params)


def load_skip_modules(path) -> SkipModules:
    header, arrays = containers.load_arrays(path)
    containers.check_header(header, "skip_modules", _SKIPMODS_SCHEMA_VERSION, path)
    static_set = StaticSet(indices=tuple(header["static_indices"]),
                           depth=header["depth"])
    return SkipModules(static_set=static_set, hidden_dim=header["hidden_dim"],
                       tau=header["tau"], params=arrays)


# --- continuity and allow points -------------------------------------------------

def continuity(window, k: int) -> float:
    """Negative mean L2 difference of consecutive actions over the trailing
    window of up to k+1 actions. Short windows (episode warm-up) use however
    many pairs are available, keeping the mean normalization."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    acts = [np.asarray(a, dtype=np.float64) for a in list(window)[-(k + 1):]]
    if len(acts) < 2:
        raise DegenerateInputError("continuity needs at least two actions")
    total = 0.0
    for prev, cur in zip(acts[:-1], acts[1:]):
        total += float(np.linalg.norm(cur - prev))
    return -total / (len(acts) - 1)


@dataclass
class AllowPointState:
    """Per-segment skipping-allow points plus the continuity bookkeeping that
    drives them. Point l for segment (front, back) means: controllers are
    disabled (layers forced) strictly below l; confined to front < l <= back.
    `norms` keeps the distances of the last k action pairs, so a new
    continuity value costs one norm, not k."""

    static_set: StaticSet
    k: int
    points: list[int]
    window: deque = field(default_factory=deque)
    c_history: deque = field(default_factory=lambda: deque(maxlen=3))
    armed: bool = True
    norms: deque = field(default_factory=deque)

    @property
    def warm(self) -> bool:
        """True until a full window of k+1 actions has been observed."""
        return len(self.window) < self.k + 1


def init_allow_state(static_set: StaticSet, k: int) -> AllowPointState:
    if k < 1:
        raise ConfigError("k must be >= 1")
    points = [front + 1 for front, _ in static_set.segments]
    return AllowPointState(static_set=static_set, k=k, points=points,
                           window=deque(maxlen=k + 1), norms=deque(maxlen=k))


def _cached_continuity(norms) -> float:
    total = 0.0
    for n in norms:  # continuity()'s order; builtin sum() may compensate rounding
        total += n
    return -total / len(norms)


def observe_action(state: AllowPointState, action) -> None:
    state.window.append(np.asarray(action, dtype=np.float64).copy())
    if len(state.window) >= 2:
        state.norms.append(l2_norm(state.window[-1] - state.window[-2]))
        state.c_history.append(_cached_continuity(state.norms))


def replace_last_action(state: AllowPointState, action) -> None:
    """Swap the newest window action (verification re-prediction) and
    recompute the newest pair distance and continuity value from it."""
    state.window[-1] = np.asarray(action, dtype=np.float64).copy()
    if state.c_history:
        state.norms[-1] = l2_norm(state.window[-1] - state.window[-2])
        state.c_history[-1] = _cached_continuity(state.norms)


def update_allow_points(state: AllowPointState, c_t: float, c_prev: float,
                        eta: float, stride: int | None = None) -> AllowPointState:
    """Hysteresis move of every allow point from the continuity change.

    A drop (c_t - c_prev < -eta) advances points by ceil(|dC| / eta)
    (or the constant `stride` when given), clamped at the closing static
    layer; a rise (> eta) retreats by exactly one, clamped just after the
    opening static layer; the dead band leaves points unchanged.
    """
    if eta <= 0:
        raise ConfigError("eta must be positive")
    dc = c_t - c_prev
    segments = state.static_set.segments
    if dc < -eta:
        dl = int(stride) if stride is not None else math.ceil(abs(dc) / eta)
        if dl < 1:
            raise ConfigError("stride must be >= 1")
        state.points = [min(back, l + dl)
                        for (front, back), l in zip(segments, state.points)]
    elif dc > eta:
        state.points = [max(front + 1, l - 1)
                        for (front, back), l in zip(segments, state.points)]
    return state


def should_verify(armed: bool, delta_c: float, eta: float) -> bool:
    """Verification trigger: fire only on the first continuity drop after
    (re-)arming; re-arming happens when delta_c returns above -eta."""
    return armed and delta_c < -eta


# --- skipping forward passes ------------------------------------------------------

@dataclass
class ExecTrace:
    """Per-inference execution record; the latency proxy.

    executed_layers is the path that produced the returned action (all
    layers for a verified re-run, with the discarded first pass preserved in
    skip_run_layers so its cost stays accounted)."""

    executed_layers: list[int]
    controllers_evaluated: list[int] = field(default_factory=list)
    adapters_invoked: list[int] = field(default_factory=list)
    skipped_segments: list[int] = field(default_factory=list)
    verified: bool = False
    skip_run_layers: list[int] | None = None
    flops: int = 0

    @property
    def block_executions(self) -> int:
        first = len(self.skip_run_layers) if self.verified else 0
        return first + len(self.executed_layers)


def forward_full(model: PolicyModel, costs: flops.ArchCosts, obs, instr):
    action, _ = forward_recorded(model, obs, instr)
    return action, ExecTrace(executed_layers=list(range(costs.depth)),
                             flops=flops.forward_flops(costs, costs.depth))


def _walk(model: PolicyModel, mods: SkipModules, decide, obs, instr,
          costs: flops.ArchCosts | None):
    """The one segment walk. Static layers always execute; within a segment
    each dynamic layer runs its block until decide(trace, segment index,
    layer, x) is true, when the layer's adapter carries x straight to the
    closing static layer."""
    check_depth(model, mods.static_set)
    if costs is None:
        costs = flops.arch_costs(model.config)
    x = embed_forward(model, obs, instr)
    trace = ExecTrace(executed_layers=[])
    executed = trace.executed_layers
    for si, (statics, front, back) in enumerate(mods.segment_plan):
        for layer in statics:
            x = block_forward(model, layer, x)
            executed.append(layer)
        for j in range(front + 1, back):
            if decide(trace, si, j, x):
                x = adapter_forward(mods, j, x)
                trace.adapters_invoked.append(j)
                trace.skipped_segments.append(si)
                break
            x = block_forward(model, j, x)
            executed.append(j)
    for layer in mods.trailing_statics:
        x = block_forward(model, layer, x)
        executed.append(layer)
    action = head_forward(model, x)
    trace.flops = flops.flop_estimate(costs, executed, trace.controllers_evaluated,
                                      trace.adapters_invoked)
    return action, trace


def forward_skipped(model: PolicyModel, mods: SkipModules, points, obs, instr,
                    costs: flops.ArchCosts | None = None):
    """Skipping forward pass under the given allow points.

    Per segment: layers below the segment's point execute unconditionally
    with controllers disabled; from the point on, each dynamic layer's
    controller is evaluated first, and a gate above tau routes the hidden
    state through that layer's adapter straight to the closing static layer.
    Static layers always execute.
    """
    segments = mods.static_set.segments
    if len(points) != len(segments):
        raise ShapeError(f"{len(points)} allow points for {len(segments)} segments")
    for seg, point in zip(segments, points):
        if not seg[0] < point <= seg[1]:
            raise ConfigError(f"allow point {point} outside segment {seg}")

    def gate(trace, si, j, x):
        if j < points[si]:
            return False
        trace.controllers_evaluated.append(j)
        return controller_forward(mods, j, x) > mods.tau

    return _walk(model, mods, gate, obs, instr, costs)


def forward_random(model: PolicyModel, mods: SkipModules, p: float,
                   rng: np.random.Generator, obs, instr,
                   costs: flops.ArchCosts | None = None):
    """Random-skip baseline: every dynamic layer skips i.i.d. with
    probability p (through its adapter, jumping to the closing static
    layer); controllers are never consulted. One draw per dynamic layer
    visited, so a segment's draws stop at its first skip."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError("skip probability must be in [0, 1]")
    return _walk(model, mods, lambda trace, si, j, x: rng.random() < p,
                 obs, instr, costs)


# --- episode rollout --------------------------------------------------------------

@dataclass(frozen=True)
class GuidanceConfig:
    k: int = 5
    eta: float = 0.004
    stride: int | None = None   # None = adaptive ceil(|dC| / eta)
    verification: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.eta <= 0:
            raise ConfigError("eta must be positive")
        if self.stride is not None and self.stride < 1:
            raise ConfigError("stride must be >= 1")


@dataclass
class StepRecord:
    step: int
    trace: ExecTrace
    continuity: float | None
    allow_points: list[int] | None


@dataclass
class Episode:
    mode: str
    task_seed: int
    steps: list = field(default_factory=list)     # StepRecord
    actions: list = field(default_factory=list)
    events: list = field(default_factory=list)
    success_length: int = 0
    success: bool = False
    diverged: bool = False
    diagnostic: str = ""

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def post_skip_verify(model: PolicyModel, costs, allow_state: AllowPointState,
                     trace: ExecTrace, obs, instr, eta: float):
    """On the first armed continuity drop, re-predict the current action at
    full depth, merge the compute of both passes into one trace, and
    recompute the newest continuity value from the replacement.

    Returns (action, trace, fired) with fired False when the trigger did not
    fire; a drop on a step that skipped nothing disarms without a re-run
    because the re-prediction would be identical.
    """
    hist = allow_state.c_history
    if len(hist) < 2:
        return None, trace, False
    dc = hist[-1] - hist[-2]
    if not should_verify(allow_state.armed, dc, eta):
        return None, trace, False
    allow_state.armed = False
    if not trace.skipped_segments:
        return None, trace, False
    action, _ = forward_recorded(model, obs, instr)
    merged = ExecTrace(
        executed_layers=list(range(costs.depth)),
        controllers_evaluated=trace.controllers_evaluated,
        adapters_invoked=trace.adapters_invoked,
        skipped_segments=trace.skipped_segments,
        verified=True,
        skip_run_layers=trace.executed_layers,
        flops=trace.flops + flops.forward_flops(costs, costs.depth),
    )
    replace_last_action(allow_state, action)
    return action, merged, True


def rollout_episode(task: sim.Task, model: PolicyModel, mods: SkipModules | None,
                    mode: str, guidance: GuidanceConfig,
                    rng: np.random.Generator | None = None,
                    random_skip_prob: float = 0.0) -> Episode:
    """Closed-loop rollout in one of the benchmark modes.

    full: every step at full depth. dysl: skipping with allow-point guidance
    and verification, with skipping disabled for the first k+1 warm-up
    steps. controllers-only: allow points pinned at the segment starts, no
    continuity machinery. random-skip: i.i.d. skipping at random_skip_prob.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode != "full" and mods is None:
        raise ConfigError(f"mode {mode!r} requires skip modules")
    if mode == "random-skip" and rng is None:
        raise ConfigError("random-skip mode needs an rng")
    cfg = task.config
    costs = flops.arch_costs(model.config)
    n_instr = model.config.instr_dim
    allow = None
    pinned = None
    if mode == "dysl":
        allow = init_allow_state(mods.static_set, guidance.k)
    elif mode == "controllers-only":
        pinned = [front + 1 for front, _ in mods.static_set.segments]

    episode = Episode(mode=mode, task_seed=task.seed)
    state = sim.reset_state(task)
    while state.subtask < cfg.subtasks and state.steps_in_subtask < cfg.step_cap:
        obs, instr_id = sim.observe(task, state)
        instr = sim.instr_onehot(instr_id, n_instr)
        c_t = None
        points_log = None
        if mode == "full":
            action, trace = forward_full(model, costs, obs, instr)
        elif mode == "controllers-only":
            action, trace = forward_skipped(model, mods, pinned, obs, instr, costs)
        elif mode == "random-skip":
            action, trace = forward_random(model, mods, random_skip_prob, rng,
                                           obs, instr, costs)
        else:  # dysl
            if allow.warm:
                action, trace = forward_full(model, costs, obs, instr)
            else:
                action, trace = forward_skipped(model, mods, allow.points, obs,
                                                instr, costs)
            observe_action(allow, action)
            if not allow.warm and len(allow.c_history) >= 2:
                if guidance.verification:
                    redo, trace, fired = post_skip_verify(
                        model, costs, allow, trace, obs, instr, guidance.eta)
                    if fired:
                        action = redo
                c_t, c_prev = allow.c_history[-1], allow.c_history[-2]
                if c_t - c_prev >= -guidance.eta:
                    allow.armed = True
                update_allow_points(allow, c_t, c_prev, guidance.eta,
                                    guidance.stride)
            points_log = list(allow.points)

        if not np.isfinite(action).all():
            episode.diverged = True
            episode.diagnostic = "policy produced a non-finite action"
            break
        episode.steps.append(StepRecord(step=state.total_steps, trace=trace,
                                        continuity=c_t, allow_points=points_log))
        episode.actions.append(np.asarray(action, dtype=np.float64))
        state, events = sim.env_step(task, state, action)
        for ev in events:
            episode.events.append((state.total_steps - 1, ev))
    episode.success_length, episode.success = sim.score_rollout(task, episode.events)
    if episode.diverged:
        episode.success_length, episode.success = 0, False
    return episode


# --- trace dump --------------------------------------------------------------------

TRACE_SCHEMA_VERSION = 1


def episode_trace_lines(episode: Episode) -> list[str]:
    """JSON-lines serialization: a header record then one record per step."""
    header = {
        "kind": "episode_trace",
        "schema_version": TRACE_SCHEMA_VERSION,
        "mode": episode.mode,
        "task_seed": episode.task_seed,
        "success_length": episode.success_length,
        "success": episode.success,
        "diverged": episode.diverged,
        "n_steps": episode.n_steps,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for rec in episode.steps:
        row = {
            "step": rec.step,
            "executed_layers": rec.trace.executed_layers,
            "controllers_evaluated": rec.trace.controllers_evaluated,
            "skipped_segments": rec.trace.skipped_segments,
            "adapters_invoked": rec.trace.adapters_invoked,
            "C_t": rec.continuity,
            "allow_points": rec.allow_points,
            "verified": rec.trace.verified,
            "flops": rec.trace.flops,
        }
        if rec.trace.verified:
            row["skip_run_layers"] = rec.trace.skip_run_layers
        lines.append(json.dumps(row, sort_keys=True))
    return lines


def write_episode_trace(path, episode: Episode) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(episode_trace_lines(episode)) + "\n", encoding="utf-8")


def read_episode_trace(path) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        containers.check_header(header, "episode_trace", TRACE_SCHEMA_VERSION, path)
        records = [json.loads(line) for line in fh]
    return header, records
