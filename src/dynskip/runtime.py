"""Skipping inference runtime.

Per-dynamic-layer gate controllers decide, from the current hidden state,
whether to jump straight to the segment's closing static layer through a
small adapter. Gate activity is gated in turn by per-segment allow points
that move with the trajectory-continuity signal (hysteresis: fast forward
on continuity drops, single-step retreat on recovery), and a verification
pass re-predicts the first post-drop action at full depth. It resumes from
the skip pass's input to its first skipped layer and re-runs only that
layer, the layers above it and the head: every layer below ran in the skip
pass, unskipped and with the same kernels, so the re-prediction equals a
fresh full-depth pass bit for bit.

An AllowPointState holds the guidance state and carries its GuidanceConfig,
so each guidance step takes the state alone and reads `k` and `eta` from it.
`observe_action` alone appends to its `window` and `c_history`, which
dysl's step, `update_allow_points` and `post_skip_verify` read;
`update_allow_points` alone moves its `points`, and `post_skip_verify`
alone reads and writes `armed`.

`forward_skipped` (controller gates) and `forward_random` (the random-skip
baseline) share one segment walk over the plan SkipModules builds once, and
differ only in the per-dynamic-layer skip decision they hand it.

`MODES` maps each mode's name to its step factory, called once per
episode, which checks that its mode can run (skipping needs skip modules,
random-skip an rng) and returns the step, (obs, instr) -> (action,
ExecTrace, continuity, allow_points), the last two None outside dysl. full
runs every layer, controllers-only gates from the segment starts and
random-skip skips i.i.d. at random_skip_prob; dysl's step owns the
episode's AllowPointState, runs k+1 full-depth warm-up steps, then gates
from the allow points and verifies. `rollout_episode` branches on no mode:
it hands the step to `sim.run_episode`, the one closed loop, as its policy
(`sim.env_step` alone judges divergence, and a diverging step keeps its
record as a zero action), and prices each final step with `flops.flop_estimate`.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import containers, flops, sim
from .errors import ConfigError, ShapeError, TraceIntegrityError
from .model import PolicyModel, block_forward, embed_forward, forward_recorded, head_forward
from .numerics import (
    MLP_PARTS,
    Params,
    bind_mlp,
    gate_forward,
    init_mlp,
    into_arena,
    l2_norm,
    mlp_forward,
    mlp_vjp,
    reject_unknown_keys,
    sigmoid,
)
from .profiler import StaticSet
from .sim import Episode  # the one episode type, re-exported as runtime.Episode


# --- skip modules ---------------------------------------------------------------

@dataclass
class SkipModules:
    """One gate controller and one suffix adapter per dynamic layer.

    Construction checks that the gate threshold tau lies in (0, 1)
    (ConfigError) and every weight against hidden_dim (ShapeError names a
    missing, mis-shaped or unexpected key), binds each layer's (W.T, b) views
    and each gate's second-layer row W2[0] once and lays out the segment
    walk: `segment_plan` holds, per segment, the static layers before it and
    its (front, back), and `trailing_statics` the rest.

    As PolicyModel does, construction first copies `params` into one flat
    float64 `arena` and keeps as `params` its own dict, in the same order,
    of views into it; the dict passed in (dataclasses.replace passes this
    one's) is left as it was. The arena lays out every adapter before every
    controller (`layout` lists the keys in arena order), so stage 1's
    trained set is the prefix `adapter_arena`. An array passed in is no
    longer the modules', an entry of `params` replaced later needs a new
    SkipModules, and a copy is rebuilt into its own arena.
    """

    static_set: StaticSet
    hidden_dim: int
    tau: float
    params: Params

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must be in (0, 1), got {self.tau}")
        self.params = p = dict(self.params)
        d = self.hidden_dim
        da = self.adapter_dim = flops.adapter_hidden_dim(d)
        dc = self.controller_dim = flops.controller_hidden_dim(d)
        # adapters first, each kind in dict order (sorted is stable)
        self.layout = tuple(sorted(p, key=lambda k: not k.startswith("adapter")))
        self.arena = into_arena(p, self.layout)
        self.adapter_arena = self.arena[:sum(p[k].size for k in p if k.startswith("adapter"))]
        self._adapters = {j: bind_mlp(p, f"adapter{j}", d, da, d)
                          for j in self.static_set.dynamic_layers}
        self._controllers = {j: bind_mlp(p, f"controller{j}", d, dc, 1)
                             for j in self.static_set.dynamic_layers}
        self._gate_w2 = {j: p[f"controller{j}.W2"][0] for j in self._controllers}
        reject_unknown_keys(p, [f"{kind}{j}.{part}" for j in self.static_set.dynamic_layers
                                for kind in ("adapter", "controller")
                                for part in MLP_PARTS])
        plan, start = [], 0  # every layer outside the segments is static
        for front, back in self.static_set.segments:
            plan.append((range(start, front + 1), front, back))
            start = back
        self.segment_plan = tuple(plan)
        self.trailing_statics = range(start, self.static_set.depth)

    def __reduce__(self):
        return SkipModules, (self.static_set, self.hidden_dim, self.tau, self.params)


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


def adapter_forward(mods: SkipModules, j: int, x, out=None):
    """Adapter j's output y. `out` is a (y, h) pair, as for mlp_forward; a
    training step reads the tanh activation h from it."""
    if x.shape[-1] != mods.hidden_dim:
        raise ShapeError(f"adapter{j}: x is {x.shape}, expected hidden size {mods.hidden_dim}")
    return mlp_forward(mods._adapters[j], x, out)[0]


def adapter_vjp(mods: SkipModules, j: int, x, h, dy, param_grads: Params, out=None,
                input_grad: bool = True):
    """Input gradient of adapter j; its parameter gradients are stored in
    param_grads, as mlp_vjp does, so run it at most once per dict. `out`
    and `input_grad` are mlp_vjp's."""
    return mlp_vjp(mods.params, f"adapter{j}", x, h, dy, param_grads, out, input_grad)


def controller_forward(mods: SkipModules, j: int, x, out=None):
    """Gate value in (0, 1). A vector x takes the batch-1 gate kernel
    gate_forward and gives a Python float; `out` is not written. A (B, d)
    batch gives (B,) gates. There `out` is a (z, h) pair, as for
    mlp_forward: the unit's output z is written there and the gate formed
    in it in place, so the gates returned are a view of z, and a training
    step reads the tanh activation h from the pair."""
    if x.shape[-1] != mods.hidden_dim:
        raise ShapeError(f"controller{j}: x is {x.shape}, expected hidden size {mods.hidden_dim}")
    if x.ndim == 1:
        return gate_forward(mods._controllers[j], mods._gate_w2[j], x)
    z = mlp_forward(mods._controllers[j], x, out)[0]
    return sigmoid(z, None if out is None else z)[..., 0]


def controller_vjp(mods: SkipModules, j: int, x, h, g, dg, param_grads: Params, out=None,
                   input_grad: bool = True):
    """Input gradient of controller j given the (B,) gates g and upstream
    dg; its parameter gradients are stored in param_grads, as mlp_vjp does,
    so run it at most once per dict. `out` and `input_grad` are mlp_vjp's."""
    dz = dg * g * (1.0 - g)  # through the sigmoid
    return mlp_vjp(mods.params, f"controller{j}", x, h, dz[:, None], param_grads, out,
                   input_grad)


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
    containers.check_header(header, "skip_modules", _SKIPMODS_SCHEMA_VERSION, path,
                            {"static_indices": "list[int]", "depth": "int",
                             "hidden_dim": "int", "tau": "float"})
    static_set = StaticSet(indices=tuple(header["static_indices"]),
                           depth=header["depth"])
    return SkipModules(static_set=static_set, hidden_dim=header["hidden_dim"],
                       tau=header["tau"], params=arrays)


# --- continuity and allow points -------------------------------------------------

@dataclass
class AllowPointState:
    """Per-segment skipping-allow points plus the continuity bookkeeping that
    drives them, under one GuidanceConfig whose `k` and `eta` every guidance
    step reads. Point l for segment (front, back) means: controllers are
    disabled (layers forced) strictly below l; confined to front < l <= back.
    The points start at the segment starts. `observe_action` alone appends
    to `window` (the last two actions), `norms` (the last k pair distances,
    so a new continuity value costs one norm, not k) and `c_history` (the
    last two continuity values); `update_allow_points` alone moves `points`;
    the verification trigger `armed` is read and written only by
    `post_skip_verify`."""

    static_set: StaticSet
    guidance: GuidanceConfig
    points: list[int] = field(init=False)
    window: deque = field(init=False, default_factory=lambda: deque(maxlen=2))
    c_history: deque = field(init=False, default_factory=lambda: deque(maxlen=2))
    armed: bool = field(init=False, default=True)
    norms: deque = field(init=False)

    def __post_init__(self):
        self.points = list(self.static_set.segment_starts)
        self.norms = deque(maxlen=self.guidance.k)

    @property
    def warm(self) -> bool:
        """True until a full window of k+1 actions has been observed."""
        return len(self.norms) < self.guidance.k


def observe_action(state: AllowPointState, action) -> None:
    """Append an action and, from the second on, its pair distance (the L2
    norm of its difference from the action before) and the continuity value:
    minus the mean of the last k pair distances, or of all of them while
    fewer than k have been observed (episode warm-up)."""
    state.window.append(np.asarray(action, dtype=np.float64).copy())
    if len(state.window) >= 2:
        state.norms.append(l2_norm(state.window[-1] - state.window[-2]))
        total = 0.0
        for n in state.norms:  # left to right: builtin sum() may compensate rounding
            total += n
        state.c_history.append(-total / len(state.norms))


def replace_last_action(state: AllowPointState, action) -> None:
    """Swap the newest action (verification re-prediction): drop the newest
    action, pair distance and continuity value, then observe the
    replacement. Needs two observed actions."""
    state.window.pop()
    state.norms.pop()
    state.c_history.pop()
    observe_action(state, action)


def update_allow_points(state: AllowPointState) -> None:
    """Hysteresis move of every allow point from the continuity change
    dC = c_history[-1] - c_history[-2] (two values: the caller's guarantee).

    A drop (dC < -eta) advances points by ceil(|dC| / eta), clamped at the
    closing static layer; a rise (> eta) retreats by exactly one, clamped
    just after the opening static layer; the dead band leaves points
    unchanged.
    """
    eta = state.guidance.eta
    dc = state.c_history[-1] - state.c_history[-2]
    segments = state.static_set.segments
    if dc < -eta:
        dl = math.ceil(abs(dc) / eta)
        state.points = [min(back, l + dl)
                        for (front, back), l in zip(segments, state.points)]
    elif dc > eta:
        state.points = [max(front + 1, l - 1)
                        for (front, back), l in zip(segments, state.points)]


# --- skipping forward passes ------------------------------------------------------

@dataclass
class ExecTrace:
    """Per-inference execution record; the latency proxy.

    executed_layers lists every block the step ran, in order: the pass's
    path, then on a verified step the re-run's blocks s..depth-1 from the
    pass's first skipped layer s = adapters_invoked[0], which
    post_skip_verify appends. flops is that work, priced by rollout_episode
    once the step is final (flops.flop_estimate), and None on a record no
    rollout priced. resume_input is the pass's input to layer s, handed to
    the re-run; it lives for one step and is never dumped."""

    executed_layers: list[int]
    controllers_evaluated: list[int] = field(default_factory=list)
    adapters_invoked: list[int] = field(default_factory=list)
    verified: bool = False
    flops: int | None = None
    resume_input: np.ndarray | None = field(default=None, repr=False, compare=False)


def forward_full(model: PolicyModel, obs, instr):
    action, _ = forward_recorded(model, obs, instr)
    return action, ExecTrace(executed_layers=list(range(model.config.depth)))


def _walk(model: PolicyModel, mods: SkipModules, decide, obs, instr):
    """The one segment walk. Static layers always execute; within a segment
    each dynamic layer runs its block until decide(trace, segment index,
    layer, x) is true, when the layer's adapter carries x straight to the
    closing static layer. The first such x is kept as trace.resume_input."""
    check_depth(model, mods.static_set)
    x = embed_forward(model, obs, instr)
    trace = ExecTrace(executed_layers=[])
    executed = trace.executed_layers
    for si, (statics, front, back) in enumerate(mods.segment_plan):
        for layer in statics:
            x = block_forward(model, layer, x)
            executed.append(layer)
        for j in range(front + 1, back):
            if decide(trace, si, j, x):
                if not trace.adapters_invoked:
                    trace.resume_input = x
                x = adapter_forward(mods, j, x)
                trace.adapters_invoked.append(j)
                break
            x = block_forward(model, j, x)
            executed.append(j)
    for layer in mods.trailing_statics:
        x = block_forward(model, layer, x)
        executed.append(layer)
    return head_forward(model, x), trace


def forward_skipped(model: PolicyModel, mods: SkipModules, points, obs, instr):
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

    return _walk(model, mods, gate, obs, instr)


def forward_random(model: PolicyModel, mods: SkipModules, p: float,
                   rng: np.random.Generator, obs, instr):
    """Random-skip baseline: every dynamic layer skips i.i.d. with
    probability p (through its adapter, jumping to the closing static
    layer); controllers are never consulted. One draw per dynamic layer
    visited, so a segment's draws stop at its first skip."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError("skip probability must be in [0, 1]")
    return _walk(model, mods, lambda trace, si, j, x: rng.random() < p, obs, instr)


# --- episode rollout --------------------------------------------------------------

@dataclass(frozen=True)
class GuidanceConfig:
    k: int = 5
    eta: float = 0.004
    verification: bool = True

    def __post_init__(self):  # a float k breaks deque
        containers.check_int_fields(self, k=1)
        if not 0.0 < self.eta < math.inf:  # a NaN or infinite eta never moves a point
            raise ConfigError(f"eta must be finite and positive, got {self.eta}")


@dataclass
class StepRecord:
    trace: ExecTrace
    continuity: float | None
    allow_points: list[int] | None


def post_skip_verify(model: PolicyModel, allow_state: AllowPointState, trace: ExecTrace):
    """The verification trigger; the only reader and writer of `armed`.

    With two `c_history` values (the caller's guarantee), armed and
    dC < -eta, with the state's eta, fires and disarms. A fire on a step
    that skipped anything re-predicts the action at full depth: from the
    skip pass's input to its first skipped layer s (`trace.resume_input`)
    it runs blocks s..depth-1 and the head, extends the trace in place
    (those blocks appended to executed_layers, verified set; the rollout
    prices it) and replaces the newest action, and with it the newest
    continuity value; a step that skipped nothing would re-predict the same
    action. Then dC >= -eta, read after any replacement, re-arms. Returns the re-predicted action, or
    None unless re-run.
    """
    hist, eta = allow_state.c_history, allow_state.guidance.eta
    action = None
    if allow_state.armed and hist[-1] - hist[-2] < -eta:
        allow_state.armed = False
        if trace.adapters_invoked:
            rerun = range(trace.adapters_invoked[0], model.config.depth)
            x = trace.resume_input
            for layer in rerun:
                x = block_forward(model, layer, x)
            action = head_forward(model, x)
            trace.executed_layers.extend(rerun)
            trace.verified = True
            replace_last_action(allow_state, action)
    if hist[-1] - hist[-2] >= -eta:
        allow_state.armed = True
    return action


def _skip_modules(mods: SkipModules | None, mode: str) -> SkipModules:
    if mods is None:
        raise ConfigError(f"mode {mode!r} requires skip modules")
    return mods


def _full_step(model, mods, guidance, rng, random_skip_prob):
    return lambda obs, instr: (*forward_full(model, obs, instr), None, None)


def _dysl_step(model, mods, guidance, rng, random_skip_prob):
    allow = AllowPointState(_skip_modules(mods, "dysl").static_set, guidance)

    def step(obs, instr):
        action, trace = (forward_full(model, obs, instr) if allow.warm else
                         forward_skipped(model, mods, allow.points, obs, instr))
        observe_action(allow, action)
        if allow.warm or len(allow.c_history) < 2:
            return action, trace, None, list(allow.points)
        redo = post_skip_verify(model, allow, trace) if guidance.verification else None
        update_allow_points(allow)
        return (action if redo is None else redo), trace, allow.c_history[-1], list(allow.points)
    return step


def _controllers_only_step(model, mods, guidance, rng, random_skip_prob):
    points = _skip_modules(mods, "controllers-only").static_set.segment_starts
    return lambda obs, instr: (*forward_skipped(model, mods, points, obs, instr), None, None)


def _random_skip_step(model, mods, guidance, rng, random_skip_prob):
    _skip_modules(mods, "random-skip")
    if rng is None:
        raise ConfigError("random-skip mode needs an rng")
    return lambda obs, instr: (*forward_random(model, mods, random_skip_prob, rng, obs, instr),
                               None, None)


# each mode's step factory by name, in report order (see the module docstring)
MODES = {"full": _full_step, "dysl": _dysl_step,
         "controllers-only": _controllers_only_step, "random-skip": _random_skip_step}


def rollout_episode(task: sim.Task, model: PolicyModel, mods: SkipModules | None,
                    mode: str, guidance: GuidanceConfig,
                    rng: np.random.Generator | None = None,
                    random_skip_prob: float = 0.0) -> Episode:
    """Closed-loop rollout of `task` in one of the MODES. ConfigError before
    the first step for an unknown mode, one its factory rejects, or a task
    with more subtasks than the model's instruction width."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {tuple(MODES)}")
    step = MODES[mode](model, mods, guidance, rng, random_skip_prob)
    costs = flops.arch_costs(model.config)
    n_instr = model.config.instr_dim
    if task.config.subtasks > n_instr:
        raise ConfigError(f"the task has {task.config.subtasks} subtasks but the model's "
                          f"instruction width is {n_instr}")
    steps = []

    def act(obs, instr_id, _state):
        action, trace, c_t, points = step(obs, sim.instr_onehot(instr_id, n_instr))
        trace.resume_input = None  # the verification hand-off lives one step
        trace.flops = flops.flop_estimate(costs, trace.executed_layers,
                                          trace.controllers_evaluated,
                                          trace.adapters_invoked, trace.verified)
        steps.append(StepRecord(trace=trace, continuity=c_t, allow_points=points))
        return action

    episode = sim.run_episode(task, act)
    episode.mode, episode.steps = mode, steps
    return episode


# --- trace dump --------------------------------------------------------------------

# version 3: executed_layers lists every block a step ran, a verified step's
# re-run included, and the skip_run_layers and skipped_segments keys are gone
# (a segment's id follows from adapters_invoked and the static set), so an
# older dump fails here by name rather than in the FLOP cross-check
TRACE_SCHEMA_VERSION = 3


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
    for step, rec in enumerate(episode.steps):
        lines.append(json.dumps({
            "step": step,
            "executed_layers": rec.trace.executed_layers,
            "controllers_evaluated": rec.trace.controllers_evaluated,
            "adapters_invoked": rec.trace.adapters_invoked,
            "C_t": rec.continuity,
            "allow_points": rec.allow_points,
            "verified": rec.trace.verified,
            "flops": rec.trace.flops,
        }, sort_keys=True))
    return lines


def write_episode_trace(path, episode: Episode) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(episode_trace_lines(episode)) + "\n", encoding="utf-8")


def read_episode_trace(path) -> tuple[dict, list[dict]]:
    """Header and step records of a dumped trace. ConfigError naming a header
    field that is missing, extra or mistyped. TraceIntegrityError naming the
    file and line for a line that is not JSON or a record that is not an
    object, and when the records are fewer or more than the header's n_steps:
    a truncated trace of equal-cost steps would pass the FLOP cross-check."""
    values = []
    with open(path, encoding="utf-8") as fh:
        try:
            for line in [fh.readline(), *fh]:  # an empty file reads as one empty line
                values.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TraceIntegrityError(f"{path}: line {len(values) + 1} is not JSON "
                                      f"({exc.msg})") from exc
    header, records = values[0], values[1:]
    containers.check_header(header, "episode_trace", TRACE_SCHEMA_VERSION, path, {
        "mode": "str", "task_seed": "int", "success_length": "int", "n_steps": "int",
        "success": "bool", "diverged": "bool"})
    for lineno, rec in enumerate(records, 2):
        if not isinstance(rec, dict):
            raise TraceIntegrityError(f"{path}: line {lineno} is {rec!r}, not a step record")
    if len(records) != header["n_steps"]:
        raise TraceIntegrityError(f"{path}: header n_steps {header['n_steps']} "
                                  f"but {len(records)} step records")
    return header, records
