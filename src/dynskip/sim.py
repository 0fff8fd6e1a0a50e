"""Planar pick-and-place chain environment with a scripted stop-and-go expert.

One object is carried through a chain of goal waypoints by a 2-D point
end-effector with a scalar gripper. The expert moves at constant speed in
free space and switches to jerky pause/micro-step behaviour near grasp and
release targets, so its action stream carries the smooth/jerky split that
the continuity signal relies on. Gripper transitions happen only in the
fine phase.

`run_episode` is the one closed loop, for the expert (`run_expert_episode`)
and the learned policy (`runtime.rollout_episode`) alike; it alone calls
`env_step`, whose EnvError alone marks an episode diverged.

The physical values are module constants, not options, as the claim is
reproduced on this one environment and no caller varies them: LOW, HIGH,
MARGIN, GRASP_RADIUS, SUCCESS_TOL, COMMIT_DIST, STEP_LEN, FINE_FRAC,
P_PAUSE, PAUSE_BAND, CRAWL_FRAC, NOISE_SIGMA, NOISE_RHO, D_MAX, GRIP_MAX and
SEPARATION_FACTOR. SimConfig keeps the chain length and the step budget.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import containers
from .errors import ConfigError, EnvError, ShapeError
from .numerics import l2_norm

FREE = "free"
FINE = "fine"

OBS_DIM = 7  # ee (2) + gripper fraction (1) + object (2) + active goal (2)
ACTION_DIM = 3  # displacement (2) + gripper delta (1)
GRIP_CLOSED = 0.5  # holding requires open fraction strictly below this

LOW = 0.0                # the workspace is the square [LOW, HIGH]^2
HIGH = 1.3
MARGIN = 0.15            # placement margin from the walls
GRASP_RADIUS = 0.065     # r: grasp reach, also the fine-phase radius
SUCCESS_TOL = 0.03       # object-to-goal tolerance at release
COMMIT_DIST = 0.018      # expert closes/opens the gripper inside this
STEP_LEN = 0.05          # free-phase speed
FINE_FRAC = 0.25         # fine step = STEP_LEN * FINE_FRAC
P_PAUSE = 0.35           # fraction of each distance band spent crawling
PAUSE_BAND = 0.02        # crawl/step alternation period (distance)
CRAWL_FRAC = 0.1         # crawl speed relative to the fine step
NOISE_SIGMA = 0.0015     # free-phase smooth-drift innovation
NOISE_RHO = 0.9          # free-phase drift persistence
D_MAX = 0.1              # per-axis displacement bound
GRIP_MAX = 0.5           # gripper delta bound
SEPARATION_FACTOR = 6.0  # min placement distance, in grasp radii


@dataclass(frozen=True)
class SimConfig:
    """The episode shape; the physics are the module constants above."""

    subtasks: int = 5    # chain length M
    step_cap: int = 400  # per-subtask step budget

    def __post_init__(self):
        containers.check_int_fields(self, subtasks=1, step_cap=1)


@dataclass(frozen=True)
class Task:
    seed: int
    start: np.ndarray   # end-effector spawn, shape (2,)
    obj: np.ndarray     # object spawn, shape (2,)
    goals: np.ndarray   # goal chain, shape (M, 2)
    config: SimConfig


@dataclass
class EnvState:
    ee: np.ndarray
    obj: np.ndarray
    grip: float = 1.0
    holding: bool = False
    subtask: int = 0
    steps_in_subtask: int = 0
    total_steps: int = 0


def sample_task_sequence(seed: int, config: SimConfig) -> Task:
    """Draw a pick-place chain with all placements pairwise separated by at
    least SEPARATION_FACTOR grasp radii. Deterministic per seed."""
    rng = np.random.default_rng(seed)
    lo = LOW + MARGIN
    hi = HIGH - MARGIN
    min_sep = SEPARATION_FACTOR * GRASP_RADIUS

    for _ in range(200):
        points = [rng.uniform(lo, hi, size=2)]
        placed = True
        for _ in range(config.subtasks):
            for _ in range(500):
                cand = rng.uniform(lo, hi, size=2)
                if all(l2_norm(cand - p) >= min_sep for p in points):
                    points.append(cand)
                    break
            else:
                placed = False
                break
        if placed:
            start = rng.uniform(lo, hi, size=2)
            return Task(seed=seed, start=start, obj=points[0],
                        goals=np.array(points[1:]), config=config)
    raise ConfigError("could not place objects with the required separation; reduce subtasks")


def reset_state(task: Task) -> EnvState:
    return EnvState(ee=task.start.copy(), obj=task.obj.copy())


def _goal_index(task: Task, state: EnvState) -> int:
    """The active subtask, held at the chain's last once it is complete;
    also the instruction id."""
    last = task.config.subtasks - 1
    return state.subtask if state.subtask < last else last


def current_goal(task: Task, state: EnvState) -> np.ndarray:
    return task.goals[_goal_index(task, state)]


def current_target(task: Task, state: EnvState) -> np.ndarray:
    return current_goal(task, state) if state.holding else state.obj


def observe(task: Task, state: EnvState) -> tuple[np.ndarray, int]:
    """Observation vector plus the instruction id (the active subtask index).

    Object and goal coordinates are egocentric (relative to the effector),
    which keeps the policy's steering function well-conditioned; the absolute
    effector position is included, so the state stays fully observed.
    """
    instr_id = _goal_index(task, state)
    ex, ey = state.ee.tolist()
    ox, oy = state.obj.tolist()
    gx, gy = task.goals[instr_id].tolist()
    # float arithmetic is the same IEEE double arithmetic numpy does per entry
    obs = np.array([ex, ey, state.grip, ox - ex, oy - ey, gx - ex, gy - ey])
    return obs, instr_id


def instr_onehot(instr_id: int, n: int) -> np.ndarray:
    """One-hot row of `instr_id`; ShapeError for an id outside [0, n), which
    indexing would wrap (-1 is the last slot) or reject with a bare IndexError."""
    if not 0 <= instr_id < n:
        raise ShapeError(f"instruction id {instr_id} is outside [0, {n})")
    v = np.zeros(n)
    v[instr_id] = 1.0
    return v


class ScriptedExpert:
    """Stop-and-go scripted controller; one instance per episode.

    Free phase: a constant-speed straight-line step toward the target plus a
    small smooth drift. Fine phase (inside the grasp radius): micro-steps
    alternating between crawls and full steps in distance bands, which makes
    the action stream jerky step-to-step. The grip delta always steers
    toward the desired open fraction (open in transit, closed while
    carrying, flipped inside COMMIT_DIST), which is zero along clean
    trajectories outside the fine phase and self-correcting everywhere else.

    `label` computes one target distance per step and derives both the
    action and the step's phase from it: FINE within the grasp radius, its
    edge included, else FREE. The phase is the branch the action takes, so
    the two cannot disagree. The distance is numpy's (`l2_norm`, a BLAS dot
    that may fuse a multiply-add); everything after it runs on Python
    floats in the order the numpy 2-vector form computes it, so each action
    is bit-equal to that form's.
    """

    def __init__(self, task: Task, rng: np.random.Generator):
        self.task = task
        self.rng = rng
        self._drift = (0.0, 0.0)

    def _grip_delta(self, state: EnvState, dist: float) -> float:
        if state.holding:
            desired = 1.0 if dist <= COMMIT_DIST else 0.0
        else:
            desired = 0.0 if dist <= COMMIT_DIST else 1.0
        return desired - state.grip

    def label(self, state: EnvState) -> tuple[np.ndarray, str]:
        """The expert's action for `state` and the state's phase, FINE or FREE."""
        delta = current_target(self.task, state) - state.ee
        dist = l2_norm(delta)
        phase = FINE if dist <= GRASP_RADIUS else FREE
        dg = self._grip_delta(state, dist)
        dx, dy = delta.tolist()

        if phase == FREE:  # constant-speed motion
            n0, n1 = self.rng.standard_normal(2).tolist()
            d0, d1 = self._drift
            d0 = NOISE_RHO * d0 + NOISE_SIGMA * n0
            d1 = NOISE_RHO * d1 + NOISE_SIGMA * n1
            self._drift = (d0, d1)
            return np.array([STEP_LEN * dx / dist + d0,
                             STEP_LEN * dy / dist + d1, dg]), phase

        # stop-and-go micro-steps: distance-banded crawl/step alternation.
        # The speed profile is a deterministic function of the observable
        # state (no conditional noise), so a regression fit tracks it instead
        # of averaging it away, and its only zero is the target itself.
        if dist > 0.0:
            fine_len = STEP_LEN * FINE_FRAC
            in_crawl_band = (dist / PAUSE_BAND) % 1.0 < P_PAUSE
            scale = CRAWL_FRAC if in_crawl_band else 1.0
            k = min(0.6 * dist, scale * fine_len)
            return np.array([k * dx / dist, k * dy / dist, dg]), phase
        return np.array([0.0, 0.0, dg]), phase


def env_step(task: Task, state: EnvState, action) -> tuple[EnvState, list]:
    """Kinematic integration with clamping; emits grasp/release/subtask events.

    Grasping is level-based: an effector whose gripper fraction is below the
    closed threshold within GRASP_RADIUS of the object picks it up. While
    held, the object is co-located with the effector; a released object
    stays where it was last carried to.

    Each clamp is a pair of comparisons that replaces a value only when it
    lies strictly outside its bounds, so a value on a bound is kept, as
    np.clip keeps it, and a signed zero keeps its sign.
    """
    cfg = task.config
    a = np.asarray(action, dtype=np.float64)
    if a.shape != (ACTION_DIM,):
        raise EnvError(f"invalid action {a!r}")
    ax, ay, ag = a.tolist()
    if not (math.isfinite(ax) and math.isfinite(ay) and math.isfinite(ag)):
        raise EnvError(f"invalid action {a!r}")
    dx = -D_MAX if ax < -D_MAX else D_MAX if ax > D_MAX else ax
    dy = -D_MAX if ay < -D_MAX else D_MAX if ay > D_MAX else ay
    dg = -GRIP_MAX if ag < -GRIP_MAX else GRIP_MAX if ag > GRIP_MAX else ag

    ex, ey = state.ee.tolist()
    ex += dx
    ey += dy
    ee = np.array([LOW if ex < LOW else HIGH if ex > HIGH else ex,
                   LOW if ey < LOW else HIGH if ey > HIGH else ey])
    grip = state.grip + dg
    grip = 0.0 if grip < 0.0 else 1.0 if grip > 1.0 else grip
    obj = state.obj
    holding = state.holding
    subtask = state.subtask
    steps_in_subtask = state.steps_in_subtask + 1
    events: list = []

    if holding:
        if grip >= GRIP_CLOSED:
            holding = False
            events.append(("release",))
            if (subtask < cfg.subtasks
                    and l2_norm(obj - task.goals[subtask]) <= SUCCESS_TOL):
                events.append(("subtask_complete", subtask))
                subtask += 1
                steps_in_subtask = 0
        else:
            obj = ee.copy()
    elif grip < GRIP_CLOSED and l2_norm(ee - state.obj) <= GRASP_RADIUS:
        holding = True
        obj = ee.copy()
        events.append(("grasp",))

    return EnvState(ee=ee, obj=obj, grip=grip, holding=holding, subtask=subtask,
                    steps_in_subtask=steps_in_subtask,
                    total_steps=state.total_steps + 1), events


@dataclass
class Episode:
    """One closed-loop rollout. `run_episode` fills `task_seed`, `actions`,
    `events`, the score and the divergence fields; `run_expert_episode` adds
    `observations`, `instr_ids` and `phases`, and `runtime.rollout_episode`
    `mode` and `steps` (runtime.StepRecord), each one per action."""

    task_seed: int
    mode: str = ""
    actions: list = field(default_factory=list)
    events: list = field(default_factory=list)   # (step, event tuple)
    observations: list = field(default_factory=list)
    instr_ids: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    success_length: int = 0
    success: bool = False
    diverged: bool = False
    diagnostic: str = ""

    @property
    def n_steps(self) -> int:
        return len(self.actions)


def run_episode(task: Task, policy_fn) -> Episode:
    """The closed loop, for the expert and the learned policy alike:
    observe, act with policy_fn(obs, instr_id, state) -> action, step.

    The state argument exists for scripted controllers and instrumentation;
    learned policies must act on (obs, instr_id) alone. Ends on chain
    completion, on exhausting the per-subtask step budget, or on an action
    `env_step` rejects (EnvError), which is recorded as a zero action and
    marks the episode diverged, failed and scored 0, with a diagnostic.
    """
    cfg = task.config
    state = reset_state(task)
    ep = Episode(task_seed=task.seed)
    while state.subtask < cfg.subtasks and state.steps_in_subtask < cfg.step_cap:
        obs, instr_id = observe(task, state)
        try:
            action = policy_fn(obs, instr_id, state)
            state, events = env_step(task, state, action)
        except EnvError as exc:
            ep.diverged, ep.diagnostic = True, str(exc)
            ep.actions.append(np.zeros(ACTION_DIM))
            break
        ep.actions.append(np.asarray(action, dtype=np.float64))
        for ev in events:
            ep.events.append((state.total_steps - 1, ev))
    ep.success_length, ep.success = (0, False) if ep.diverged else score_rollout(task, ep.events)
    return ep


def score_rollout(task: Task, events) -> tuple[int, bool]:
    """Consecutive completed subtasks from the start of the chain.

    Completions must arrive in order 0, 1, 2, ...; anything out of order
    stops the count (completing subtask 1 but never 0 scores 0).
    """
    expected = 0
    for _, ev in events:
        if ev[0] == "subtask_complete":
            if ev[1] == expected:
                expected += 1
            else:
                break
    return expected, expected == task.config.subtasks


# --- expert dataset -----------------------------------------------------------

DATASET_SCHEMA_VERSION = 3


@dataclass
class Dataset:
    config: SimConfig
    seed: int
    n_episodes: int
    obs: np.ndarray       # (S, OBS_DIM)
    instr: np.ndarray     # (S,) int subtask ids
    actions: np.ndarray   # (S, ACTION_DIM)
    phases: list          # analysis only, never fed to a model
    episode_ids: np.ndarray

    def __len__(self) -> int:
        return self.obs.shape[0]

    def instr_onehot(self) -> np.ndarray:
        return np.eye(self.config.subtasks)[self.instr]


def run_expert_episode(task: Task, rng: np.random.Generator) -> Episode:
    """An expert rollout with its observation, instruction-id and phase rows."""
    expert = ScriptedExpert(task, rng)
    observations, instr_ids, phases = [], [], []

    def act(obs, instr_id, state):
        observations.append(obs)
        instr_ids.append(instr_id)
        action, phase = expert.label(state)
        phases.append(phase)
        return action

    ep = run_episode(task, act)
    ep.observations, ep.instr_ids, ep.phases = observations, instr_ids, phases
    return ep


def generate_dataset(config: SimConfig, n_episodes: int, seed: int) -> Dataset:
    """Expert rollouts flattened into (obs, instr, action) rows with phase labels."""
    if n_episodes < 1:
        raise ConfigError("n_episodes must be >= 1")
    obs_rows, instr_rows, act_rows, phase_rows, ep_rows = [], [], [], [], []
    for i in range(n_episodes):
        task = sample_task_sequence(seed + i, config)
        ep = run_expert_episode(task, np.random.default_rng([seed, i]))
        obs_rows.extend(ep.observations)
        instr_rows.extend(ep.instr_ids)
        act_rows.extend(ep.actions)
        phase_rows.extend(ep.phases)
        ep_rows.extend([i] * ep.n_steps)
    return Dataset(config, seed, n_episodes, np.array(obs_rows),
                   np.array(instr_rows, dtype=np.int64), np.array(act_rows),
                   phase_rows, np.array(ep_rows, dtype=np.int64))


def save_dataset(path, dataset: Dataset) -> None:
    header = {
        "kind": "dataset",
        "schema_version": DATASET_SCHEMA_VERSION,
        "seed": dataset.seed,
        "n_episodes": dataset.n_episodes,
        "sim_config": asdict(dataset.config),
    }
    containers.save_arrays(path, header, {
        "obs": dataset.obs, "instr": dataset.instr, "actions": dataset.actions,
        "phases": np.array(dataset.phases, dtype=str), "episode_ids": dataset.episode_ids})


def load_dataset(path) -> Dataset:
    """ShapeError when the arrays disagree in row count or width, `obs` or
    `actions` is not a float array or `instr` or `episode_ids` not an integer
    one; ConfigError when the dataset has no rows, `obs` or `actions` holds a
    NaN or infinite value, an instruction id is outside [0, subtasks) or a
    phase label is neither FREE nor FINE."""
    header, arrays = containers.load_arrays(path)
    containers.check_header(header, "dataset", DATASET_SCHEMA_VERSION, path,
                            {"seed": "int", "n_episodes": "int", "sim_config": "dict"})
    config = containers.config_from_header(SimConfig, header["sim_config"], path, "sim_config")
    rows = len(arrays.get("obs", ()))
    for name, shape, kinds in (("obs", (rows, OBS_DIM), "f"), ("instr", (rows,), "iu"),
                               ("actions", (rows, ACTION_DIM), "f"), ("phases", (rows,), None),
                               ("episode_ids", (rows,), "iu")):
        found = arrays[name].shape if name in arrays else "no such array"
        if found != shape:
            raise ShapeError(f"{path}: dataset array {name!r} has shape {found}, "
                             f"expected {shape}")
        if kinds and arrays[name].dtype.kind not in kinds:
            raise ShapeError(f"{path}: dataset array {name!r} has dtype {arrays[name].dtype}, "
                             f"expected {'floats' if kinds == 'f' else 'integers'}")
        if kinds == "f" and not np.isfinite(arrays[name]).all():
            raise ConfigError(f"{path}: dataset array {name!r} holds a NaN or infinite value")
    if not rows:
        raise ConfigError(f"{path}: dataset has no rows")
    instr = arrays["instr"]
    outside = instr[(instr < 0) | (instr >= config.subtasks)]
    if outside.size:
        raise ConfigError(f"{path}: dataset array 'instr' holds id {outside[0]}, "
                          f"outside [0, {config.subtasks})")
    phases = arrays["phases"].tolist()
    unknown = sorted(set(phases) - {FREE, FINE}, key=repr)
    if unknown:
        raise ConfigError(f"{path}: dataset array 'phases' holds {unknown[0]!r}, "
                          f"expected {FREE!r} or {FINE!r}")
    return Dataset(config, header["seed"], header["n_episodes"], arrays["obs"], instr,
                   arrays["actions"], phases, arrays["episode_ids"])
