import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from dynskip import containers, sim
from dynskip.errors import ConfigError, EnvError, ShapeError
from dynskip.numerics import l2_norm
from perfbench.workloads import derive_seed


def small_cfg(**kw):
    base = dict(subtasks=2)
    base.update(kw)
    return sim.SimConfig(**base)


# the SimConfig defaults of the physical values, taken as constants; every
# pinned dataset, weight and trace digest was taken under them
FORMER_DEFAULTS = {
    "LOW": 0.0, "HIGH": 1.3, "MARGIN": 0.15, "GRASP_RADIUS": 0.065, "SUCCESS_TOL": 0.03,
    "COMMIT_DIST": 0.018, "STEP_LEN": 0.05, "FINE_FRAC": 0.25, "P_PAUSE": 0.35,
    "PAUSE_BAND": 0.02, "CRAWL_FRAC": 0.1, "NOISE_SIGMA": 0.0015, "NOISE_RHO": 0.9,
    "D_MAX": 0.1, "GRIP_MAX": 0.5, "SEPARATION_FACTOR": 6.0}


def test_physical_constants_keep_their_former_sim_config_defaults():
    values = {name: getattr(sim, name) for name in FORMER_DEFAULTS}
    assert values == FORMER_DEFAULTS
    assert all(type(v) is float for v in values.values())
    assert [f.name for f in dataclasses.fields(sim.SimConfig)] == ["subtasks", "step_cap"]


class TestTaskSampling:
    def test_deterministic(self):
        cfg = small_cfg()
        a = sim.sample_task_sequence(3, cfg)
        b = sim.sample_task_sequence(3, cfg)
        assert np.array_equal(a.obj, b.obj)
        assert np.array_equal(a.goals, b.goals)
        assert np.array_equal(a.start, b.start)

    def test_default_chain_length_is_five(self):
        task = sim.sample_task_sequence(0, sim.SimConfig())
        assert task.goals.shape == (5, 2)

    def test_separation_respected_over_many_seeds(self):
        cfg = sim.SimConfig()
        min_sep = sim.SEPARATION_FACTOR * sim.GRASP_RADIUS
        for seed in range(1000):
            task = sim.sample_task_sequence(seed, cfg)
            pts = np.vstack([task.obj[None], task.goals])
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert np.linalg.norm(pts[i] - pts[j]) >= min_sep

    def test_infeasible_bounds_raise(self):
        """31 placements SEPARATION_FACTOR grasp radii apart do not fit in
        the workspace."""
        with pytest.raises(ConfigError, match="reduce subtasks"):
            sim.sample_task_sequence(0, sim.SimConfig(subtasks=30))

    @pytest.mark.parametrize("field, value, match", [
        ("step_cap", 0, "step_cap must be an int >= 1"),
        ("step_cap", -1, "step_cap must be an int >= 1"),
        ("step_cap", 2.5, "step_cap must be an int >= 1"),
        ("step_cap", True, "step_cap must be an int >= 1")])
    def test_config_rejects_a_value_that_is_not_finite_or_in_range(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            sim.SimConfig(**{field: value})

    @staticmethod
    def _linalg_form(seed, config):
        """The sampler with its separation test on np.linalg.norm."""
        rng = np.random.default_rng(seed)
        lo = sim.LOW + sim.MARGIN
        hi = sim.HIGH - sim.MARGIN
        min_sep = sim.SEPARATION_FACTOR * sim.GRASP_RADIUS
        for _ in range(200):
            points = [rng.uniform(lo, hi, size=2)]
            placed = True
            for _ in range(config.subtasks):
                for _ in range(500):
                    cand = rng.uniform(lo, hi, size=2)
                    if all(np.linalg.norm(cand - p) >= min_sep for p in points):
                        points.append(cand)
                        break
                else:
                    placed = False
                    break
            if placed:
                return rng.uniform(lo, hi, size=2), points[0], np.array(points[1:])
        raise AssertionError("reference sampler placed no chain")

    @pytest.mark.parametrize("subtasks", [1, 2, 5])
    def test_matches_the_linalg_norm_form_bitwise(self, subtasks):
        cfg = sim.SimConfig(subtasks=subtasks)
        for seed in range(200):
            task = sim.sample_task_sequence(seed, cfg)
            start, obj, goals = self._linalg_form(seed, cfg)
            assert task.start.tobytes() == start.tobytes()
            assert task.obj.tobytes() == obj.tobytes()
            assert task.goals.tobytes() == goals.tobytes()


class TestEnvStep:
    def test_zero_action_only_advances_counters(self):
        task = sim.sample_task_sequence(1, small_cfg())
        s0 = sim.reset_state(task)
        s1, events = sim.env_step(task, s0, np.zeros(3))
        assert events == []
        assert np.array_equal(s1.ee, s0.ee)
        assert np.array_equal(s1.obj, s0.obj)
        assert s1.grip == s0.grip
        assert s1.total_steps == 1 and s1.steps_in_subtask == 1

    def test_clamps_match_np_clip_bitwise(self):
        task = sim.sample_task_sequence(1, small_cfg())
        rng = np.random.default_rng(0)
        edges = [0.0, -0.0, sim.D_MAX, -sim.D_MAX, sim.GRIP_MAX, -sim.GRIP_MAX]
        for _ in range(300):
            state = sim.reset_state(task)
            state.grip = float(rng.choice([0.0, -0.0, 1.0, rng.uniform(0, 1)]))
            a = rng.choice([rng.uniform(-1, 1), *edges], size=3)
            step = np.array([np.clip(a[0], -sim.D_MAX, sim.D_MAX),
                             np.clip(a[1], -sim.D_MAX, sim.D_MAX)])
            grip = float(np.clip(state.grip + np.clip(a[2], -sim.GRIP_MAX, sim.GRIP_MAX),
                                 0.0, 1.0))
            ee = np.clip(state.ee + step, sim.LOW, sim.HIGH)
            out, _ = sim.env_step(task, state, a)
            assert out.ee.tobytes() == ee.tobytes()
            assert np.float64(out.grip).tobytes() == np.float64(grip).tobytes()

    def test_close_far_from_object_no_grasp(self):
        task = sim.sample_task_sequence(1, small_cfg())
        state = sim.reset_state(task)
        # move the effector well away from the object first
        state.ee = np.clip(task.obj + 0.5, sim.LOW, sim.HIGH)
        state, events = sim.env_step(task, state, np.array([0.0, 0.0, -0.5]))
        assert not state.holding
        assert all(ev[0] != "grasp" for _, ev in [(0, e) for e in events])

    def test_scripted_pick_sequence(self):
        task = sim.sample_task_sequence(2, small_cfg())
        state = sim.reset_state(task)
        state.ee = task.obj.copy()
        holding_flags = []
        # grip starts fully open (1.0); closing below the 0.5 threshold takes
        # two close actions
        for action in [np.zeros(3), np.array([0.0, 0.0, -0.5]),
                       np.array([0.0, 0.0, -0.5])]:
            state, events = sim.env_step(task, state, action)
            holding_flags.append(state.holding)
        assert holding_flags == [False, False, True]

    def test_grasp_then_carry_then_release_scores_subtask(self):
        cfg = small_cfg(subtasks=1)
        task = sim.sample_task_sequence(4, cfg)
        state = sim.reset_state(task)
        state.ee = task.obj.copy()
        state, ev = sim.env_step(task, state, np.array([0, 0, -0.5]))
        state, ev = sim.env_step(task, state, np.array([0, 0, -0.5]))
        assert state.holding and ("grasp",) in ev
        # teleport-by-steps toward the goal
        for _ in range(200):
            delta = task.goals[0] - state.ee
            if np.linalg.norm(delta) < 1e-9:
                break
            step = np.clip(delta, -sim.D_MAX, sim.D_MAX)
            state, ev = sim.env_step(task, state, np.array([step[0], step[1], 0.0]))
        state, ev = sim.env_step(task, state, np.array([0, 0, 0.5]))
        assert ("release",) in ev and ("subtask_complete", 0) in ev
        assert state.subtask == 1

    def test_nonfinite_action_raises(self):
        task = sim.sample_task_sequence(1, small_cfg())
        with pytest.raises(EnvError):
            sim.env_step(task, sim.reset_state(task), np.array([np.nan, 0, 0]))

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_action_raises(self, slot, value):
        task = sim.sample_task_sequence(1, small_cfg())
        action = np.zeros(3)
        action[slot] = value
        with pytest.raises(EnvError):
            sim.env_step(task, sim.reset_state(task), action)

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1)])
    def test_misshaped_action_raises(self, shape):
        task = sim.sample_task_sequence(1, small_cfg())
        with pytest.raises(EnvError):
            sim.env_step(task, sim.reset_state(task), np.zeros(shape))

    def test_effector_clamp_matches_np_clip_bitwise(self):
        task = sim.sample_task_sequence(1, small_cfg())
        lo, hi = sim.LOW, sim.HIGH
        coords = [lo, hi, -0.0, 0.0, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                  lo - 0.05, hi + 0.05, 0.5 * (lo + hi)]
        moves = [0.0, -0.0, sim.D_MAX, -sim.D_MAX, 0.3, -0.3, 1e-17, -1e-17]
        for ex in coords:
            for ey in coords:
                for dx in moves:
                    for dy in moves[::-1]:
                        state = sim.reset_state(task)
                        state.ee = np.array([ex, ey])
                        step = np.clip(np.array([dx, dy]), -sim.D_MAX, sim.D_MAX)
                        expected = np.clip(state.ee + [step[0], step[1]], lo, hi)
                        out, _ = sim.env_step(task, state, np.array([dx, dy, 0.0]))
                        assert out.ee.dtype == np.float64
                        assert out.ee.tobytes() == expected.tobytes(), (ex, ey, dx, dy)

    def test_object_conservation(self):
        # object never moves unless held at the end of the step
        cfg = small_cfg()
        task = sim.sample_task_sequence(5, cfg)
        state = sim.reset_state(task)
        rng = np.random.default_rng(0)
        for _ in range(300):
            prev_obj = state.obj.copy()
            action = rng.uniform(-1, 1, 3) * [sim.D_MAX, sim.D_MAX, sim.GRIP_MAX]
            state, _ = sim.env_step(task, state, action)
            if not np.array_equal(state.obj, prev_obj):
                assert state.holding


class TestObserve:
    @staticmethod
    def _concatenate_form(task, state):
        goal = sim.current_goal(task, state)
        return np.concatenate([state.ee, [state.grip], state.obj - state.ee, goal - state.ee])

    @pytest.mark.parametrize("holding", [False, True])
    def test_matches_concatenate_form_bitwise(self, holding):
        cfg = small_cfg(subtasks=3)
        task = sim.sample_task_sequence(6, cfg)
        goals = task.goals.copy()
        goals[1], goals[2] = [-0.0, 0.0], [0.0, -0.0]
        task = dataclasses.replace(task, goals=goals)
        rng = np.random.default_rng(7)
        points = [np.array([0.0, -0.0]), np.array([-0.0, 0.0]), np.array([-0.0, -0.0]),
                  task.goals[0].copy(), rng.uniform(sim.LOW, sim.HIGH, 2)]
        for subtask in range(cfg.subtasks + 1):  # the last is past the chain's end
            for ee in points:
                for obj in points:
                    for grip in (1.0, 0.0, -0.0, 0.37):
                        state = sim.reset_state(task)
                        state.ee, state.obj, state.grip = ee.copy(), obj.copy(), grip
                        state.holding, state.subtask = holding, subtask
                        obs, instr_id = sim.observe(task, state)
                        expected = self._concatenate_form(task, state)
                        assert obs.dtype == np.float64 and obs.shape == (sim.OBS_DIM,)
                        assert obs.tobytes() == expected.tobytes()
                        assert instr_id == min(subtask, cfg.subtasks - 1)


@pytest.mark.parametrize("instr_id", [-1, 3, 4])
def test_instr_onehot_rejects_an_id_outside_its_width(instr_id):
    with pytest.raises(ShapeError, match=f"instruction id {instr_id} is outside \\[0, 3\\)"):
        sim.instr_onehot(instr_id, 3)


class NumpyExpert(sim.ScriptedExpert):
    """The expert with its action computed on numpy 2-vectors: the reference
    that the action of ScriptedExpert.label must equal bit for bit."""

    def __init__(self, task, rng):
        super().__init__(task, rng)
        self._drift = np.zeros(2)

    def action(self, state):
        target = sim.current_target(self.task, state)
        delta = target - state.ee
        dist = l2_norm(delta)
        dg = self._grip_delta(state, dist)

        if dist > sim.GRASP_RADIUS:  # free motion
            self._drift = (sim.NOISE_RHO * self._drift
                           + sim.NOISE_SIGMA * self.rng.standard_normal(2))
            step = sim.STEP_LEN * delta / dist + self._drift
            return np.array([step[0], step[1], dg])

        step = np.zeros(2)
        if dist > 0.0:
            fine_len = sim.STEP_LEN * sim.FINE_FRAC
            in_crawl_band = (dist / sim.PAUSE_BAND) % 1.0 < sim.P_PAUSE
            scale = sim.CRAWL_FRAC if in_crawl_band else 1.0
            step = min(0.6 * dist, scale * fine_len) * delta / dist
        return np.array([step[0], step[1], dg])


def _ulps_around(x, n=6):
    """x and its n nearest doubles on either side."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return [float(v) for v in below[:0:-1] + above]


class TestExpert:
    def test_actions_equal_the_numpy_form_over_whole_episodes(self):
        cfg = sim.SimConfig()
        compared = 0
        for s in range(50):
            task = sim.sample_task_sequence(s, cfg)
            expert = sim.ScriptedExpert(task, np.random.default_rng([4, s]))
            reference = NumpyExpert(task, np.random.default_rng([4, s]))

            def policy(obs, iid, state):
                nonlocal compared
                a, b = expert.label(state)[0], reference.action(state)
                assert a.tobytes() == b.tobytes(), (s, state.total_steps, a, b)
                compared += 1
                return a

            sim.run_episode(task, policy)
        assert compared > 5_000

    def test_actions_equal_the_numpy_form_at_the_branch_edges(self):
        """Offsets from an effector at the origin, so the target minus the
        effector is the offset exactly, signed zeros included."""
        cfg = sim.SimConfig()
        base = sim.sample_task_sequence(7, cfg)
        r, c = sim.GRASP_RADIUS, sim.COMMIT_DIST
        offsets = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                   (0.5, -0.0), (-0.0, -0.5), (0.3, 0.4), (-0.6, 0.8)]
        offsets += [(x, 0.0) for x in _ulps_around(r)] + [(-0.0, -x) for x in _ulps_around(r)]
        offsets += [(x, 0.0) for x in _ulps_around(c)] + [(-0.0, -x) for x in _ulps_around(c)]
        assert {l2_norm(np.array([x, 0.0])) <= c for x in _ulps_around(c)} == {True, False}
        band_edges = [sim.PAUSE_BAND * (n + f) for n in range(4) for f in (0.0, sim.P_PAUSE)]
        for edge in band_edges[1:]:
            ds = _ulps_around(edge)
            crawl = {(d / sim.PAUSE_BAND) % 1.0 < sim.P_PAUSE for d in ds}
            assert crawl == {True, False}, edge  # the neighbours straddle the edge
            offsets += [(d, 0.0) for d in ds] + [(-0.0, d) for d in ds]
            offsets += [(0.6 * d, -0.8 * d) for d in ds]

        assert r in {l2_norm(np.array(o)) for o in offsets}
        expert = sim.ScriptedExpert(base, np.random.default_rng(8))
        reference = NumpyExpert(base, np.random.default_rng(8))
        for holding in (False, True):
            for grip in (1.0, 0.0, 0.3):
                for offset in offsets:
                    target = np.array(offset)
                    task = dataclasses.replace(base, goals=np.array([target] * cfg.subtasks))
                    expert.task = reference.task = task
                    state = sim.EnvState(ee=np.zeros(2), obj=target, grip=grip,
                                         holding=holding)
                    a, b = expert.label(state)[0], reference.action(state)
                    assert a.tobytes() == b.tobytes(), (holding, grip, offset, a, b)

    @staticmethod
    def _distance_phase(task, state):
        """The phase by the effector's distance to its target, computed on
        ee - target: the negation of the offset the expert acts on."""
        dist = l2_norm(state.ee - sim.current_target(task, state))
        return sim.FINE if dist <= sim.GRASP_RADIUS else sim.FREE

    def test_labelled_phase_equals_the_distance_rule_over_whole_episodes(self):
        cfg = sim.SimConfig()
        counts = {sim.FREE: 0, sim.FINE: 0}
        for s in range(50):
            task = sim.sample_task_sequence(s, cfg)
            expert = sim.ScriptedExpert(task, np.random.default_rng([5, s]))
            labelled = []

            def policy(obs, iid, state):
                action, phase = expert.label(state)
                assert phase == self._distance_phase(task, state), (s, state.total_steps)
                labelled.append(phase)
                counts[phase] += 1
                return action

            sim.run_episode(task, policy)
            assert sim.run_expert_episode(task, np.random.default_rng([5, s])).phases == labelled
        assert counts[sim.FREE] > 1_000 and counts[sim.FINE] > 1_000

    def test_labelled_phase_at_the_grasp_radius_and_one_ulp_either_side(self):
        """Offsets from an effector at the origin, so each distance is the
        offset's length exactly."""
        cfg = sim.SimConfig()
        base = sim.sample_task_sequence(7, cfg)
        r = sim.GRASP_RADIUS
        expert = sim.ScriptedExpert(base, np.random.default_rng(9))
        for x, phase in ((np.nextafter(r, 0.0), sim.FINE), (r, sim.FINE),
                         (np.nextafter(r, 1.0), sim.FREE)):
            for offset in ((x, 0.0), (-0.0, -x), (-x, -0.0)):
                target = np.array(offset)
                assert l2_norm(target) == x
                expert.task = task = dataclasses.replace(
                    base, goals=np.array([target] * cfg.subtasks))
                for holding in (False, True):
                    state = sim.EnvState(ee=np.zeros(2), obj=target, holding=holding)
                    assert expert.label(state)[1] == phase, (offset, holding)
                    assert self._distance_phase(task, state) == phase

    def test_free_phase_geometry(self):
        """STEP_LEN toward the target plus the first drift, NOISE_SIGMA times
        the expert's first normal draw."""
        task = sim.sample_task_sequence(6, sim.SimConfig())
        state = sim.reset_state(task)
        state.ee = task.obj - np.array([0.5, 0.0])  # object due east, far away
        expert = sim.ScriptedExpert(task, np.random.default_rng(0))
        drift = sim.NOISE_SIGMA * copy.deepcopy(expert.rng).standard_normal(2)
        action, _ = expert.label(state)
        assert np.allclose(action, [sim.STEP_LEN + drift[0], drift[1], 0.0], atol=1e-12)

    def test_fine_steps_jerkier_than_free(self):
        cfg = sim.SimConfig()
        free_d, fine_d = [], []
        for s in range(20):
            task = sim.sample_task_sequence(s, cfg)
            ep = sim.run_expert_episode(task, np.random.default_rng([1, s]))
            acts = np.array(ep.actions)
            da = np.linalg.norm(np.diff(acts, axis=0), axis=1)
            fine = np.array([p == sim.FINE for p in ep.phases])[1:]
            free_d.extend(da[~fine])
            fine_d.extend(da[fine])
        assert len(free_d) > 1000 and len(fine_d) > 100
        assert np.mean(fine_d) >= 3.0 * np.mean(free_d)

    def test_expert_completes_tasks(self):
        cfg = sim.SimConfig()
        ok = 0
        for s in range(200):
            task = sim.sample_task_sequence(s, cfg)
            ep = sim.run_expert_episode(task, np.random.default_rng([2, s]))
            ok += ep.success
        assert ok >= 198  # >= 99%

    def test_gripper_moves_only_in_fine_phase(self):
        cfg = sim.SimConfig()
        for s in range(5):
            task = sim.sample_task_sequence(s, cfg)
            ep = sim.run_expert_episode(task, np.random.default_rng([3, s]))
            for phase, action in zip(ep.phases, ep.actions):
                if phase == sim.FREE:
                    assert action[2] == 0.0


class TestScoring:
    def test_zero_policy_scores_zero(self):
        task = sim.sample_task_sequence(7, small_cfg())
        ep = sim.run_episode(task, lambda o, i, s: np.zeros(3))
        assert ep.success_length == 0 and not ep.success

    def test_order_sensitive(self):
        task = sim.sample_task_sequence(8, small_cfg())
        length, success = sim.score_rollout(task, [(0, ("subtask_complete", 1))])
        assert length == 0 and not success
        length, _ = sim.score_rollout(
            task, [(0, ("subtask_complete", 0)), (5, ("subtask_complete", 1))])
        assert length == 2

    def test_divergent_policy_marks_episode(self):
        task = sim.sample_task_sequence(9, small_cfg())

        def bad_policy(obs, iid, state):
            return np.array([np.inf, 0.0, 0.0])

        ep = sim.run_episode(task, bad_policy)
        assert ep.diverged and not ep.success and ep.diagnostic


class TestDataset:
    @pytest.mark.parametrize("n_episodes,stream,expected", [
        (30, 1, "b69a1438e5d13d10"), (8, 2, "01e805b14293d657")])
    def test_benchmark_datasets_match_their_pinned_digests(self, n_episodes, stream,
                                                           expected):
        """The train and validation sets of the benchmark's training set-up,
        under the Haswell kernel that conftest.py forces. The SkylakeX
        digests they replace were taken while the expert still stepped on
        numpy 2-vectors."""
        ds = sim.generate_dataset(sim.SimConfig(subtasks=2), n_episodes,
                                  derive_seed(0, stream))
        h = hashlib.sha256()
        for a in (ds.obs, ds.instr, ds.actions, np.array(ds.phases), ds.episode_ids):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest()[:16] == expected

    def test_deterministic_bytes(self, tmp_path):
        cfg = small_cfg()
        ds = sim.generate_dataset(cfg, 3, seed=11)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        sim.save_dataset(p1, ds)
        sim.save_dataset(p2, sim.generate_dataset(cfg, 3, seed=11))
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip(self, tmp_path):
        cfg = small_cfg()
        ds = sim.generate_dataset(cfg, 2, seed=12)
        path = tmp_path / "d.jsonl"
        sim.save_dataset(path, ds)
        back = sim.load_dataset(path)
        assert np.array_equal(back.obs, ds.obs)
        assert np.array_equal(back.instr, ds.instr)
        assert np.array_equal(back.actions, ds.actions)
        assert back.phases == ds.phases
        assert back.config == ds.config

    @pytest.mark.parametrize("name,keep,blamed", [
        ("obs", np.s_[:-1], "instr"),  # obs sets the row count
        ("instr", np.s_[1:], "instr"), ("phases", np.s_[:3], "phases"),
        ("obs", np.s_[:, 1:], "obs"), ("actions", np.s_[:, 1:], "actions")])
    def test_load_rejects_row_count_or_width_mismatch(self, tmp_path, name, keep, blamed):
        path = tmp_path / "d.npz"
        sim.save_dataset(path, sim.generate_dataset(small_cfg(), 1, seed=15))
        header, arrays = containers.load_arrays(path)
        arrays[name] = arrays[name][keep]
        containers.save_arrays(path, header, arrays)
        with pytest.raises(ShapeError, match=f"dataset array '{blamed}'"):
            sim.load_dataset(path)

    @pytest.mark.parametrize("name,value,error,match", [
        ("instr", -1, ConfigError, "'instr' holds id -1, outside \\[0, 2\\)"),
        ("instr", 2, ConfigError, "'instr' holds id 2, outside \\[0, 2\\)"),
        ("instr", 0.0, ShapeError, "'instr' has dtype float64"),
        ("phases", "warp", ConfigError, "'phases' holds 'warp'"),
        ("episode_ids", 0.0, ShapeError, "'episode_ids' has dtype float64, expected integers")],
        ids=["instr-minus-one", "instr-past-the-chain", "instr-float", "phase-warp",
             "episode-ids-float"])
    def test_load_rejects_an_instruction_id_or_phase_outside_its_set(
            self, tmp_path, name, value, error, match):
        """An id of -1 would index the last subtask's one-hot, a float id
        fail later in instr_onehot, and an unknown phase or a float episode
        id load silently."""
        path = tmp_path / "d.npz"
        sim.save_dataset(path, sim.generate_dataset(small_cfg(), 1, seed=15))
        header, arrays = containers.load_arrays(path)
        if isinstance(value, float):
            arrays[name] = arrays[name].astype(np.float64)
        else:
            arrays[name] = arrays[name].copy()
            arrays[name][-1] = value
        containers.save_arrays(path, header, arrays)
        with pytest.raises(error, match=match):
            sim.load_dataset(path)

    @pytest.mark.parametrize("name", ["obs", "actions"])
    def test_load_rejects_obs_or_actions_that_are_not_floats(self, tmp_path, name):
        """Strings would load silently and fail at the first BC step with a
        bare ValueError."""
        path = tmp_path / "d.npz"
        sim.save_dataset(path, sim.generate_dataset(small_cfg(), 1, seed=15))
        header, arrays = containers.load_arrays(path)
        arrays[name] = arrays[name].astype(str)
        arrays[name][-1] = "x"
        containers.save_arrays(path, header, arrays)
        with pytest.raises(ShapeError, match=f"dataset array '{name}' has dtype <U"):
            sim.load_dataset(path)

    @pytest.mark.parametrize("name", ["obs", "actions"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_load_rejects_a_non_finite_obs_or_action(self, tmp_path, name, value):
        """A NaN or infinite row would load silently and turn the first BC
        step's loss non-finite."""
        path = tmp_path / "d.npz"
        sim.save_dataset(path, sim.generate_dataset(small_cfg(), 1, seed=15))
        header, arrays = containers.load_arrays(path)
        arrays[name] = arrays[name].copy()
        arrays[name][-1, 0] = value
        containers.save_arrays(path, header, arrays)
        with pytest.raises(ConfigError, match=f"d.npz: dataset array '{name}' holds a NaN "
                                              "or infinite value"):
            sim.load_dataset(path)

    def test_load_rejects_a_dataset_with_no_rows(self, tmp_path):
        """An empty training set would fail in the batch sampler, an empty
        validation set with numpy's "Mean of empty slice" warning."""
        path = tmp_path / "d.npz"
        sim.save_dataset(path, sim.generate_dataset(small_cfg(), 1, seed=15))
        header, arrays = containers.load_arrays(path)
        containers.save_arrays(path, header, {name: a[:0] for name, a in arrays.items()})
        with pytest.raises(ConfigError, match="d.npz: dataset has no rows"):
            sim.load_dataset(path)

    def test_load_rejects_a_schema_2_dataset(self, tmp_path):
        """Schema 2 wrote the physical constants into sim_config; such a file
        is stale, not one with unexpected fields."""
        path = tmp_path / "d.npz"
        sim.save_dataset(path, sim.generate_dataset(small_cfg(), 1, seed=15))
        header, arrays = containers.load_arrays(path)
        header["schema_version"] = 2
        header["sim_config"].update({name.lower(): v for name, v in FORMER_DEFAULTS.items()})
        containers.save_arrays(path, header, arrays)
        with pytest.raises(ConfigError, match="schema_version 2, expected 3"):
            sim.load_dataset(path)

    def test_phases_stored_without_pickle(self, tmp_path):
        path = tmp_path / "d.npz"
        ds = sim.generate_dataset(small_cfg(), 1, seed=17)
        sim.save_dataset(path, ds)
        _, arrays = containers.load_arrays(path)  # np.load refuses pickled arrays
        assert arrays["phases"].dtype.kind == "U"
        assert sim.load_dataset(path).phases == ds.phases

    def test_fine_fraction_is_minority(self):
        ds = sim.generate_dataset(sim.SimConfig(), 30, seed=13)
        frac = np.mean([p == sim.FINE for p in ds.phases])
        assert 0.05 <= frac <= 0.40

    def test_observations_finite_and_bounded(self):
        cfg = sim.SimConfig()
        ds = sim.generate_dataset(cfg, 5, seed=14)
        assert np.all(np.isfinite(ds.obs))
        span = sim.HIGH - sim.LOW
        assert ds.obs[:, :2].min() >= sim.LOW and ds.obs[:, :2].max() <= sim.HIGH
        relative = ds.obs[:, 3:7]
        assert relative.min() >= -span and relative.max() <= span
        assert ds.obs[:, 2].min() >= 0.0 and ds.obs[:, 2].max() <= 1.0

    def test_episode_determinism(self):
        cfg = small_cfg()
        task = sim.sample_task_sequence(21, cfg)
        e1 = sim.run_expert_episode(task, np.random.default_rng([9, 0]))
        e2 = sim.run_expert_episode(task, np.random.default_rng([9, 0]))
        assert np.array_equal(np.array(e1.actions), np.array(e2.actions))
        assert e1.events == e2.events
