import dataclasses

import numpy as np
import pytest

from dynskip import containers, sim
from dynskip.errors import ConfigError, EnvError, ShapeError


def small_cfg(**kw):
    base = dict(subtasks=2)
    base.update(kw)
    return sim.SimConfig(**base)


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
        min_sep = cfg.separation_factor * cfg.grasp_radius
        for seed in range(1000):
            task = sim.sample_task_sequence(seed, cfg)
            pts = np.vstack([task.obj[None], task.goals])
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert np.linalg.norm(pts[i] - pts[j]) >= min_sep

    def test_infeasible_bounds_raise(self):
        with pytest.raises(ConfigError):
            cfg = sim.SimConfig(high=0.5, margin=0.2, separation_factor=40.0)
            sim.sample_task_sequence(0, cfg)


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
        cfg = task.config
        rng = np.random.default_rng(0)
        edges = [0.0, -0.0, cfg.d_max, -cfg.d_max, cfg.grip_max, -cfg.grip_max]
        for _ in range(300):
            state = sim.reset_state(task)
            state.grip = float(rng.choice([0.0, -0.0, 1.0, rng.uniform(0, 1)]))
            a = rng.choice([rng.uniform(-1, 1), *edges], size=3)
            step = np.array([np.clip(a[0], -cfg.d_max, cfg.d_max),
                             np.clip(a[1], -cfg.d_max, cfg.d_max)])
            grip = float(np.clip(state.grip + np.clip(a[2], -cfg.grip_max, cfg.grip_max),
                                 0.0, 1.0))
            ee = np.clip(state.ee + step, cfg.low, cfg.high)
            out, _ = sim.env_step(task, state, a)
            assert out.ee.tobytes() == ee.tobytes()
            assert np.float64(out.grip).tobytes() == np.float64(grip).tobytes()

    def test_close_far_from_object_no_grasp(self):
        task = sim.sample_task_sequence(1, small_cfg())
        state = sim.reset_state(task)
        # move the effector well away from the object first
        state.ee = np.clip(task.obj + 0.5, task.config.low, task.config.high)
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
            step = np.clip(delta, -cfg.d_max, cfg.d_max)
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
        cfg = task.config
        lo, hi = cfg.low, cfg.high
        coords = [lo, hi, -0.0, 0.0, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                  lo - 0.05, hi + 0.05, 0.5 * (lo + hi)]
        moves = [0.0, -0.0, cfg.d_max, -cfg.d_max, 0.3, -0.3, 1e-17, -1e-17]
        for ex in coords:
            for ey in coords:
                for dx in moves:
                    for dy in moves[::-1]:
                        state = sim.reset_state(task)
                        state.ee = np.array([ex, ey])
                        step = np.clip(np.array([dx, dy]), -cfg.d_max, cfg.d_max)
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
            action = rng.uniform(-1, 1, 3) * [cfg.d_max, cfg.d_max, cfg.grip_max]
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
                  task.goals[0].copy(), rng.uniform(cfg.low, cfg.high, 2)]
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


class TestExpert:
    def test_free_phase_geometry(self):
        cfg = sim.SimConfig(noise_sigma=0.0)
        task = sim.sample_task_sequence(6, cfg)
        state = sim.reset_state(task)
        state.ee = task.obj - np.array([0.5, 0.0])  # object due east, far away
        expert = sim.ScriptedExpert(task, np.random.default_rng(0))
        action = expert.action(state)
        assert np.allclose(action, [cfg.step_len, 0.0, 0.0], atol=1e-12)

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
        span = cfg.high - cfg.low
        assert ds.obs[:, :2].min() >= cfg.low and ds.obs[:, :2].max() <= cfg.high
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
