import hashlib
from dataclasses import replace

import numpy as np
import pytest

from dynskip import containers, flops, runtime as rt, sim
from dynskip.errors import ConfigError, DegenerateInputError, ShapeError
from dynskip.model import PolicyConfig, build_policy, forward_recorded
from dynskip.numerics import Adam, sigmoid
from dynskip.profiler import StaticSet


def make_setup(depth=6, seed=0, statics=(2, 5)):
    cfg = PolicyConfig(obs_dim=3, instr_dim=2, hidden_dim=8, depth=depth,
                       action_dim=2, seed=seed)
    model = build_policy(cfg)
    ss = StaticSet(indices=statics, depth=depth)
    mods = rt.init_skip_modules(model, ss, seed=seed + 1)
    return model, ss, mods


class TestStaticSet:
    def test_requires_final_block(self):
        with pytest.raises(ConfigError):
            StaticSet(indices=(2, 4), depth=6)

    def test_segments_cover_dynamics_once(self):
        ss = StaticSet(indices=(0, 3, 4, 7), depth=8)
        covered = [j for seg in ss.segments for j in ss.segment_layers(seg)]
        assert sorted(covered) == list(ss.dynamic_layers)
        assert len(set(covered)) == len(covered)

    def test_first_segment_has_virtual_front(self):
        ss = StaticSet(indices=(2, 5), depth=6)
        assert ss.segments[0] == (-1, 2)


class TestSkipModules:
    def test_one_adapter_and_controller_per_dynamic_layer(self):
        model, ss, mods = make_setup(depth=12, statics=(1, 4, 7, 11))
        n_dyn = len(ss.dynamic_layers)
        assert len({k.split(".")[0] for k in mods.adapter_keys()}) == n_dyn
        assert len({k.split(".")[0] for k in mods.controller_keys()}) == n_dyn

    def test_deterministic_init(self):
        model, ss, _ = make_setup()
        a = rt.init_skip_modules(model, ss, seed=9)
        b = rt.init_skip_modules(model, ss, seed=9)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_init_draw_order_matches_pinned_digests(self):
        # keys and bytes in dict order, which is also the Adam and checkpoint
        # layout; the digests were taken before the unit moved to numerics
        def digest(params):
            h = hashlib.sha256()
            for name, arr in params.items():
                h.update(name.encode())
                h.update(np.ascontiguousarray(arr).tobytes())
            return h.hexdigest()[:16]

        model = build_policy(PolicyConfig(seed=3))
        mods = rt.init_skip_modules(model, StaticSet(indices=(1, 4, 7, 11), depth=12), seed=5)
        assert digest(model.params) == "da39412daeda1e51"
        assert digest(mods.params) == "e0291bfc0934e5e9"

    def test_default_tau(self):
        model, ss, _ = make_setup()
        assert rt.init_skip_modules(model, ss).tau == 0.5

    def test_controller_output_in_unit_interval(self):
        model, ss, mods = make_setup()
        rng = np.random.default_rng(0)
        for j in ss.dynamic_layers:
            g = rt.controller_forward(mods, j, rng.normal(size=(16, 8)))
            assert np.all(g > 0.0) and np.all(g < 1.0)

    def test_checkpoint_round_trip(self, tmp_path):
        model, ss, mods = make_setup()
        path = tmp_path / "mods.npz"
        rt.save_skip_modules(path, mods)
        back = rt.load_skip_modules(path)
        assert back.static_set == mods.static_set
        assert back.tau == mods.tau
        for k in mods.params:
            assert np.array_equal(back.params[k], mods.params[k])

    @pytest.mark.parametrize("key,shape", [("adapter0.W1", (2, 7)),
                                           ("controller3.b2", (2,)),
                                           ("controller1.W2", None)])
    def test_load_rejects_mis_shaped_or_missing_array(self, tmp_path, key, shape):
        _, _, mods = make_setup()
        path = tmp_path / "mods.npz"
        rt.save_skip_modules(path, mods)
        header, arrays = containers.load_arrays(path)
        if shape is None:
            del arrays[key]
        else:
            arrays[key] = np.zeros(shape)
        containers.save_arrays(path, header, arrays)
        with pytest.raises(ShapeError, match=key):
            rt.load_skip_modules(path)

    def test_load_rejects_unexpected_array(self, tmp_path):
        _, _, mods = make_setup()
        path = tmp_path / "mods.npz"
        rt.save_skip_modules(path, mods)
        header, arrays = containers.load_arrays(path)
        arrays["adapter2.W1"] = arrays["adapter0.W1"]  # layer 2 is static
        containers.save_arrays(path, header, arrays)
        with pytest.raises(ShapeError, match="unexpected parameter 'adapter2.W1'"):
            rt.load_skip_modules(path)

    @pytest.mark.parametrize("tau", [2.0, 0.0])
    def test_load_rejects_tau_outside_unit_interval(self, tmp_path, tau):
        _, _, mods = make_setup()
        path = tmp_path / "mods.npz"
        rt.save_skip_modules(path, mods)
        header, arrays = containers.load_arrays(path)
        header["tau"] = tau
        containers.save_arrays(path, header, arrays)
        with pytest.raises(ConfigError, match="tau"):
            rt.load_skip_modules(path)

    def test_construction_rejects_tau_of_one(self):
        _, _, mods = make_setup()
        with pytest.raises(ConfigError, match="tau"):
            rt.SkipModules(mods.static_set, mods.hidden_dim, 1.0, mods.params)

    def test_forward_sees_in_place_adam_updates(self):
        _, _, mods = make_setup()
        rng = np.random.default_rng(2)
        opt = Adam(lr=0.05)
        for _ in range(3):
            opt.step(mods.params, {k: rng.normal(size=v.shape) for k, v in mods.params.items()})
        fresh = rt.SkipModules(mods.static_set, mods.hidden_dim, mods.tau,
                               {k: v.copy() for k, v in mods.params.items()})
        x = rng.normal(size=(4, 8))
        for j in mods.static_set.dynamic_layers:
            assert np.array_equal(rt.adapter_forward(mods, j, x), rt.adapter_forward(fresh, j, x))
            assert np.array_equal(rt.controller_forward(mods, j, x),
                                  rt.controller_forward(fresh, j, x))


class TestSkipKernels:
    """Adapter and controller kernels equal the `x @ W.T + b` form bit for
    bit, leave x byte-identical and return memory of their own."""

    def _mods(self):
        model = build_policy(PolicyConfig(seed=31))
        mods = rt.init_skip_modules(model, StaticSet(indices=(0, 2, 9, 10, 11), depth=12),
                                    seed=32)
        rng = np.random.default_rng(33)
        for k, v in mods.params.items():
            if ".b" in k:
                v[:] = rng.normal(scale=0.5, size=v.shape)
        return mods

    @pytest.mark.parametrize("batch", [None, 1, 64])
    def test_adapter_and_controller_match_matmul_form(self, batch):
        mods = self._mods()
        p = mods.params
        shape = (64,) if batch is None else (batch, 64)
        x = np.random.default_rng(34).normal(size=shape)
        before = x.tobytes()
        for j in mods.static_set.dynamic_layers:
            aW1, ab1, aW2, ab2 = (p[f"adapter{j}.{part}"] for part in ("W1", "b1", "W2", "b2"))
            ah_ref = np.tanh(x @ aW1.T + ab1)
            ay_ref = ah_ref @ aW2.T + ab2
            ay = rt.adapter_forward(mods, j, x)
            ay_c, ah_c = rt.adapter_forward(mods, j, x, cache=True)
            assert np.array_equal(ay, ay_ref) and np.array_equal(ay_c, ay_ref)
            assert np.array_equal(ah_c, ah_ref)

            cW1, cb1, cW2, cb2 = (p[f"controller{j}.{part}"] for part in ("W1", "b1", "W2", "b2"))
            ch_ref = np.tanh(x @ cW1.T + cb1)
            cg_ref = sigmoid(ch_ref @ cW2.T + cb2)
            cg_ref = cg_ref[..., 0] if cg_ref.ndim > 1 else float(cg_ref[0])
            cg_c, ch_c = rt.controller_forward(mods, j, x, cache=True)
            assert np.array_equal(rt.controller_forward(mods, j, x), cg_ref)
            assert np.array_equal(cg_c, cg_ref)
            assert np.array_equal(ch_c, ch_ref)

            assert x.tobytes() == before
            for out in (ay, ay_c, ah_c, ch_c, *([cg_c] if batch else [])):
                for arr in (x, *p.values()):
                    assert not np.shares_memory(out, arr)


class TestContinuity:
    def test_constant_actions_give_zero(self):
        window = [np.array([0.1, 0.2, 0.0])] * 6
        assert rt.continuity(window, k=5) == 0.0

    def test_hand_value(self):
        window = [np.zeros(3), np.array([1.0, 0, 0]), np.array([1.0, 1.0, 0])]
        assert rt.continuity(window, k=2) == -1.0

    def test_short_window_uses_available_pairs(self):
        window = [np.zeros(3), np.array([2.0, 0, 0])]
        assert rt.continuity(window, k=5) == -2.0

    def test_single_action_degenerate(self):
        with pytest.raises(DegenerateInputError):
            rt.continuity([np.zeros(3)], k=5)

    def test_only_trailing_window_counts(self):
        early = np.array([9.0, 9.0, 9.0])
        window = [early] + [np.zeros(3)] * 3
        assert rt.continuity(window, k=2) == 0.0

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_cached_value_equals_recomputed(self, k):
        state = rt.init_allow_state(StaticSet(indices=(2, 5), depth=6), k)
        rng = np.random.default_rng(k)
        actions = []
        for t in range(200):
            actions.append(rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=3))
            rt.observe_action(state, actions[-1])
            if t and rng.random() < 0.4:
                actions[-1] = rng.normal(size=3)
                rt.replace_last_action(state, actions[-1])
            if t:
                assert state.c_history[-1] == rt.continuity(actions, k)


class TestAllowPoints:
    def _state(self, statics=(2, 6, 9), depth=10, k=5):
        ss = StaticSet(indices=statics, depth=depth)
        return rt.init_allow_state(ss, k)

    def test_initialized_after_front_static(self):
        state = self._state()
        assert state.points == [0, 3, 7]

    def test_drop_advances_by_adaptive_stride(self):
        state = self._state()
        rt.update_allow_points(state, c_t=-0.30, c_prev=-0.05, eta=0.1)
        # dC = -0.25 -> ceil(2.5) = 3, clamped at each segment's back
        assert state.points == [2, 6, 9]

    def test_rise_retreats_by_exactly_one(self):
        state = self._state()
        state.points = [2, 5, 9]
        rt.update_allow_points(state, c_t=-0.05, c_prev=-0.30, eta=0.1)
        assert state.points == [1, 4, 8]

    def test_dead_band_is_inert(self):
        state = self._state()
        state.points = [1, 4, 8]
        rt.update_allow_points(state, c_t=-0.1, c_prev=-0.05, eta=0.1)
        assert state.points == [1, 4, 8]
        rt.update_allow_points(state, c_t=-0.05, c_prev=-0.1, eta=0.1)
        assert state.points == [1, 4, 8]

    def test_retreat_clamps_after_front(self):
        state = self._state()
        rt.update_allow_points(state, c_t=0.5, c_prev=0.0, eta=0.1)
        assert state.points == [0, 3, 7]

    def test_constant_stride_mode(self):
        state = self._state()
        rt.update_allow_points(state, c_t=-0.9, c_prev=0.0, eta=0.1, stride=1)
        assert state.points == [1, 4, 8]

    def test_confinement_under_fuzzing(self):
        state = self._state()
        segments = state.static_set.segments
        rng = np.random.default_rng(7)
        c_prev = 0.0
        for _ in range(100_000):
            c_t = c_prev + rng.uniform(-0.5, 0.5)
            rt.update_allow_points(state, c_t, c_prev, eta=0.05)
            for (front, back), l in zip(segments, state.points):
                assert front < l <= back
            c_prev = c_t

    def test_hysteresis_asymmetry(self):
        # forward motion per drop event is ceil(|dC|/eta) >= 1; retreat is 1
        state = self._state(statics=(99,), depth=100, k=5)
        rng = np.random.default_rng(8)
        for _ in range(2000):
            before = state.points[0]
            dc = rng.uniform(-0.5, 0.5)
            rt.update_allow_points(state, dc, 0.0, eta=0.05)
            after = state.points[0]
            if dc < -0.05:
                expected = min(99, before + int(np.ceil(abs(dc) / 0.05)))
                assert after == expected
            elif dc > 0.05:
                assert after == max(0, before - 1)
            else:
                assert after == before


class TestVerificationTrigger:
    def test_scripted_sequence_fires_once(self):
        deltas = [-0.01, -0.3, -0.3, -0.01]
        eta = 0.1
        armed = True
        fires = []
        for dc in deltas:
            fired = rt.should_verify(armed, dc, eta)
            if fired:
                armed = False
            if dc >= -eta:
                armed = True
            fires.append(fired)
        assert fires == [False, True, False, False]

    def test_rearm_allows_second_fire(self):
        deltas = [-0.3, -0.3, -0.01, -0.3]
        eta = 0.1
        armed = True
        fires = []
        for dc in deltas:
            fired = rt.should_verify(armed, dc, eta)
            if fired:
                armed = False
            if dc >= -eta:
                armed = True
            fires.append(fired)
        assert fires == [True, False, False, True]


class TestForwardSkipped:
    def test_no_skip_equivalence_bitwise(self):
        model, ss, mods = make_setup(seed=4)
        mods.tau = 1.0 - 1e-12  # above every possible gate value
        rng = np.random.default_rng(0)
        points = [f + 1 for f, _ in ss.segments]
        for _ in range(20):
            obs, instr = rng.normal(size=3), rng.normal(size=2)
            a_skip, trace = rt.forward_skipped(model, mods, points, obs, instr)
            a_full, _ = forward_recorded(model, obs, instr)
            assert np.array_equal(a_skip, a_full)
            assert trace.executed_layers == list(range(model.config.depth))
            assert trace.adapters_invoked == []

    def test_saturated_controllers_skip_everything_after_point(self):
        model, ss, mods = make_setup(depth=8, statics=(3, 7), seed=5)
        for j in ss.dynamic_layers:
            mods.params[f"controller{j}.W2"][:] = 0.0
            mods.params[f"controller{j}.b2"][:] = 50.0  # gate ~ 1
        points = [1, 5]
        obs, instr = np.zeros(3), np.zeros(2)
        _, trace = rt.forward_skipped(model, mods, points, obs, instr)
        # forced prefixes: layers 0 (before point 1) and 4 (before point 5)
        executed_dynamic = [j for j in trace.executed_layers
                            if j in ss.dynamic_layers]
        assert executed_dynamic == [0, 4]
        assert trace.controllers_evaluated == [1, 5]
        assert trace.adapters_invoked == [1, 5]
        assert trace.skipped_segments == [0, 1]

    def test_controller_evaluations_bounded_by_active_layers(self):
        model, ss, mods = make_setup(depth=12, statics=(2, 5, 8, 11), seed=6)
        rng = np.random.default_rng(3)
        for _ in range(50):
            points = [rng.integers(f + 1, b + 1) for f, b in ss.segments]
            obs, instr = rng.normal(size=3), rng.normal(size=2)
            _, trace = rt.forward_skipped(model, mods, points, obs, instr)
            active = sum(b - max(p, f + 1) for (f, b), p in zip(ss.segments, points))
            assert len(trace.controllers_evaluated) <= active
            for j in trace.executed_layers:
                assert 0 <= j < 12

    def test_static_layers_always_executed(self):
        model, ss, mods = make_setup(depth=12, statics=(0, 4, 9, 11), seed=7)
        rng = np.random.default_rng(4)
        for trial in range(100):
            points = [rng.integers(f + 1, b + 1) for f, b in ss.segments]
            for j in ss.dynamic_layers:  # randomize gates hard
                mods.params[f"controller{j}.b2"][:] = rng.uniform(-30, 30)
            _, trace = rt.forward_skipped(model, mods, points,
                                          rng.normal(size=3), rng.normal(size=2))
            assert set(ss.indices) <= set(trace.executed_layers)
            assert trace.executed_layers == sorted(set(trace.executed_layers))
            assert trace.flops >= flops.forward_flops(
                flops.arch_costs(model.config), len(ss.indices))


class TestForwardRandom:
    def test_p_zero_equals_full(self):
        model, ss, mods = make_setup(seed=8)
        rng = np.random.default_rng(1)
        obs, instr = rng.normal(size=3), rng.normal(size=2)
        a, trace = rt.forward_random(model, mods, 0.0, rng, obs, instr)
        full, _ = forward_recorded(model, obs, instr)
        assert np.array_equal(a, full)
        assert trace.executed_layers == list(range(6))

    def test_p_one_skips_all_dynamics(self):
        model, ss, mods = make_setup(seed=9)
        rng = np.random.default_rng(2)
        _, trace = rt.forward_random(model, mods, 1.0, rng,
                                     np.zeros(3), np.zeros(2))
        assert [j for j in trace.executed_layers if j in ss.dynamic_layers] == []
        assert set(ss.indices) <= set(trace.executed_layers)


class TestDepthMismatch:
    """Skip modules built for a depth-8 model, run on a depth-12 model: every
    skipping path raises instead of silently dropping blocks 8-11."""

    def _pair(self):
        cfg = PolicyConfig(obs_dim=7, instr_dim=2, hidden_dim=16, depth=8,
                           action_dim=3, seed=0)
        mods = rt.init_skip_modules(build_policy(cfg), StaticSet(indices=(2, 5, 7), depth=8),
                                    seed=1)
        return build_policy(replace(cfg, depth=12)), mods

    MATCH = "static set depth 8 does not match the model's 12"

    def test_init_rejects(self):
        model, mods = self._pair()
        with pytest.raises(ConfigError, match=self.MATCH):
            rt.init_skip_modules(model, mods.static_set)

    def test_forward_skipped_rejects(self):
        model, mods = self._pair()
        points = [front + 1 for front, _ in mods.static_set.segments]
        with pytest.raises(ConfigError, match=self.MATCH):
            rt.forward_skipped(model, mods, points, np.zeros(7), np.zeros(2))

    def test_forward_random_rejects(self):
        model, mods = self._pair()
        with pytest.raises(ConfigError, match=self.MATCH):
            rt.forward_random(model, mods, 0.0, np.random.default_rng(0),
                              np.zeros(7), np.zeros(2))

    def test_controllers_only_rollout_rejects(self):
        model, mods = self._pair()
        task = sim.sample_task_sequence(3, sim.SimConfig(subtasks=2))
        with pytest.raises(ConfigError, match=self.MATCH):
            rt.rollout_episode(task, model, mods, "controllers-only", rt.GuidanceConfig())


class TestRolloutEpisode:
    def _trained_free_setup(self):
        sim_cfg = sim.SimConfig(subtasks=2)
        task = sim.sample_task_sequence(3, sim_cfg)
        cfg = PolicyConfig(obs_dim=7, instr_dim=2, hidden_dim=16, depth=6,
                           action_dim=3, seed=0)
        model = build_policy(cfg)
        ss = StaticSet(indices=(2, 5), depth=6)
        mods = rt.init_skip_modules(model, ss, seed=1)
        return task, model, mods

    def test_full_mode_runs_every_layer(self):
        task, model, mods = self._trained_free_setup()
        ep = rt.rollout_episode(task, model, mods, "full", rt.GuidanceConfig())
        assert ep.n_steps > 0
        for rec in ep.steps:
            assert rec.trace.executed_layers == list(range(6))

    def test_same_seed_same_mode_identical_bytes(self):
        task, model, mods = self._trained_free_setup()
        for mode, kwargs in [("full", {}), ("dysl", {}),
                             ("controllers-only", {}),
                             ("random-skip", {"random_skip_prob": 0.3})]:
            eps = []
            for _ in range(2):
                rng = np.random.default_rng(11)
                eps.append(rt.rollout_episode(task, model, mods, mode,
                                              rt.GuidanceConfig(), rng=rng,
                                              **kwargs))
            lines1 = rt.episode_trace_lines(eps[0])
            lines2 = rt.episode_trace_lines(eps[1])
            assert lines1 == lines2
            assert np.array_equal(np.array(eps[0].actions), np.array(eps[1].actions))

    def test_dysl_warmup_is_full_depth(self):
        task, model, mods = self._trained_free_setup()
        guid = rt.GuidanceConfig(k=5)
        ep = rt.rollout_episode(task, model, mods, "dysl", guid)
        for rec in ep.steps[: guid.k + 1]:
            assert rec.trace.executed_layers == list(range(6))

    def test_trace_dump_round_trip(self, tmp_path):
        task, model, mods = self._trained_free_setup()
        ep = rt.rollout_episode(task, model, mods, "dysl", rt.GuidanceConfig())
        path = tmp_path / "ep.jsonl"
        rt.write_episode_trace(path, ep)
        header, records = rt.read_episode_trace(path)
        assert header["mode"] == "dysl"
        assert len(records) == ep.n_steps
        costs = flops.arch_costs(model.config)
        for rec, step in zip(records, ep.steps):
            assert flops.flop_estimate_record(costs, rec) == step.trace.flops

    def test_unknown_mode_rejected(self):
        task, model, mods = self._trained_free_setup()
        with pytest.raises(ConfigError):
            rt.rollout_episode(task, model, mods, "warp", rt.GuidanceConfig())


class TestGoldenTraces:
    """Seeded rollouts of an untrained policy, pinned by digest so that any
    refactor of the forward paths must keep every decision, action and
    trace byte."""

    CASES = {
        "full": ("full", {}, "c200d8ea86ec4d75"),
        "dysl": ("dysl", {}, "65573b76d0aa4934"),
        "dysl-unverified": ("dysl", {"verification": False}, "1ad66dddbcee0a20"),
        "controllers-only": ("controllers-only", {}, "7eb138fdb173b8bb"),
        "random-skip": ("random-skip", {}, "1c1c1cac2125697f"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rollout_digest(self, case):
        mode, guidance, expected = self.CASES[case]
        task = sim.sample_task_sequence(7, sim.SimConfig(subtasks=2, step_cap=40))
        cfg = PolicyConfig(obs_dim=7, instr_dim=2, hidden_dim=16, depth=8,
                           action_dim=3, seed=3)
        model = build_policy(cfg)
        mods = rt.init_skip_modules(model, StaticSet(indices=(2, 5, 7), depth=8), seed=4)
        ep = rt.rollout_episode(task, model, mods, mode,
                                rt.GuidanceConfig(k=3, **guidance),
                                rng=np.random.default_rng(5), random_skip_prob=0.3)
        h = hashlib.sha256()
        for line in rt.episode_trace_lines(ep):
            h.update(line.encode() + b"\n")
        h.update(np.array(ep.actions).tobytes())
        assert h.hexdigest()[:16] == expected
