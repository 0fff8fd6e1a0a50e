import copy
import hashlib
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from dynskip import containers, flops, model as policy_model, runtime as rt, sim
from dynskip.errors import ConfigError, ShapeError
from dynskip.model import PolicyConfig, build_policy, forward_recorded
from dynskip.numerics import Adam, bind_mlp, gate_forward, init_mlp, mlp_forward, sigmoid
from dynskip.profiler import StaticSet


def make_setup(depth=6, seed=0, statics=(2, 5)):
    cfg = PolicyConfig(instr_dim=2, hidden_dim=8, depth=depth, seed=seed)
    model = build_policy(cfg)
    ss = StaticSet(indices=statics, depth=depth)
    mods = rt.init_skip_modules(model, ss, seed=seed + 1)
    return model, ss, mods


def price(costs, trace):
    """The rollout's pricing of a step record."""
    return flops.flop_estimate(costs, trace.executed_layers, trace.controllers_evaluated,
                               trace.adapters_invoked, trace.verified)


class TestStaticSet:
    def test_requires_final_block(self):
        with pytest.raises(ConfigError):
            StaticSet(indices=(2, 4), depth=6)

    def test_segments_cover_dynamics_once(self):
        ss = StaticSet(indices=(0, 3, 4, 7), depth=8)
        covered = [j for front, back in ss.segments for j in range(front + 1, back)]
        assert sorted(covered) == list(ss.dynamic_layers)
        assert len(set(covered)) == len(covered)

    def test_first_segment_has_virtual_front(self):
        ss = StaticSet(indices=(2, 5), depth=6)
        assert ss.segments[0] == (-1, 2)

    def test_segment_starts_are_each_segments_first_dynamic_layer(self):
        ss = StaticSet(indices=(0, 3, 4, 7), depth=8)
        assert ss.segment_starts == (1, 5)
        assert StaticSet(indices=(2, 5), depth=6).segment_starts == (0, 3)
        assert rt.AllowPointState(ss, rt.GuidanceConfig(k=2)).points == [1, 5]

    def test_derived_layouts_are_computed_once_and_not_compared(self):
        ss = StaticSet(indices=(0, 3, 4, 7), depth=8)
        assert ss.segments is ss.segments
        assert ss.dynamic_layers is ss.dynamic_layers
        assert ss.segment_starts is ss.segment_starts
        fresh = StaticSet(indices=(0, 3, 4, 7), depth=8)
        assert ss == fresh and hash(ss) == hash(fresh) and repr(ss) == repr(fresh)
        again = pickle.loads(pickle.dumps(ss))
        assert again == ss and again.segments == ss.segments


class TestSkipModules:
    def test_one_adapter_and_controller_per_dynamic_layer(self):
        model, ss, mods = make_setup(depth=12, statics=(1, 4, 7, 11))
        n_dyn = len(ss.dynamic_layers)
        assert len({k.split(".")[0] for k in mods.params if k.startswith("adapter")}) == n_dyn
        assert len({k.split(".")[0] for k in mods.params if k.startswith("controller")}) == n_dyn

    def test_params_are_views_into_one_arena_adapters_first(self):
        """Dict order stays the init's (adapter j, then controller j); the
        arena holds every adapter, then every controller, each kind in dict
        order, and `adapter_arena` is exactly the adapters' prefix."""
        _, ss, mods = make_setup(depth=12, statics=(1, 4, 7, 11))
        keys = list(mods.params)
        assert keys[:8] == [f"{kind}0.{part}" for kind in ("adapter", "controller")
                            for part in ("W1", "b1", "W2", "b2")]
        layout = ([k for k in keys if k.startswith("adapter")]
                  + [k for k in keys if k.startswith("controller")])
        assert list(mods.layout) == layout
        offset = 0
        for k in layout:
            p = mods.params[k]
            assert p.base is mods.arena
            assert p.__array_interface__["data"][0] == mods.arena.ctypes.data + 8 * offset
            offset += p.size
            if k == layout[4 * len(ss.dynamic_layers) - 1]:  # the last adapter entry
                assert offset == mods.adapter_arena.size
        assert offset == mods.arena.size
        assert mods.adapter_arena.base is mods.arena
        assert mods.adapter_arena.ctypes.data == mods.arena.ctypes.data

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
        assert back.layout == mods.layout
        assert np.array_equal(back.arena, mods.arena)
        for k in mods.params:
            assert np.array_equal(back.params[k], mods.params[k])
            assert back.params[k].base is back.arena

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
        """Adam steps on the arena, then on its adapter prefix, reach every
        bound view: the units and a closed-loop rollout of every skipping
        mode equal those of modules rebuilt from copies of the stepped
        params."""
        _, _, mods = make_setup()
        rng = np.random.default_rng(2)
        opt, adapter_opt = Adam(lr=0.05), Adam(lr=0.05)
        for _ in range(3):
            opt.step(mods.arena, rng.normal(size=mods.arena.size))
            adapter_opt.step(mods.adapter_arena, rng.normal(size=mods.adapter_arena.size))
        fresh = rt.SkipModules(mods.static_set, mods.hidden_dim, mods.tau,
                               {k: v.copy() for k, v in mods.params.items()})
        x = rng.normal(size=(4, 8))
        for j in mods.static_set.dynamic_layers:
            assert np.array_equal(rt.adapter_forward(mods, j, x), rt.adapter_forward(fresh, j, x))
            assert np.array_equal(rt.controller_forward(mods, j, x),
                                  rt.controller_forward(fresh, j, x))
        task = sim.sample_task_sequence(3, sim.SimConfig(subtasks=2))
        model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6, seed=3))
        for mode in ("dysl", "controllers-only", "random-skip"):
            lines = [rt.episode_trace_lines(rt.rollout_episode(
                task, model, m, mode, rt.GuidanceConfig(), rng=np.random.default_rng(4)))
                for m in (mods, fresh)]
            assert lines[0] == lines[1], mode

    def test_replace_leaves_the_original_its_own_arena(self):
        """dataclasses.replace hands the new modules this one's dict; each
        keeps its own, so Adam on the original's arena still reaches both
        its dict and its bound views."""
        _, _, mods = make_setup()
        other = replace(mods, tau=0.7)
        assert other.params is not mods.params
        assert all(v.base is mods.arena for v in mods.params.values())
        assert not np.shares_memory(other.arena, mods.arena)
        Adam(lr=0.1).step(mods.arena, np.ones(mods.arena.size))
        x = np.random.default_rng(3).normal(size=(2, 8))
        for j in mods.static_set.dynamic_layers:
            bound = bind_mlp(mods.params, f"adapter{j}", 8, mods.adapter_dim, 8)
            assert np.array_equal(rt.adapter_forward(mods, j, x), mlp_forward(bound, x)[0])
            assert not np.array_equal(rt.adapter_forward(other, j, x), mlp_forward(bound, x)[0])

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_a_copy_binds_its_own_params(self, how):
        copy_of = copy.deepcopy if how == "deepcopy" else lambda m: pickle.loads(pickle.dumps(m))
        model, ss, mods = make_setup(depth=8, statics=(2, 5, 7), seed=9)
        before = {k: v.copy() for k, v in mods.params.items()}
        twin = copy_of(mods)
        assert not np.shares_memory(twin.arena, mods.arena) and twin.layout == mods.layout
        assert all(v.base is twin.arena for v in twin.params.values())
        rng = np.random.default_rng(10)
        points = [f + 1 for f, _ in ss.segments]
        x = rng.normal(size=(4, 8))
        for _ in range(10):
            obs, instr = rng.normal(size=sim.OBS_DIM), rng.normal(size=2)
            a, trace = rt.forward_skipped(model, mods, points, obs, instr)
            a_twin, trace_twin = rt.forward_skipped(model, twin, points, obs, instr)
            assert np.array_equal(a_twin, a)
            assert trace_twin.adapters_invoked == trace.adapters_invoked
        for arr in twin.params.values():
            arr += rng.normal(scale=0.1, size=arr.shape)
        fresh = rt.SkipModules(twin.static_set, twin.hidden_dim, twin.tau,
                               {k: v.copy() for k, v in twin.params.items()})
        for j in ss.dynamic_layers:
            moved = rt.adapter_forward(twin, j, x)
            assert np.array_equal(moved, rt.adapter_forward(fresh, j, x))
            assert not np.array_equal(moved, rt.adapter_forward(mods, j, x))
            assert rt.controller_forward(twin, j, x[0]) == rt.controller_forward(fresh, j, x[0])
        for k, v in mods.params.items():
            assert np.array_equal(v, before[k])


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
            ay_o, ah_o = np.empty_like(ay_ref), np.empty_like(ah_ref)
            assert rt.adapter_forward(mods, j, x, out=(ay_o, ah_o)) is ay_o
            assert np.array_equal(ay, ay_ref) and np.array_equal(ay_o, ay_ref)
            assert np.array_equal(ah_o, ah_ref)

            cW1, cb1, cW2, cb2 = (p[f"controller{j}.{part}"] for part in ("W1", "b1", "W2", "b2"))
            ch_ref = np.tanh(x @ cW1.T + cb1)
            cg_ref = sigmoid(ch_ref @ cW2.T + cb2)
            cg_ref = cg_ref[..., 0] if cg_ref.ndim > 1 else float(cg_ref[0])
            cg = rt.controller_forward(mods, j, x)
            assert np.array_equal(cg, cg_ref)
            cz_o, ch_o = np.full(ch_ref.shape[:-1] + (1,), np.nan), np.full_like(ch_ref, np.nan)
            cg_o = rt.controller_forward(mods, j, x, out=(cz_o, ch_o))
            assert np.array_equal(cg_o, cg_ref)
            if batch is None:  # the batch-1 gate kernel writes no out
                assert type(cg_o) is float
                assert np.isnan(cz_o).all() and np.isnan(ch_o).all()
            else:
                assert np.shares_memory(cg_o, cz_o) and np.array_equal(ch_o, ch_ref)

            assert x.tobytes() == before
            for out in (ay, *([cg] if batch else [])):
                for arr in (x, *p.values()):
                    assert not np.shares_memory(out, arr)


def _gate_reference(p, prefix, x):
    h = np.tanh(x @ p[f"{prefix}.W1"].T + p[f"{prefix}.b1"])
    return float(sigmoid(h @ p[f"{prefix}.W2"].T + p[f"{prefix}.b2"])[0])


class TestGateKernel:
    """The batch-1 gate kernel equals the 1-element `h @ W2.T + b2` form
    under `sigmoid` bit for bit, reads x without writing it and sees
    in-place updates of the weights it was bound to."""

    @staticmethod
    def _draws(rng, d, width, n_units, n_x):
        """n_units random 1-wide units of d -> width -> 1, each on n_x random
        inputs; every pair compared bit for bit. Returns the pair count."""
        for _ in range(n_units):
            p = {}
            init_mlp(rng, p, "c", d, width, 1)
            p["c.b1"][:] = rng.normal(scale=0.5, size=width)
            p["c.b2"][:] = rng.normal(scale=2.0, size=1)
            p["c.W2"] *= rng.uniform(0.5, 8.0)  # gates from saturated to balanced
            bound, w2 = bind_mlp(p, "c", d, width, 1), p["c.W2"][0]
            for x in rng.normal(scale=rng.uniform(0.1, 4.0), size=(n_x, d)):
                before = x.tobytes()
                g = gate_forward(bound, w2, x)
                assert type(g) is float
                assert g == _gate_reference(p, "c", x)
                assert x.tobytes() == before
        return n_units * n_x

    def test_bit_equal_at_the_fixture_widths(self):
        d = 64
        width = flops.controller_hidden_dim(d)
        assert width == 8
        assert self._draws(np.random.default_rng(41), d, width, 200, 100) >= 20_000

    def test_bit_equal_at_random_widths(self):
        rng = np.random.default_rng(42)
        n = sum(self._draws(rng, int(rng.integers(1, 129)), int(rng.integers(1, 33)), 1, 20)
                for _ in range(1000))
        assert n >= 20_000

    def test_controller_forward_routes_batch_one_through_the_kernel(self, monkeypatch):
        model = build_policy(PolicyConfig(seed=43))
        mods = rt.init_skip_modules(model, StaticSet(indices=(0, 2, 9, 10, 11), depth=12),
                                    seed=44)
        x = np.random.default_rng(45).normal(size=64)
        j = mods.static_set.dynamic_layers[0]
        g_kernel = rt.controller_forward(mods, j, x)
        assert type(g_kernel) is float
        assert g_kernel == _gate_reference(mods.params, f"controller{j}", x)
        calls = []
        monkeypatch.setattr(rt, "gate_forward", lambda *a: calls.append(a) or 0.5)
        rt.controller_forward(mods, j, x)
        assert len(calls) == 1
        rt.controller_forward(mods, j, x, out=(np.empty(1), np.empty(mods.controller_dim)))
        assert len(calls) == 2
        rt.controller_forward(mods, j, x[None, :])
        assert len(calls) == 2

    def test_sees_in_place_adam_updates(self):
        model = build_policy(PolicyConfig(seed=46))
        mods = rt.init_skip_modules(model, StaticSet(indices=(0, 2, 9, 10, 11), depth=12),
                                    seed=47)
        rng = np.random.default_rng(48)
        x = rng.normal(size=64)
        before = {j: rt.controller_forward(mods, j, x) for j in mods.static_set.dynamic_layers}
        opt = Adam(lr=0.05)
        for _ in range(3):
            opt.step(mods.arena, rng.normal(size=mods.arena.size))
        fresh = rt.SkipModules(mods.static_set, mods.hidden_dim, mods.tau, mods.params)
        for j in mods.static_set.dynamic_layers:
            g = rt.controller_forward(mods, j, x)
            assert g != before[j]
            assert g == rt.controller_forward(fresh, j, x)
            assert g == _gate_reference(mods.params, f"controller{j}", x)


def _continuity(window, k: int) -> float:
    """Reference: minus the mean L2 difference of consecutive actions over
    the trailing window of up to k+1 actions, recomputed from the actions."""
    acts = [np.asarray(a, dtype=np.float64) for a in list(window)[-(k + 1):]]
    total = 0.0
    for prev, cur in zip(acts[:-1], acts[1:]):
        total += float(np.linalg.norm(cur - prev))
    return -total / (len(acts) - 1)


def _observed(actions, k):
    state = rt.AllowPointState(StaticSet(indices=(2, 5), depth=6), rt.GuidanceConfig(k=k))
    for a in actions:
        rt.observe_action(state, a)
    return state


class TestContinuity:
    def test_constant_actions_give_zero(self):
        window = [np.array([0.1, 0.2, 0.0])] * 6
        assert _observed(window, k=5).c_history[-1] == 0.0

    def test_hand_value(self):
        window = [np.zeros(3), np.array([1.0, 0, 0]), np.array([1.0, 1.0, 0])]
        assert _observed(window, k=2).c_history[-1] == -1.0

    def test_short_window_uses_available_pairs(self):
        window = [np.zeros(3), np.array([2.0, 0, 0])]
        assert _observed(window, k=5).c_history[-1] == -2.0

    def test_single_action_degenerate(self):
        assert not _observed([np.zeros(3)], k=5).c_history

    def test_only_trailing_window_counts(self):
        early = np.array([9.0, 9.0, 9.0])
        window = [early] + [np.zeros(3)] * 3
        assert _observed(window, k=2).c_history[-1] == 0.0

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_cached_value_equals_recomputed(self, k):
        state = rt.AllowPointState(StaticSet(indices=(2, 5), depth=6), rt.GuidanceConfig(k=k))
        rng = np.random.default_rng(k)
        actions = []
        for t in range(200):
            actions.append(rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=3))
            rt.observe_action(state, actions[-1])
            if t and rng.random() < 0.4:
                actions[-1] = rng.normal(size=3)
                rt.replace_last_action(state, actions[-1])
            if t:
                assert state.c_history[-1] == _continuity(actions, k)


class TestAllowPoints:
    def _state(self, statics=(2, 6, 9), depth=10, eta=0.1, k=5):
        ss = StaticSet(indices=statics, depth=depth)
        return rt.AllowPointState(ss, rt.GuidanceConfig(k=k, eta=eta))

    def _move(self, state, c_t, c_prev):
        state.c_history.extend([c_prev, c_t])
        rt.update_allow_points(state)

    def test_initialized_after_front_static(self):
        state = self._state()
        assert state.points == [0, 3, 7]

    def test_drop_advances_by_adaptive_stride(self):
        state = self._state()
        self._move(state, c_t=-0.30, c_prev=-0.05)
        # dC = -0.25 -> ceil(2.5) = 3, clamped at each segment's back
        assert state.points == [2, 6, 9]

    @pytest.mark.parametrize("dc, eta, advance", [
        (-0.25, 0.125, 2), (-0.3, 0.125, 3), (-0.5, 0.5, 0), (-0.625, 0.5, 2),
        (-5.0, 0.125, 40), (-100.0, 0.5, 99)])
    def test_a_drop_advances_by_the_ceiling_of_the_drop_over_eta(self, dc, eta, advance):
        # one segment (-1, 99); a drop of exactly eta is in the dead band, and the
        # advance is clamped at the closing static layer
        state = self._state(statics=(99,), depth=100, eta=eta)
        self._move(state, c_t=dc, c_prev=0.0)
        assert state.points == [advance]

    def test_rise_retreats_by_exactly_one(self):
        state = self._state()
        state.points = [2, 5, 9]
        self._move(state, c_t=-0.05, c_prev=-0.30)
        assert state.points == [1, 4, 8]

    def test_dead_band_is_inert(self):
        state = self._state()
        state.points = [1, 4, 8]
        self._move(state, c_t=-0.1, c_prev=-0.05)
        assert state.points == [1, 4, 8]
        self._move(state, c_t=-0.05, c_prev=-0.1)
        assert state.points == [1, 4, 8]

    def test_retreat_clamps_after_front(self):
        state = self._state()
        self._move(state, c_t=0.5, c_prev=0.0)
        assert state.points == [0, 3, 7]

    def test_confinement_under_fuzzing(self):
        state = self._state(eta=0.05)
        segments = state.static_set.segments
        rng = np.random.default_rng(7)
        c_prev = 0.0
        for _ in range(100_000):
            c_t = c_prev + rng.uniform(-0.5, 0.5)
            self._move(state, c_t, c_prev)
            for (front, back), l in zip(segments, state.points):
                assert front < l <= back
            c_prev = c_t

    def test_hysteresis_asymmetry(self):
        # forward motion per drop event is ceil(|dC|/eta) >= 1; retreat is 1
        state = self._state(statics=(99,), depth=100, eta=0.05)
        rng = np.random.default_rng(8)
        for _ in range(2000):
            before = state.points[0]
            dc = rng.uniform(-0.5, 0.5)
            self._move(state, dc, 0.0)
            after = state.points[0]
            if dc < -0.05:
                expected = min(99, before + int(np.ceil(abs(dc) / 0.05)))
                assert after == expected
            elif dc > 0.05:
                assert after == max(0, before - 1)
            else:
                assert after == before

    @pytest.mark.parametrize("eta", [0.0, -0.1, np.nan, np.inf])
    def test_an_eta_that_is_not_finite_and_positive_is_rejected(self, eta):
        """No state is built under such an eta, so no step reads it: a NaN or
        infinite eta would leave the points where they were on a drop of 1.0."""
        with pytest.raises(ConfigError, match=f"eta must be finite and positive, got {eta}"):
            self._state(eta=eta)

    @pytest.mark.parametrize("k", [2.5, True, 0, -1])
    def test_a_k_that_is_not_a_positive_int_is_rejected(self, k):
        """No state is built under such a k: a float k would fail in the
        norms deque, a bool pass as 1."""
        with pytest.raises(ConfigError, match=re.escape(f"k must be an int >= 1, got {k!r}")):
            self._state(k=k)


class TestVerificationTrigger:
    """The trigger through observe_action and post_skip_verify. At k = 1,
    C_t is minus the newest pair distance, so scripted 1-D actions give the
    continuity changes; the re-prediction returns the observed action, so a
    replacement leaves C unchanged. A fire is a re-run."""

    def _fires(self, monkeypatch, deltas, eta=0.1):
        model, ss, _ = make_setup()
        state = rt.AllowPointState(ss, rt.GuidanceConfig(k=1, eta=eta))
        monkeypatch.setattr(rt, "head_forward", lambda model, x: state.window[-1])
        gaps = -np.cumsum([0.0] + deltas)  # |a_t - a_(t-1)| = -C_t, C starts at 0
        fires = []
        for a in np.cumsum([0.0, *gaps]):
            rt.observe_action(state, [a])
            if len(state.c_history) >= 2:
                skipped = rt.ExecTrace(executed_layers=[2, 5], adapters_invoked=[0, 3],
                                       resume_input=np.zeros(8))
                action = rt.post_skip_verify(model, state, skipped)
                fires.append(action is not None)  # only a re-run returns an action
        return fires

    def test_scripted_sequence_fires_once(self, monkeypatch):
        fires = self._fires(monkeypatch, [-0.01, -0.3, -0.3, -0.01])
        assert fires == [False, True, False, False]

    def test_rearm_allows_second_fire(self, monkeypatch):
        fires = self._fires(monkeypatch, [-0.3, -0.3, -0.01, -0.3])
        assert fires == [True, False, False, True]


class TestVerificationRerun:
    """The re-run from the first skipped layer reproduces a fresh full pass
    bit for bit and is charged as the record says."""

    def test_verified_action_equals_a_fresh_full_pass(self):
        rng = np.random.default_rng(50)
        resumed_at = []
        for trial in range(300):
            depth = int(rng.integers(4, 13))
            inner = rng.choice(depth - 1, size=int(rng.integers(0, depth - 1)), replace=False)
            ss = StaticSet(indices=tuple(sorted({*map(int, inner), depth - 1})), depth=depth)
            model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=depth,
                                              seed=trial))
            mods = rt.init_skip_modules(model, ss, seed=trial + 1)
            for j in ss.dynamic_layers:
                mods.params[f"controller{j}.b2"][:] = rng.uniform(-4, 4)
            costs = flops.arch_costs(model.config)
            points = [int(rng.integers(f + 1, b + 1)) for f, b in ss.segments]
            obs, instr = rng.normal(size=sim.OBS_DIM), rng.normal(size=2)
            _, trace = rt.forward_skipped(model, mods, points, obs, instr)
            before = copy.deepcopy(trace)
            state = rt.AllowPointState(ss, rt.GuidanceConfig(k=1, eta=0.004))
            for a in (np.zeros(3), np.zeros(3), np.ones(3)):  # dC = -sqrt(3): fires
                rt.observe_action(state, a)
            action = rt.post_skip_verify(model, state, trace)
            if not trace.adapters_invoked:
                assert action is None and trace == before
                continue
            s = trace.adapters_invoked[0]
            resumed_at.append(s)
            assert np.array_equal(action, forward_recorded(model, obs, instr)[0])
            assert trace.verified
            assert trace.executed_layers == before.executed_layers + list(range(s, depth))
            assert trace.flops is None  # the rollout prices a step, not the re-run
            pass_flops = price(costs, before)
            assert price(costs, trace) == pass_flops + (depth - s) * costs.block + costs.head
        assert len(resumed_at) >= 100 and len(set(resumed_at)) >= 8

    def test_step_records_keep_no_resume_input(self):
        model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=16, depth=8, seed=3))
        mods = rt.init_skip_modules(model, StaticSet(indices=(2, 5, 7), depth=8), seed=4)
        task = sim.sample_task_sequence(7, sim.SimConfig(subtasks=2, step_cap=40))
        for mode in ("dysl", "controllers-only", "random-skip"):
            ep = rt.rollout_episode(task, model, mods, mode, rt.GuidanceConfig(k=3),
                                    rng=np.random.default_rng(5), random_skip_prob=0.3)
            assert any(rec.trace.adapters_invoked for rec in ep.steps)
            assert all(rec.trace.resume_input is None for rec in ep.steps)


class TestForwardSkipped:
    def test_no_skip_equivalence_bitwise(self):
        model, ss, mods = make_setup(seed=4)
        mods.tau = 1.0 - 1e-12  # above every possible gate value
        rng = np.random.default_rng(0)
        points = [f + 1 for f, _ in ss.segments]
        for _ in range(20):
            obs, instr = rng.normal(size=sim.OBS_DIM), rng.normal(size=2)
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
        obs, instr = np.zeros(sim.OBS_DIM), np.zeros(2)
        _, trace = rt.forward_skipped(model, mods, points, obs, instr)
        # forced prefixes: layers 0 (before point 1) and 4 (before point 5)
        executed_dynamic = [j for j in trace.executed_layers
                            if j in ss.dynamic_layers]
        assert executed_dynamic == [0, 4]
        assert trace.controllers_evaluated == [1, 5]
        assert trace.adapters_invoked == [1, 5]

    def test_controller_evaluations_bounded_by_active_layers(self):
        model, ss, mods = make_setup(depth=12, statics=(2, 5, 8, 11), seed=6)
        rng = np.random.default_rng(3)
        for _ in range(50):
            points = [rng.integers(f + 1, b + 1) for f, b in ss.segments]
            obs, instr = rng.normal(size=sim.OBS_DIM), rng.normal(size=2)
            _, trace = rt.forward_skipped(model, mods, points, obs, instr)
            active = sum(b - max(p, f + 1) for (f, b), p in zip(ss.segments, points))
            assert len(trace.controllers_evaluated) <= active
            for j in trace.executed_layers:
                assert 0 <= j < 12

    def test_static_layers_always_executed(self):
        model, ss, mods = make_setup(depth=12, statics=(0, 4, 9, 11), seed=7)
        costs = flops.arch_costs(model.config)
        rng = np.random.default_rng(4)
        for trial in range(100):
            points = [rng.integers(f + 1, b + 1) for f, b in ss.segments]
            for j in ss.dynamic_layers:  # randomize gates hard
                mods.params[f"controller{j}.b2"][:] = rng.uniform(-30, 30)
            _, trace = rt.forward_skipped(model, mods, points,
                                          rng.normal(size=sim.OBS_DIM), rng.normal(size=2))
            assert set(ss.indices) <= set(trace.executed_layers)
            assert trace.executed_layers == sorted(set(trace.executed_layers))
            assert price(costs, trace) >= flops.flop_estimate(costs, ss.indices)

    @pytest.mark.parametrize("points", [[1], [1, 3, 4], []])
    def test_an_allow_point_per_segment_is_required(self, points):
        model, _, mods = make_setup(seed=10)
        with pytest.raises(ShapeError, match=f"{len(points)} allow points for 2 segments"):
            rt.forward_skipped(model, mods, points, np.zeros(sim.OBS_DIM), np.zeros(2))

    @pytest.mark.parametrize("points, message", [
        ([-1, 3], "allow point -1 outside segment (-1, 2)"),
        ([3, 3], "allow point 3 outside segment (-1, 2)"),
        ([1, 2], "allow point 2 outside segment (2, 5)"),
        ([1, 6], "allow point 6 outside segment (2, 5)")])
    def test_an_allow_point_outside_its_segment_is_rejected(self, points, message):
        """A point lies after its segment's opening static layer and at most
        at its closing one."""
        model, _, mods = make_setup(seed=10)
        with pytest.raises(ConfigError, match=re.escape(message)):
            rt.forward_skipped(model, mods, points, np.zeros(sim.OBS_DIM), np.zeros(2))


class TestForwardRandom:
    def test_p_zero_equals_full(self):
        model, ss, mods = make_setup(seed=8)
        rng = np.random.default_rng(1)
        obs, instr = rng.normal(size=sim.OBS_DIM), rng.normal(size=2)
        a, trace = rt.forward_random(model, mods, 0.0, rng, obs, instr)
        full, _ = forward_recorded(model, obs, instr)
        assert np.array_equal(a, full)
        assert trace.executed_layers == list(range(6))

    def test_p_one_skips_all_dynamics(self):
        model, ss, mods = make_setup(seed=9)
        rng = np.random.default_rng(2)
        _, trace = rt.forward_random(model, mods, 1.0, rng, np.zeros(sim.OBS_DIM), np.zeros(2))
        assert [j for j in trace.executed_layers if j in ss.dynamic_layers] == []
        assert set(ss.indices) <= set(trace.executed_layers)

    @pytest.mark.parametrize("p", [-0.1, 1.5, np.nan, np.inf])
    def test_a_probability_outside_the_unit_interval_is_rejected(self, p):
        model, _, mods = make_setup(seed=9)
        with pytest.raises(ConfigError, match=re.escape("skip probability must be in [0, 1]")):
            rt.forward_random(model, mods, p, np.random.default_rng(0),
                              np.zeros(sim.OBS_DIM), np.zeros(2))


class TestDepthMismatch:
    """Skip modules built for a depth-8 model, run on a depth-12 model: every
    skipping path raises instead of silently dropping blocks 8-11."""

    def _pair(self):
        cfg = PolicyConfig(instr_dim=2, hidden_dim=16, depth=8, seed=0)
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
        cfg = PolicyConfig(instr_dim=2, hidden_dim=16, depth=6, seed=0)
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

    @pytest.mark.parametrize("mode", ["dysl", "controllers-only", "random-skip"])
    def test_a_skipping_mode_without_skip_modules_rejected(self, mode):
        task, model, _ = self._trained_free_setup()
        with pytest.raises(ConfigError, match=f"mode '{mode}' requires skip modules"):
            rt.rollout_episode(task, model, None, mode, rt.GuidanceConfig(),
                               rng=np.random.default_rng(0))

    def test_random_skip_without_an_rng_rejected(self):
        task, model, mods = self._trained_free_setup()
        with pytest.raises(ConfigError, match="random-skip mode needs an rng"):
            rt.rollout_episode(task, model, mods, "random-skip", rt.GuidanceConfig(),
                               random_skip_prob=0.3)

    def test_chain_longer_than_the_instruction_width_rejected(self):
        # an untrained policy never reaches subtask 2, so without the up-front
        # check this rollout would finish
        _, model, mods = self._trained_free_setup()
        task = sim.sample_task_sequence(3, sim.SimConfig(subtasks=3))
        with pytest.raises(ConfigError, match="3 subtasks .* instruction width is 2"):
            rt.rollout_episode(task, model, mods, "full", rt.GuidanceConfig())

    @pytest.mark.parametrize("mode", ["full", "dysl"])
    def test_a_diverging_step_is_kept_as_a_zero_action(self, monkeypatch, tmp_path, mode):
        """The policy's action turns non-finite at step T: sim.env_step
        rejects it, and the episode keeps that step's record and a zero action."""
        T = 10
        cfg = PolicyConfig(instr_dim=2, hidden_dim=16, depth=8, seed=3)
        model = build_policy(cfg)
        mods = rt.init_skip_modules(model, StaticSet(indices=(2, 5, 7), depth=8), seed=4)
        observe, head = sim.observe, policy_model.head_forward
        observed = [0]

        def counted_observe(*args):
            observed[0] += 1
            return observe(*args)

        def head_nan_from_step_t(*args):
            action = head(*args)
            return np.full_like(action, np.nan) if observed[0] > T else action

        monkeypatch.setattr(sim, "observe", counted_observe)
        for owner in (policy_model, rt):  # forward_full's head is the model module's
            monkeypatch.setattr(owner, "head_forward", head_nan_from_step_t)
        task = sim.sample_task_sequence(7, sim.SimConfig(subtasks=2, step_cap=40))
        ep = rt.rollout_episode(task, model, mods, mode, rt.GuidanceConfig(k=3))
        assert ep.diverged and ep.diagnostic
        assert not ep.success and ep.success_length == 0
        assert ep.n_steps == len(ep.steps) == len(ep.actions) == T + 1
        assert ep.actions[-1].tolist() == [0.0, 0.0, 0.0]
        assert all(np.isfinite(a).all() for a in ep.actions)
        path = tmp_path / "ep.jsonl"
        rt.write_episode_trace(path, ep)
        header, records = rt.read_episode_trace(path)
        assert header["diverged"] and header["n_steps"] == T + 1
        costs = flops.arch_costs(cfg)
        assert [flops.flop_estimate_record(costs, rec) for rec in records] == [
            rec["flops"] for rec in records]

    @pytest.mark.parametrize("eta", [0.0, -0.004, -0.1, np.nan, np.inf])
    def test_guidance_rejects_an_eta_that_is_not_finite_and_positive(self, eta):
        """A NaN or infinite eta would leave the points where they were on a
        drop of 1.0."""
        with pytest.raises(ConfigError, match=f"eta must be finite and positive, got {eta}"):
            rt.GuidanceConfig(eta=eta)

    @pytest.mark.parametrize("k", [2.5, True, 0, -1])
    def test_guidance_rejects_a_k_that_is_not_a_positive_int(self, k):
        """A float k would fail in deque, a bool pass as 1."""
        with pytest.raises(ConfigError, match=re.escape(f"k must be an int >= 1, got {k!r}")):
            rt.GuidanceConfig(k=k)


class TestGoldenTraces:
    """Seeded rollouts of an untrained policy, pinned by digest so that any
    refactor of the forward paths must keep every decision, action and
    trace byte. Taken under the Haswell kernel that conftest.py forces: the
    dysl cases record continuity values, which are BLAS dots."""

    CASES = {
        "full": ("full", {}, "1bb8aaa580c79d90"),
        "dysl": ("dysl", {}, "1fdadcb78a670382"),
        "dysl-unverified": ("dysl", {"verification": False}, "88e8a1fa18328e4a"),
        # at k = 1 warm-up ends one step before the second continuity value
        "dysl-k1": ("dysl", {"k": 1}, "e90c3743dd659ef6"),
        "controllers-only": ("controllers-only", {}, "c449a57c4583f791"),
        "random-skip": ("random-skip", {}, "ef84bf0092c225a8"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rollout_digest(self, case):
        mode, guidance, expected = self.CASES[case]
        task = sim.sample_task_sequence(7, sim.SimConfig(subtasks=2, step_cap=40))
        cfg = PolicyConfig(instr_dim=2, hidden_dim=16, depth=8, seed=3)
        model = build_policy(cfg)
        mods = rt.init_skip_modules(model, StaticSet(indices=(2, 5, 7), depth=8), seed=4)
        ep = rt.rollout_episode(task, model, mods, mode,
                                rt.GuidanceConfig(**{"k": 3, **guidance}),
                                rng=np.random.default_rng(5), random_skip_prob=0.3)
        h = hashlib.sha256()
        for line in rt.episode_trace_lines(ep):
            h.update(line.encode() + b"\n")
        h.update(np.array(ep.actions).tobytes())
        assert h.hexdigest()[:16] == expected


class TestExecutedWork:
    """Every step's `trace.flops` equals the summed ArchCosts of the embed,
    block, head, adapter and controller calls that step really made, and its
    `executed_layers` is as long as its block calls, counted by wrapping
    them in the module namespaces that call them: the record means work
    executed."""

    CASES = {
        "full": ("full", (2, 5, 7), {}),
        "dysl": ("dysl", (2, 5, 7), {}),
        "dysl-k1": ("dysl", (2, 5, 7), {"k": 1}),
        "dysl-four-segments": ("dysl", (1, 3, 5, 7), {}),
        "controllers-only": ("controllers-only", (1, 3, 5, 7), {}),
        "random-skip": ("random-skip", (1, 3, 5, 7), {}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_step_flops_equal_the_calls_made(self, monkeypatch, case):
        mode, statics, guidance = self.CASES[case]
        cfg = PolicyConfig(instr_dim=2, hidden_dim=16, depth=8, seed=3)
        model = build_policy(cfg)
        mods = rt.init_skip_modules(model, StaticSet(indices=statics, depth=8), seed=4)
        costs = flops.arch_costs(cfg)
        spent, blocks, per_step = [0], [0], []

        def count(owner, name, cost):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                spent[0] += cost
                blocks[0] += name == "block_forward"
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner in (policy_model, rt):
            count(owner, "embed_forward", costs.embed)
            count(owner, "block_forward", costs.block)
            count(owner, "head_forward", costs.head)
        count(rt, "adapter_forward", costs.adapter)
        count(rt, "controller_forward", costs.controller)
        env_step = sim.env_step

        def step(*args):
            per_step.append((spent[0], blocks[0]))
            spent[0] = blocks[0] = 0
            return env_step(*args)

        monkeypatch.setattr(sim, "env_step", step)
        task = sim.sample_task_sequence(7, sim.SimConfig(subtasks=2, step_cap=40))
        ep = rt.rollout_episode(task, model, mods, mode,
                                rt.GuidanceConfig(**{"k": 3, **guidance}),
                                rng=np.random.default_rng(5), random_skip_prob=0.3)
        assert per_step == [(rec.trace.flops, len(rec.trace.executed_layers))
                            for rec in ep.steps]
        verified = [rec.trace for rec in ep.steps if rec.trace.verified]
        if mode == "dysl":
            assert verified
        if case == "dysl-k1":
            assert any(t.adapters_invoked[0] == 0 for t in verified)


class TestPricing:
    """A step is priced once, by rollout_episode, after it is final: the
    forward passes and the verification re-run only record what ran."""

    def _setup(self):
        cfg = PolicyConfig(instr_dim=2, hidden_dim=16, depth=8, seed=3)
        model = build_policy(cfg)
        mods = rt.init_skip_modules(model, StaticSet(indices=(2, 5, 7), depth=8), seed=4)
        return model, mods

    @pytest.mark.parametrize("mode", rt.MODES)
    def test_flop_estimate_runs_once_per_step(self, monkeypatch, mode):
        model, mods = self._setup()
        priced = []
        flop_estimate = flops.flop_estimate

        def counted(costs, executed, controllers=(), adapters=(), verified=False):
            priced.append((list(executed), list(controllers), list(adapters), verified))
            return flop_estimate(costs, executed, controllers, adapters, verified)

        monkeypatch.setattr(flops, "flop_estimate", counted)
        guidance = rt.GuidanceConfig(k=3)
        task = sim.sample_task_sequence(7, sim.SimConfig(subtasks=2, step_cap=40))
        ep = rt.rollout_episode(task, model, mods, mode, guidance,
                                rng=np.random.default_rng(5), random_skip_prob=0.3)
        traces = [rec.trace for rec in ep.steps]
        assert len(priced) == ep.n_steps == len(traces)
        assert priced == [(t.executed_layers, t.controllers_evaluated, t.adapters_invoked,
                           t.verified) for t in traces]
        costs = flops.arch_costs(model.config)
        assert [t.flops for t in traces] == [price(costs, t) for t in traces]
        if mode == "dysl":  # k + 1 warm-up steps at full depth, and verified steps
            assert all(t.executed_layers == list(range(8)) and not t.controllers_evaluated
                       for t in traces[:guidance.k + 1])
            assert any(t.verified for t in traces)

    def test_forward_passes_leave_their_records_unpriced(self):
        model, mods = self._setup()
        obs, instr = np.zeros(7), np.zeros(2)
        traces = [rt.forward_full(model, obs, instr)[1],
                  rt.forward_skipped(model, mods, mods.static_set.segment_starts, obs, instr)[1],
                  rt.forward_random(model, mods, 0.5, np.random.default_rng(0), obs, instr)[1]]
        assert [t.flops for t in traces] == [None, None, None]
