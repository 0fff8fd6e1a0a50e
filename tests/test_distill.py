import copy
import hashlib
import tracemalloc
from dataclasses import replace
from string import ascii_lowercase

import numpy as np
import pytest

from dynskip import distill as dt, runtime as rt, sim
from dynskip.errors import ConfigError, DegenerateInputError, ShapeError
from dynskip.model import (PolicyConfig, block_forward, block_vjp, build_policy, embed_forward,
                           forward_recorded, head_forward, mse_and_grad)
from dynskip.numerics import Adam, mlp_vjp, sigmoid
from dynskip.profiler import StaticSet
from gradcheck import grad_check
from test_model import block_reference
from test_numerics import _PerArrayAdam, unit_forward


def make_setup(depth=6, statics=(2, 5), seed=0, hidden=8):
    cfg = PolicyConfig(instr_dim=2, hidden_dim=hidden, depth=depth, seed=seed)
    model = build_policy(cfg)
    ss = StaticSet(indices=statics, depth=depth)
    mods = rt.init_skip_modules(model, ss, seed=seed + 1)
    return model, ss, mods


def holding(ws, trace):
    """`ws` with every row of the teacher `trace` gathered into it."""
    ws.gather(trace, np.arange(ws.batch))
    return ws


def adapter_keys(mods):
    return [k for k in mods.params if k.startswith("adapter")]


def rand_batch(model, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, model.config.obs_dim)),
            rng.normal(size=(n, model.config.instr_dim)),
            rng.normal(size=(n, model.config.action_dim)))


class TestStage1:
    def test_backbone_gradients_stay_zero(self):
        model, ss, mods = make_setup()
        obs, instr, _ = rand_batch(model, 4, 0)
        before = {k: v.copy() for k, v in model.params.items()}
        ws = holding(dt.Stage1Workspace(mods, 4), forward_recorded(model, obs, instr)[1])
        _, grads = dt.stage1_loss_and_grads(ws)
        assert list(grads) == adapter_keys(mods)
        opt = Adam(lr=1e-2)
        for _ in range(5):
            dt.stage1_step(ws, opt)
        for k, v in model.params.items():
            assert np.array_equal(v, before[k])

    def test_grad_check_single_segment(self):
        model, ss, mods = make_setup(depth=4, statics=(3,))
        obs, instr, _ = rand_batch(model, 3, 1)

        ws = holding(dt.Stage1Workspace(mods, 3), forward_recorded(model, obs, instr)[1])

        def f(p):
            return dt.stage1_loss_and_grads(ws)

        adapters = {k: mods.params[k] for k in adapter_keys(mods)}
        assert grad_check(f, adapters, step=1e-5) < 1e-4

    def test_identity_segment_is_learnable(self):
        # one-layer segment with a zeroed block: the adapter target is x itself.
        # the bottleneck adapter can only fit the identity on the data
        # manifold, so inputs must be lower-dimensional than its hidden size:
        # only two observation entries vary
        model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=16, depth=4, seed=2))
        ss = StaticSet(indices=(0, 1, 3), depth=4)  # single dynamic layer 2
        mods = rt.init_skip_modules(model, ss, seed=3)
        for part in ("W1", "b1", "W2", "b2"):
            model.params[f"block2.{part}"][:] = 0.0
        rng = np.random.default_rng(3)
        obs = np.zeros((64, sim.OBS_DIM))
        obs[:, :2] = rng.normal(size=(64, 2))
        instr = np.tile([1.0, 0.0], (64, 1))
        opt = Adam(lr=3e-3)
        ws = holding(dt.Stage1Workspace(mods, 64), forward_recorded(model, obs, instr)[1])
        first = dt.stage1_step(ws, opt)
        for _ in range(499):
            last = dt.stage1_step(ws, opt)
        assert last < 0.1 * first


class TestHarmonicSampling:
    def test_single_layer_is_certain(self):
        _, ss, mods = make_setup(depth=8, statics=(4, 6, 7))
        assert ss.segments == ((-1, 4), (4, 6))
        draws = dt.draw_selections(mods, 50, np.random.default_rng(0))
        assert np.array_equal(draws[1], np.full(50, 5))

    def test_probabilities_hand_computed(self):
        probs = dt.segment_offset_probs(3)
        assert np.allclose(probs, [6 / 11, 3 / 11, 2 / 11])
        probs = dt.segment_offset_probs(4)
        h4 = 1 + 0.5 + 1 / 3 + 0.25
        assert np.allclose(probs, [1 / h4, 0.5 / h4, (1 / 3) / h4, 0.25 / h4])

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_empirical_frequencies_within_3_sigma(self, m):
        rng = np.random.default_rng(100 + m)
        n = 100_000
        _, _, mods = make_setup(depth=m + 2, statics=(m, m + 1))  # one segment (-1, m)
        draws = dt.draw_selections(mods, n, rng)[0]
        probs = dt.segment_offset_probs(m)
        for offset in range(m):
            p = probs[offset]
            freq = np.mean(draws == offset)
            bound = 3.0 * np.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= bound

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 13])
    def test_probabilities_are_normalised_harmonic_weights(self, m):
        probs = dt.segment_offset_probs(m)
        h_m = sum(1 / r for r in range(1, m + 1))
        assert probs.shape == (m,)
        assert np.allclose(probs * h_m, [1 / r for r in range(1, m + 1)])
        assert np.isclose(probs.sum(), 1.0)
        assert np.all(np.diff(probs) < 0)

    def test_probabilities_are_cached_and_read_only(self):
        probs = dt.segment_offset_probs(5)
        assert dt.segment_offset_probs(5) is probs
        with pytest.raises(ValueError):
            probs[0] = 1.0

    @pytest.mark.parametrize("m", range(1, 8))
    def test_draws_and_generator_state_equal_rng_choice(self, m):
        """The cached-CDF draw is Generator.choice's: the same offsets and
        the same generator state after each call, segment after segment."""
        depth = max(4, m + 2)
        _, ss, one = make_setup(depth=depth, statics=tuple(range(m, depth)))
        _, _, two = make_setup(depth=m + 4, statics=(1, m + 2, m + 3))  # m = 1, then m
        for mods in (one, two):
            for seed in (0, 1, 2):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(3):
                    draws = dt.draw_selections(mods, 64, rng)
                    for (front, back), got in zip(mods.static_set.segments, draws):
                        n = back - front - 1
                        want = front + 1 + ref.choice(n, p=dt.segment_offset_probs(n), size=64)
                        assert got.dtype == want.dtype and np.array_equal(got, want)
                    assert rng.bit_generator.state == ref.bit_generator.state


class TestStage2:
    def test_gate_zero_matches_full_forward(self):
        model, ss, mods = make_setup(seed=5)
        for j in ss.dynamic_layers:
            mods.params[f"controller{j}.W2"][:] = 0.0
            mods.params[f"controller{j}.b2"][:] = -500.0  # g -> 0 (underflows)
        obs, instr, _ = rand_batch(model, 3, 6)
        sels = dt.draw_selections(mods, 3, np.random.default_rng(0))
        ws = holding(dt.Stage2Workspace(model, mods, 3), forward_recorded(model, obs, instr)[1])
        actions, gates = dt.stage2_blend_forward(ws, sels)
        full, _ = forward_recorded(model, obs, instr)
        assert np.max(np.abs(actions - full)) < 1e-12

    def test_gate_one_matches_adapter_path(self):
        model, ss, mods = make_setup(depth=4, statics=(3,), seed=7)
        for j in ss.dynamic_layers:
            mods.params[f"controller{j}.W2"][:] = 0.0
            mods.params[f"controller{j}.b2"][:] = 500.0  # g -> 1
        rng = np.random.default_rng(1)
        obs, instr = rng.normal(size=(1, sim.OBS_DIM)), rng.normal(size=(1, 2))
        sel = [np.array([0])]
        ws = holding(dt.Stage2Workspace(model, mods, 1), forward_recorded(model, obs, instr)[1])
        actions, gates = dt.stage2_blend_forward(ws, sel)
        assert gates[0, 0] == 1.0
        _, trace = forward_recorded(model, obs, instr)
        adapter_out = dt.adapter_forward(mods, 0, trace[0])
        x = adapter_out
        x = block_forward(model, 3, x)
        assert np.max(np.abs(actions - head_forward(model, x))) < 1e-12

    def test_half_gate_is_arithmetic_mean(self):
        model, ss, mods = make_setup(depth=4, statics=(3,), seed=8)
        for j in ss.dynamic_layers:
            mods.params[f"controller{j}.W1"][:] = 0.0
            mods.params[f"controller{j}.W2"][:] = 0.0
            mods.params[f"controller{j}.b2"][:] = 0.0  # g = 0.5 exactly
        rng = np.random.default_rng(2)
        obs, instr = rng.normal(size=(1, sim.OBS_DIM)), rng.normal(size=(1, 2))
        _, trace = forward_recorded(model, obs, instr)
        sel = [np.array([1])]
        actions, gates = dt.stage2_blend_forward(holding(dt.Stage2Workspace(model, mods, 1),
                                                         trace), sel)
        assert gates[0, 0] == 0.5
        adapter_out = dt.adapter_forward(mods, 1, trace[1])
        full_path = trace[3]  # blocks 1..2 applied to trace[1]
        blend = 0.5 * adapter_out + 0.5 * full_path
        expect = head_forward(model, block_forward(model, 3, blend))
        assert np.max(np.abs(actions - expect)) < 1e-12

    def test_lambda_zero_is_pure_task_loss(self):
        model, ss, mods = make_setup(seed=9)
        obs, instr, targets = rand_batch(model, 4, 10)
        sels = dt.draw_selections(mods, 4, np.random.default_rng(3))
        ws = holding(dt.Stage2Workspace(model, mods, 4), forward_recorded(model, obs, instr)[1])
        loss, task, norm, _, _ = dt.stage2_loss_and_grads(ws, sels, targets, lam=0.0)
        assert loss == task

    def test_saturated_gates_zero_norm_loss(self):
        model, ss, mods = make_setup(seed=11)
        for j in ss.dynamic_layers:
            mods.params[f"controller{j}.W2"][:] = 0.0
            mods.params[f"controller{j}.b2"][:] = 500.0
        obs, instr, targets = rand_batch(model, 4, 12)
        sels = dt.draw_selections(mods, 4, np.random.default_rng(4))
        ws = holding(dt.Stage2Workspace(model, mods, 4), forward_recorded(model, obs, instr)[1])
        _, _, norm, gates, _ = dt.stage2_loss_and_grads(ws, sels, targets, lam=0.1)
        assert norm == 0.0 and np.all(gates == 1.0)

    def test_grad_check_two_segments(self):
        model, ss, mods = make_setup(depth=6, statics=(2, 5), seed=13)
        obs, instr, targets = rand_batch(model, 3, 14)
        sels = dt.draw_selections(mods, 3, np.random.default_rng(5))
        ws = holding(dt.Stage2Workspace(model, mods, 3), forward_recorded(model, obs, instr)[1])

        def f(p):
            loss, _, _, _, grads = dt.stage2_loss_and_grads(ws, sels, targets, lam=0.05)
            return loss, grads

        assert grad_check(f, mods.params, step=1e-5) < 1e-4

    def test_backbone_unchanged_by_stage2(self):
        model, ss, mods = make_setup(seed=15)
        before = {k: v.copy() for k, v in model.params.items()}
        obs, instr, targets = rand_batch(model, 8, 16)
        opt = Adam(lr=1e-3)
        rng = np.random.default_rng(6)
        ws = holding(dt.Stage2Workspace(model, mods, 8), forward_recorded(model, obs, instr)[1])
        for _ in range(10):
            dt.stage2_step(ws, opt, targets, 0.05, rng)
        for k, v in model.params.items():
            assert np.array_equal(v, before[k])

    def test_unselected_units_get_exact_zeros_and_adam_leaves_them(self):
        model, ss, mods = make_setup(depth=6, statics=(2, 5), seed=19)
        obs, instr, targets = rand_batch(model, 6, 20)
        sels = [np.full(6, 0), np.full(6, 3)]  # layers 1 and 4 never selected
        ws = holding(dt.Stage2Workspace(model, mods, 6), forward_recorded(model, obs, instr)[1])
        *_, grads = dt.stage2_loss_and_grads(ws, sels, targets, 0.05)
        assert list(grads) == list(mods.params)
        for k, g in grads.items():
            unselected = k.startswith(("adapter1.", "controller1.", "adapter4.", "controller4."))
            assert isinstance(g, np.ndarray) and g.shape == mods.params[k].shape
            assert np.all(g == 0.0) == unselected, k
        before = {k: v.copy() for k, v in mods.params.items()}
        Adam(lr=1e-2).step(mods.arena, ws.grad_arena)
        for k, v in mods.params.items():
            assert np.array_equal(v, before[k]) == np.all(grads[k] == 0.0), k

    @pytest.mark.parametrize("sels, match", [
        ([np.full(4, 0)], "one selection array per segment"),
        ([np.full(4, 0), np.full(3, 3)], "selection shape"),
        ([np.full(4, 0), np.full((4, 1), 3)], "selection shape"),
        ([[0, 0, 0, 0], [3, 3, 3, 9]], r"segment 1 \(2, 5\): every selection"),
        ([[2, 0, 0, 0], [3, 3, 3, 4]], r"segment 0 \(-1, 2\): every selection")])
    def test_blend_forward_rejects_malformed_selections(self, sels, match):
        model, ss, mods = make_setup(depth=6, statics=(2, 5), seed=21)
        obs, instr, _ = rand_batch(model, 4, 22)
        ws = holding(dt.Stage2Workspace(model, mods, 4), forward_recorded(model, obs, instr)[1])
        with pytest.raises(ConfigError, match=match):
            dt.stage2_blend_forward(ws, sels)


class TestEstimateSkipRate:
    def test_saturated_gates_skip_every_dynamic_layer(self):
        model, ss, mods = make_setup(depth=8, statics=(0, 4, 7), seed=15)
        for j in ss.dynamic_layers:
            mods.params[f"controller{j}.W2"][:] = 0.0
            mods.params[f"controller{j}.b2"][:] = 500.0
        obs, instr, _ = rand_batch(model, 5, 16)
        assert dt.estimate_skip_rate(model, mods, obs, instr) == 1.0

    def test_tau_above_every_gate_skips_nothing(self):
        model, ss, mods = make_setup(depth=8, statics=(0, 4, 7), seed=17)
        obs, instr, _ = rand_batch(model, 5, 18)
        gates = [rt.controller_forward(mods, j, x)
                 for j, x in enumerate(forward_recorded(model, obs, instr)[1][:-1])
                 if j in ss.dynamic_layers]
        mods.tau = float(np.max(gates)) + 1e-9
        assert dt.estimate_skip_rate(model, mods, obs, instr) == 0.0

    def test_one_1d_probe_row_is_one_row(self, monkeypatch):
        model, ss, mods = make_setup(depth=8, statics=(0, 4, 7), seed=19)
        obs, instr, _ = rand_batch(model, 3, 20)
        for o, c in zip(obs, instr):
            assert dt.estimate_skip_rate(model, mods, o, c) == dt.estimate_skip_rate(
                model, mods, o[None], c[None])
        assert dt.estimate_skip_rate(model, mods, np.zeros(sim.OBS_DIM), np.zeros(2)) in (
            0.0, 0.25, 0.5, 0.75, 1.0)  # 4 dynamic layers
        monkeypatch.setattr(dt, "forward_skipped", None)  # the rows are refused before any walk
        with pytest.raises(ShapeError, match="3 probe observation rows but 2 instruction rows"):
            dt.estimate_skip_rate(model, mods, obs, instr[:2])

    def test_no_probe_row_is_degenerate(self, monkeypatch):
        model, ss, mods = make_setup(depth=8, statics=(0, 4, 7), seed=19)
        obs, instr, _ = rand_batch(model, 3, 20)
        monkeypatch.setattr(dt, "forward_skipped", None)  # refused before any walk
        with pytest.raises(DegenerateInputError, match="at least one probe row"):
            dt.estimate_skip_rate(model, mods, obs[:0], instr[:0])


class TestRunTwoStage:
    def _dataset(self, model, n=400, seed=0):
        cfg = sim.SimConfig(subtasks=model.config.instr_dim)
        return sim.generate_dataset(cfg, 4, seed=seed)

    def test_two_stage_runs_and_reduces_stage1_loss(self, tmp_path):
        cfg = PolicyConfig(instr_dim=2, hidden_dim=16, depth=6, seed=17)
        model = build_policy(cfg)
        ds = self._dataset(model, seed=18)
        ss = StaticSet(indices=(2, 5), depth=6)
        dcfg = dt.DistillConfig(stage1_steps=300, stage2_steps=100,
                                batch_size=32, seed=19)
        mods, reports = dt.distill_pipeline(model, ss, ds, dcfg,
                                            log_dir=tmp_path)
        assert not reports["stage1"].diverged
        assert reports["stage1"].losses[-1] <= 0.2 * reports["stage1"].losses[0]
        assert (tmp_path / "stage1_log.csv").exists()
        assert (tmp_path / "stage2_log.csv").exists()
        assert len(reports["stage2"].losses) == 100

    def test_stage_logs_go_into_a_directory_that_does_not_exist_yet(self, tmp_path):
        model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=16, depth=6, seed=25))
        dcfg = dt.DistillConfig(stage1_steps=5, stage2_steps=5, batch_size=8, seed=26)
        log_dir = tmp_path / "a" / "b"
        dt.distill_pipeline(model, StaticSet(indices=(2, 5), depth=6),
                            self._dataset(model, seed=27), dcfg, log_dir=log_dir)
        assert sorted(p.name for p in log_dir.iterdir()) == ["stage1_log.csv",
                                                             "stage2_log.csv"]

    def test_a_stage1_divergence_ends_the_run(self, tmp_path):
        model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=16, depth=6, seed=28))
        ds = self._dataset(model, seed=29)
        ds.obs[:] = np.nan  # a NaN teacher trace: the first stage-1 loss is nan, with no warning
        dcfg = dt.DistillConfig(stage1_steps=5, stage2_steps=5, batch_size=8, seed=30)
        _, reports = dt.distill_pipeline(model, StaticSet(indices=(2, 5), depth=6), ds, dcfg,
                                         log_dir=tmp_path)
        assert list(reports) == ["stage1"]
        assert reports["stage1"].diverged and len(reports["stage1"].losses) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["stage1_log.csv"]

    def test_backbone_checkpoint_identical_after_training(self, tmp_path):
        from dynskip.model import save_policy
        cfg = PolicyConfig(instr_dim=2, hidden_dim=16, depth=6, seed=20)
        model = build_policy(cfg)
        p1, p2 = tmp_path / "before.npz", tmp_path / "after.npz"
        save_policy(p1, model)
        ds = self._dataset(model, seed=21)
        ss = StaticSet(indices=(2, 5), depth=6)
        dcfg = dt.DistillConfig(stage1_steps=50, stage2_steps=50,
                                batch_size=16, seed=22)
        dt.distill_pipeline(model, ss, ds, dcfg)
        save_policy(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            dt.DistillConfig(lam=-0.1)
        with pytest.raises(ConfigError):
            dt.DistillConfig(stage1_steps=0)
        for name, value in [("lam", np.nan), ("lam", np.inf), ("stage2_lr", 0.0),
                            ("stage2_lr", -1e-3), ("stage2_lr", np.nan)]:
            with pytest.raises(ConfigError, match=name):
                dt.DistillConfig(**{name: value})

    def test_skip_modules_of_another_depth_rejected(self):
        cfg = PolicyConfig(instr_dim=2, hidden_dim=16, depth=8, seed=23)
        model = build_policy(replace(cfg, depth=12))
        ds = self._dataset(model, seed=24)
        with pytest.raises(ConfigError, match="static set depth 8 does not match the model's 12"):
            dt.distill_pipeline(model, StaticSet(indices=(2, 5, 7), depth=8), ds,
                                dt.DistillConfig(stage1_steps=5, stage2_steps=5))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_nonpositive_batch_size_rejected(self, batch_size):
        with pytest.raises(ConfigError, match="batch_size"):
            dt.DistillConfig(batch_size=batch_size)


# --- the teacher trace ------------------------------------------------------------
# The per-batch forms that ran a backbone forward on every step, kept as the
# reference the teacher-trace functions must match bit for bit.

def _per_batch_stage1(model, mods, obs, instr):
    _, trace = forward_recorded(model, obs, instr)
    batch = np.atleast_2d(obs).shape[0]
    grads = {k: np.zeros_like(mods.params[k]) for k in adapter_keys(mods)}
    loss = 0.0
    for front, back in mods.static_set.segments:
        target = trace[back]
        for j in range(front + 1, back):
            x = trace[j]
            out, h = unit_forward(mods.params, f"adapter{j}", x)
            resid = out - target
            loss += float(np.sum(resid * resid)) / batch
            rt.adapter_vjp(mods, j, x, h, (2.0 / batch) * resid, grads)
    return loss, grads


def _per_batch_stage2(model, mods, selections, obs, instr, targets, lam):
    """Embed, every block, and the backward down to the embedding."""
    x = embed_forward(model, np.atleast_2d(obs), np.atleast_2d(instr))
    batch = x.shape[0]
    gates = np.zeros((batch, len(selections)))
    caches = []
    for si, (statics, front, back) in enumerate(mods.segment_plan):
        sel = selections[si]
        for layer in statics:
            x, h = block_reference(model, layer, x)
            caches.append(("static", layer, h))
        chain, hs = [x], []
        for j in range(front + 1, back):
            x, h = block_reference(model, j, x)
            chain.append(x)
            hs.append(h)
        full = chain[-1]
        blend = np.empty_like(full)
        seg_cache = []
        for off, j in enumerate(range(front + 1, back)):
            idx = np.flatnonzero(sel == j)
            if idx.size == 0:
                seg_cache.append(None)
                continue
            xj = chain[off][idx]
            z, hc = unit_forward(mods.params, f"controller{j}", xj)
            g = sigmoid(z)[:, 0]
            a, ha = unit_forward(mods.params, f"adapter{j}", xj)
            blend[idx] = g[:, None] * a + (1.0 - g)[:, None] * full[idx]
            gates[idx, si] = g
            seg_cache.append((idx, xj, g, hc, a, ha))
        caches.append(("segment", front, back, chain, hs, seg_cache, sel))
        x = blend
    for layer in mods.trailing_statics:
        x, h = block_reference(model, layer, x)
        caches.append(("static", layer, h))
    actions = head_forward(model, x)
    task_loss, dpred = mse_and_grad(actions, np.atleast_2d(targets))
    norm_loss = 0.0
    for si, (front, back) in enumerate(mods.static_set.segments):
        norm_loss += float(np.sum((1.0 - gates[:, si]) * (back - selections[si]))) / batch
    loss = task_loss + lam * norm_loss
    grads = {k: np.zeros_like(v) for k, v in mods.params.items()}
    dx = np.matmul(dpred, model.params["head.W"])
    for entry in reversed(caches):
        if entry[0] == "static":
            dx = block_vjp(model, entry[1], None, entry[2], dx)
            continue
        _, front, back, chain, hs, seg_cache, sel = entry
        full = chain[-1]
        d = np.zeros_like(full)
        inj = {}
        for off, c in enumerate(seg_cache):
            if c is None:
                continue
            j = front + 1 + off
            idx, xj, g, hc, a, ha = c
            du = dx[idx]
            dg = np.sum(du * (a - full[idx]), axis=1)
            dg += -lam * (back - sel[idx]) / batch
            d[idx] = (1.0 - g)[:, None] * du
            dxa = rt.adapter_vjp(mods, j, xj, ha, g[:, None] * du, grads)
            dxc = rt.controller_vjp(mods, j, xj, hc, g, dg, grads)
            inj[off] = (idx, dxa + dxc)
        for off in reversed(range(len(hs))):
            d = block_vjp(model, front + 1 + off, chain[off], hs[off], d)
            if off in inj:
                d[inj[off][0]] += inj[off][1]
        dx = d
    return loss, task_loss, norm_loss, gates, grads


def _benchmark_sized(statics, rows=600, seed=0):
    """The benchmark's policy shape (d = 64, depth 12) on random rows, with
    the whole-set teacher trace distill_pipeline builds."""
    model = build_policy(PolicyConfig(seed=seed))
    mods = rt.init_skip_modules(model, StaticSet(indices=statics, depth=12), seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    obs = rng.normal(size=(rows, 7))
    instr = np.eye(5)[rng.integers(0, 5, rows)]
    targets = rng.normal(size=(rows, 3))
    teacher = forward_recorded(model, obs, instr)[1]
    return model, mods, obs, instr, targets, teacher, rng


# (0, 2, 9, 10, 11) is the benchmark fixture's static set; (3, 7, 11) has no
# static layer before segment 0, and (0, 1, 10, 11) one long segment
STATIC_SETS = [(0, 2, 9, 10, 11), (3, 7, 11), (0, 1, 10, 11)]


class TestTeacherTrace:
    def test_whole_set_rows_equal_a_per_batch_forward_at_batch_64(self):
        model, _, obs, instr, _, teacher, rng = _benchmark_sized((0, 2, 9, 10, 11))
        for _ in range(10):
            idx = rng.integers(0, len(obs), 64)
            per_batch = forward_recorded(model, obs[idx], instr[idx])[1]
            assert all(np.array_equal(t[idx], b) for t, b in zip(teacher, per_batch))

    @pytest.mark.parametrize("statics", STATIC_SETS)
    def test_stage1_bit_identical_to_the_per_batch_form(self, statics):
        model, mods, obs, instr, _, teacher, rng = _benchmark_sized(statics)
        ws = dt.Stage1Workspace(mods, 64)
        for _ in range(5):
            idx = rng.integers(0, len(obs), 64)
            ws.gather(teacher, idx)
            loss, grads = dt.stage1_loss_and_grads(ws)
            ref_loss, ref_grads = _per_batch_stage1(model, mods, obs[idx], instr[idx])
            assert loss == ref_loss
            assert list(grads) == list(ref_grads)
            assert all(np.array_equal(grads[k], ref_grads[k]) for k in grads)

    @pytest.mark.parametrize("statics", STATIC_SETS)
    def test_stage2_bit_identical_to_the_per_batch_form(self, statics):
        model, mods, obs, instr, targets, teacher, rng = _benchmark_sized(statics)
        ws = dt.Stage2Workspace(model, mods, 64)
        for _ in range(5):
            idx = rng.integers(0, len(obs), 64)
            sels = dt.draw_selections(mods, 64, rng)
            ws.gather(teacher, idx)
            got = dt.stage2_loss_and_grads(ws, sels, targets[idx], lam=0.05)
            ref = _per_batch_stage2(model, mods, sels, obs[idx], instr[idx], targets[idx], 0.05)
            assert got[:3] == ref[:3]
            assert np.array_equal(got[3], ref[3])
            assert list(got[4]) == list(ref[4])
            assert all(np.array_equal(got[4][k], ref[4][k]) for k in got[4])

    @pytest.mark.parametrize("statics", STATIC_SETS)
    def test_block_calls_per_step(self, statics, monkeypatch):
        """Each step runs the blocks it must and nothing more: stage 1 no
        block, stage 2 the blocks from segment 0's closing layer on; no unit
        input gradient in stage 1 or for segment 0's units; and a gather of
        only the teacher layers each stage reads, the rest left None."""
        import dynskip.model as md
        model, mods, _, _, targets, teacher, rng = _benchmark_sized(statics)
        calls = {"forward": 0, "vjp": 0}
        unit_vjps = []  # (unit, whether its VJP formed an input gradient)

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        def recording(params, prefix, *args, **kwargs):
            dx = mlp_vjp(params, prefix, *args, **kwargs)
            unit_vjps.append((prefix, dx is not None))
            return dx

        for module in (dt, md):
            monkeypatch.setattr(module, "block_forward", counting("forward", md.block_forward))
            monkeypatch.setattr(module, "block_vjp", counting("vjp", md.block_vjp))
        monkeypatch.setattr(rt, "mlp_vjp", recording)
        segments = mods.static_set.segments
        idx = rng.integers(0, len(teacher[0]), 64)
        ws1, ws2 = dt.Stage1Workspace(mods, 64), dt.Stage2Workspace(model, mods, 64)
        assert ws1.layers == tuple(sorted({j for front, back in segments
                                           for j in range(front + 1, back + 1)}))
        assert ws2.layers == tuple(range(segments[0][0] + 1, segments[0][1] + 1))
        ws1.gather(teacher, idx)
        dt.stage1_step(ws1, Adam())
        assert calls == {"forward": 0, "vjp": 0}
        assert unit_vjps == [(f"adapter{j}", False) for j in mods.static_set.dynamic_layers]
        unit_vjps.clear()
        ws2.gather(teacher, idx)
        dt.stage2_step(ws2, Adam(), targets[:64], 0.05, rng)
        back0 = segments[0][1]
        assert calls == {"forward": 12 - back0, "vjp": 12 - back0}
        assert unit_vjps and all(formed == (int(unit.lstrip(ascii_lowercase)) > back0)
                                 for unit, formed in unit_vjps)
        if statics == (0, 2, 9, 10, 11):
            assert calls == {"forward": 10, "vjp": 10}
            assert (len(ws1.layers), len(ws2.layers)) == (9, 2)

    @pytest.mark.parametrize("statics", STATIC_SETS)
    def test_every_gathered_teacher_layer_is_read(self, statics):
        """NaNs in any one gathered layer reach the stage's loss, so no stage
        gathers a layer it does not read."""
        model, mods, _, _, targets, teacher, rng = _benchmark_sized(statics)
        idx = rng.integers(0, len(teacher[0]), 64)
        sels = dt.draw_selections(mods, 64, rng)
        for ws in (dt.Stage1Workspace(mods, 64), dt.Stage2Workspace(model, mods, 64)):
            for j in ws.layers:
                rows = ws.gather(teacher, idx)
                rows[j][:] = np.nan
                if isinstance(ws, dt.Stage1Workspace):
                    loss = dt.stage1_loss_and_grads(ws)[0]
                else:
                    loss = dt.stage2_loss_and_grads(ws, sels, targets[idx], 0.05)[0]
                assert np.isnan(loss), (type(ws).__name__, j)

    def test_all_static_stage2_is_the_teachers_action(self):
        model, ss, mods = make_setup(depth=4, statics=(0, 1, 2, 3), seed=21)
        obs, instr, targets = rand_batch(model, 5, 22)
        action, trace = forward_recorded(model, obs, instr)
        ws = holding(dt.Stage2Workspace(model, mods, 5), trace)
        _, task, norm, gates, grads = dt.stage2_loss_and_grads(ws, [], targets, lam=0.05)
        assert task == float(np.mean((action - targets) ** 2))
        assert norm == 0.0 and gates.shape == (5, 0) and grads == {}

    # digests of these runs' mods.params and stage reports under the Haswell
    # kernel that conftest.py forces; the SkylakeX digests they replace were
    # taken with the per-batch forms
    @pytest.mark.parametrize("statics,params_digest,reports_digest", [
        ((2, 5), "7a7548ea24d8d177", "287cc74fc700631e"),
        ((0, 3, 5), "7760e8f233caf90f", "eae0db580009fb21")])
    def test_pipeline_matches_the_per_batch_digests(self, statics, params_digest,
                                                    reports_digest):
        model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=16, depth=6, seed=20))
        ds = sim.generate_dataset(sim.SimConfig(subtasks=2), 4, seed=21)
        dcfg = dt.DistillConfig(stage1_steps=40, stage2_steps=40, batch_size=24, seed=22)
        mods, reports = dt.distill_pipeline(model, StaticSet(indices=statics, depth=6), ds, dcfg)
        h = hashlib.sha256()
        for k in sorted(mods.params):
            h.update(k.encode())
            h.update(np.ascontiguousarray(mods.params[k]).tobytes())
        assert h.hexdigest()[:16] == params_digest
        h = hashlib.sha256()
        for name in sorted(reports):
            r = reports[name]
            for col in (r.losses, r.task_losses, r.norm_losses, r.mean_gates, [r.skip_rate]):
                h.update(repr(col).encode())
        assert h.hexdigest()[:16] == reports_digest


def _unselecting(sels):
    """The fixture's segment (2, 9) restricted to layers 3 and 4, so the
    units of layers 5 to 8 are left unselected."""
    sels = list(sels)
    sels[1] = 3 + np.arange(len(sels[1])) % 2
    return sels


class TestStageWorkspace:
    @pytest.mark.parametrize("statics,unselect", [(s, False) for s in STATIC_SETS]
                             + [((0, 2, 9, 10, 11), True)])
    def test_five_steps_through_one_workspace_equal_the_per_batch_forms(self, statics,
                                                                        unselect):
        """Losses and gradients of 5 Adam steps per stage through one reused
        workspace each, bit for bit, and after every step weights equal to
        those the per-array Adam gives the per-batch forms' gradient dicts.
        With `unselect`, every other stage-2 step leaves the units of layers
        5 to 8 unselected after a step that selected them, so stale
        gradients would show; no step writes into the gathered rows or the
        teacher."""
        model, mods, obs, instr, targets, teacher, rng = _benchmark_sized(statics)
        ref_mods = copy.deepcopy(mods)
        before = [t.copy() for t in teacher]
        ws1, ws2 = dt.Stage1Workspace(mods, 64), dt.Stage2Workspace(model, mods, 64)
        opt1, opt2 = Adam(lr=1e-2), Adam(lr=1e-2)
        ref_opt1, ref_opt2 = _PerArrayAdam(lr=1e-2), _PerArrayAdam(lr=1e-2)
        for step in range(5):
            idx = rng.integers(0, len(obs), 64)
            rows = ws1.gather(teacher, idx)
            gathered = [None if r is None else r.copy() for r in rows]
            ref_loss, ref_grads = _per_batch_stage1(model, ref_mods, obs[idx], instr[idx])
            loss, grads = dt.stage1_loss_and_grads(ws1)
            assert loss == ref_loss
            assert list(grads) == list(ref_grads)
            assert all(np.array_equal(grads[k], ref_grads[k]) for k in grads)
            assert all(np.array_equal(a, b) for a, b in zip(rows, gathered) if b is not None)
            opt1.step(mods.adapter_arena, ws1.grad_arena)
            ref_opt1.step({k: ref_mods.params[k] for k in ref_grads}, ref_grads)
            assert np.array_equal(mods.arena, ref_mods.arena)

            sels = dt.draw_selections(mods, 64, rng)
            if unselect and step % 2:
                sels = _unselecting(sels)
            rows = ws2.gather(teacher, idx)
            gathered = [None if r is None else r.copy() for r in rows]
            ref = _per_batch_stage2(model, ref_mods, sels, obs[idx], instr[idx], targets[idx],
                                    0.05)
            got = dt.stage2_loss_and_grads(ws2, sels, targets[idx], 0.05)
            assert got[:3] == ref[:3]
            assert np.array_equal(got[3], ref[3])
            assert list(got[4]) == list(ref[4])
            assert all(np.array_equal(got[4][k], ref[4][k]) for k in got[4])
            assert all(np.array_equal(a, b) for a, b in zip(rows, gathered) if b is not None)
            opt2.step(mods.arena, ws2.grad_arena)
            ref_opt2.step(ref_mods.params, ref[4])
            assert np.array_equal(mods.arena, ref_mods.arena)
        assert all(np.array_equal(a, b) for a, b in zip(teacher, before))

    @pytest.mark.parametrize("statics,unselect", [(s, False) for s in STATIC_SETS]
                             + [((0, 2, 9, 10, 11), True)])
    def test_every_gradient_is_written(self, statics, unselect):
        """Each stage's gradient arena, filled with NaN before a step, comes
        out finite: the step writes every entry, an unselected unit's as
        zeros."""
        model, mods, _, _, targets, teacher, rng = _benchmark_sized(statics)
        idx = rng.integers(0, len(teacher[0]), 64)
        ws1, ws2 = dt.Stage1Workspace(mods, 64), dt.Stage2Workspace(model, mods, 64)
        ws1.grad_arena.fill(np.nan)
        ws1.gather(teacher, idx)
        dt.stage1_loss_and_grads(ws1)
        assert np.all(np.isfinite(ws1.grad_arena))
        sels = dt.draw_selections(mods, 64, rng)
        ws2.grad_arena.fill(np.nan)
        ws2.gather(teacher, idx)
        dt.stage2_loss_and_grads(ws2, _unselecting(sels) if unselect else sels, targets[idx],
                                 0.05)
        assert np.all(np.isfinite(ws2.grad_arena))

    def test_gradient_arenas_are_laid_out_as_the_trained_arenas(self):
        """Stage 1's gradients mirror `adapter_arena`, stage 2's `arena`:
        every gradient lies at its parameter's offset, keyed in dict order."""
        model, mods, *_ = _benchmark_sized((0, 2, 9, 10, 11))
        ws1, ws2 = dt.Stage1Workspace(mods, 8), dt.Stage2Workspace(model, mods, 8)
        assert list(ws1.grads) == adapter_keys(mods) and list(ws2.grads) == list(mods.params)
        for ws, arena in ((ws1, mods.adapter_arena), (ws2, mods.arena)):
            assert ws.grad_arena.shape == arena.shape
            for k, g in ws.grads.items():
                p = mods.params[k]
                assert g.base is ws.grad_arena and g.shape == p.shape
                assert (g.__array_interface__["data"][0] - ws.grad_arena.ctypes.data
                        == p.__array_interface__["data"][0] - arena.ctypes.data)

    def test_a_batch_of_another_size_is_refused_by_gather(self):
        model, mods, _, _, _, teacher, rng = _benchmark_sized((0, 2, 9, 10, 11))
        idx = rng.integers(0, len(teacher[0]), 64)
        for ws in (dt.Stage1Workspace(mods, 32), dt.Stage2Workspace(model, mods, 32)):
            with pytest.raises(ShapeError, match="holds 32 rows, the batch has 64"):
                ws.gather(teacher, idx)

    def test_an_all_static_set_trains_nothing_and_gathers_only_the_head_input(self):
        model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=16, depth=6, seed=40))
        ss = StaticSet(indices=tuple(range(6)), depth=6)
        ds = sim.generate_dataset(sim.SimConfig(subtasks=2), 4, seed=41)
        mods, reports = dt.distill_pipeline(model, ss, ds, dt.DistillConfig(
            stage1_steps=3, stage2_steps=3, batch_size=8, seed=42))
        assert mods.params == {}
        assert dt.Stage1Workspace(mods, 8).layers == ()
        assert dt.Stage2Workspace(model, mods, 8).layers == (6,)
        assert list(reports) == ["stage1", "stage2"]
        assert reports["stage1"].losses == [0.0] * 3
        last = reports["stage2"]
        assert len(last.losses) == 3 and not last.diverged
        assert all(np.isnan(g) for g in last.mean_gates)
        assert all(loss == task for loss, task in zip(last.losses, last.task_losses))


def test_a_warm_distillation_step_stays_within_its_allocation_bound(monkeypatch):
    """Between two calls of one stage's step lies one step: the batch draw,
    the gather, the loss and gradients and the Adam update. After two
    warm-up steps at batch 64, d 64 and depth 12, none may hold more fresh
    memory at once than 128 KiB in stage 1 or 64 KiB in stage 2 (measured
    33 and 42 KiB); the allocate-per-step form held 274 and 916 KiB, and
    stage 2 with fresh unit outputs and blend temporaries 182-201 KiB. A
    run builds one workspace per stage."""
    marks = {"stage1_step": [], "stage2_step": []}  # (traced bytes at a call, peak since)
    built = []
    for name, stage_marks in marks.items():
        def measured(*args, _step=getattr(dt, name), _marks=stage_marks, **kwargs):
            _marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return _step(*args, **kwargs)
        monkeypatch.setattr(dt, name, measured)
    def counted(cls):
        class Counted(cls):
            def __init__(self, *args):
                built.append(cls.__name__)
                super().__init__(*args)
        return Counted

    for cls in (dt.Stage1Workspace, dt.Stage2Workspace):
        monkeypatch.setattr(dt, cls.__name__, counted(cls))
    model = build_policy(PolicyConfig(instr_dim=2))
    data = sim.generate_dataset(sim.SimConfig(subtasks=2), 3, seed=5)
    tracemalloc.start()
    try:
        dt.distill_pipeline(model, StaticSet(indices=(0, 2, 9, 10, 11), depth=12), data,
                            dt.DistillConfig(stage1_steps=6, stage2_steps=6, batch_size=64))
    finally:
        tracemalloc.stop()
    assert built == ["Stage1Workspace", "Stage2Workspace"]
    for name, bound in (("stage1_step", 128 * 1024), ("stage2_step", 64 * 1024)):
        m = marks[name]
        steps = [peak - at_call for (at_call, _), (_, peak) in zip(m, m[1:])]
        assert len(steps) == 5
        assert max(steps[2:]) <= bound, (name, steps)
