import numpy as np
import pytest

from dynskip import distill as dt, runtime as rt, sim
from dynskip.errors import ConfigError
from dynskip.model import PolicyConfig, build_policy, forward_recorded
from dynskip.numerics import Adam, grad_check
from dynskip.profiler import StaticSet


def make_setup(depth=6, statics=(2, 5), seed=0, hidden=8):
    cfg = PolicyConfig(obs_dim=3, instr_dim=2, hidden_dim=hidden, depth=depth,
                       action_dim=2, seed=seed)
    model = build_policy(cfg)
    ss = StaticSet(indices=statics, depth=depth)
    mods = rt.init_skip_modules(model, ss, seed=seed + 1)
    return model, ss, mods


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
        _, grads = dt.stage1_loss_and_grads(model, mods, obs, instr)
        assert set(grads) == set(mods.adapter_keys())
        opt = Adam(lr=1e-2)
        for _ in range(5):
            dt.stage1_step(model, mods, opt, obs, instr)
        for k, v in model.params.items():
            assert np.array_equal(v, before[k])

    def test_grad_check_single_segment(self):
        model, ss, mods = make_setup(depth=4, statics=(3,))
        obs, instr, _ = rand_batch(model, 3, 1)

        def f(p):
            return dt.stage1_loss_and_grads(model, mods, obs, instr)

        adapters = {k: mods.params[k] for k in mods.adapter_keys()}
        assert grad_check(f, adapters, step=1e-5) < 1e-4

    def test_identity_segment_is_learnable(self):
        # one-layer segment with a zeroed block: the adapter target is x itself.
        # the bottleneck adapter can only fit the identity on the data
        # manifold, so inputs must be lower-dimensional than its hidden size
        cfg = PolicyConfig(obs_dim=2, instr_dim=2, hidden_dim=16, depth=4,
                           action_dim=2, seed=2)
        model = build_policy(cfg)
        ss = StaticSet(indices=(0, 1, 3), depth=4)  # single dynamic layer 2
        mods = rt.init_skip_modules(model, ss, seed=3)
        for part in ("W1", "b1", "W2", "b2"):
            model.params[f"block2.{part}"][:] = 0.0
        rng = np.random.default_rng(3)
        obs = rng.normal(size=(64, 2))
        instr = np.tile([1.0, 0.0], (64, 1))
        opt = Adam(lr=3e-3)
        first = dt.stage1_step(model, mods, opt, obs, instr)
        for _ in range(499):
            last = dt.stage1_step(model, mods, opt, obs, instr)
        assert last < 0.1 * first


class TestHarmonicSampling:
    def test_single_layer_is_certain(self):
        rng = np.random.default_rng(0)
        assert dt.sample_segment_layer((4, 6), rng) == 5

    def test_probabilities_hand_computed(self):
        probs = dt.segment_offset_probs(3, "harmonic")
        assert np.allclose(probs, [6 / 11, 3 / 11, 2 / 11])
        probs = dt.segment_offset_probs(4, "harmonic")
        h4 = 1 + 0.5 + 1 / 3 + 0.25
        assert np.allclose(probs, [1 / h4, 0.5 / h4, (1 / 3) / h4, 0.25 / h4])

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_empirical_frequencies_within_3_sigma(self, m):
        rng = np.random.default_rng(100 + m)
        n = 100_000
        draws = np.array([dt.sample_segment_layer((-1, m), rng) for _ in range(n)])
        probs = dt.segment_offset_probs(m, "harmonic")
        for offset in range(m):
            p = probs[offset]
            freq = np.mean(draws == offset)
            bound = 3.0 * np.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= bound

    def test_linear_decay_mode(self):
        probs = dt.segment_offset_probs(3, "linear")
        assert np.allclose(probs, [3 / 6, 2 / 6, 1 / 6])


class TestStage2:
    def test_gate_zero_matches_full_forward(self):
        model, ss, mods = make_setup(seed=5)
        for j in ss.dynamic_layers:
            mods.params[f"controller{j}.W2"][:] = 0.0
            mods.params[f"controller{j}.b2"][:] = -500.0  # g -> 0 (underflows)
        obs, instr, _ = rand_batch(model, 3, 6)
        sels = dt.draw_selections(mods, 3, np.random.default_rng(0))
        actions, gates = dt.stage2_blend_forward(model, mods, sels, obs, instr)
        full, _ = forward_recorded(model, obs, instr)
        assert np.max(np.abs(actions - full)) < 1e-12

    def test_gate_one_matches_adapter_path(self):
        model, ss, mods = make_setup(depth=4, statics=(3,), seed=7)
        for j in ss.dynamic_layers:
            mods.params[f"controller{j}.W2"][:] = 0.0
            mods.params[f"controller{j}.b2"][:] = 500.0  # g -> 1
        rng = np.random.default_rng(1)
        obs, instr = rng.normal(size=(1, 3)), rng.normal(size=(1, 2))
        sel = [np.array([0])]
        actions, gates = dt.stage2_blend_forward(model, mods, sel, obs, instr)
        assert gates[0, 0] == 1.0
        _, trace = forward_recorded(model, obs, instr)
        adapter_out = dt.adapter_forward(mods, 0, trace[0])
        x = adapter_out
        from dynskip.model import block_forward, head_forward
        x = block_forward(model, 3, x)
        assert np.max(np.abs(actions - head_forward(model, x))) < 1e-12

    def test_half_gate_is_arithmetic_mean(self):
        model, ss, mods = make_setup(depth=4, statics=(3,), seed=8)
        for j in ss.dynamic_layers:
            mods.params[f"controller{j}.W1"][:] = 0.0
            mods.params[f"controller{j}.W2"][:] = 0.0
            mods.params[f"controller{j}.b2"][:] = 0.0  # g = 0.5 exactly
        rng = np.random.default_rng(2)
        obs, instr = rng.normal(size=(1, 3)), rng.normal(size=(1, 2))
        _, trace = forward_recorded(model, obs, instr)
        sel = [np.array([1])]
        actions, gates = dt.stage2_blend_forward(model, mods, sel, obs, instr)
        assert gates[0, 0] == 0.5
        adapter_out = dt.adapter_forward(mods, 1, trace[1])
        full_path = trace[3]  # blocks 1..2 applied to trace[1]
        blend = 0.5 * adapter_out + 0.5 * full_path
        from dynskip.model import block_forward, head_forward
        expect = head_forward(model, block_forward(model, 3, blend))
        assert np.max(np.abs(actions - expect)) < 1e-12

    def test_lambda_zero_is_pure_task_loss(self):
        model, ss, mods = make_setup(seed=9)
        obs, instr, targets = rand_batch(model, 4, 10)
        sels = dt.draw_selections(mods, 4, np.random.default_rng(3))
        loss, task, norm, _, _ = dt.stage2_loss_and_grads(
            model, mods, sels, obs, instr, targets, lam=0.0)
        assert loss == task

    def test_saturated_gates_zero_norm_loss(self):
        model, ss, mods = make_setup(seed=11)
        for j in ss.dynamic_layers:
            mods.params[f"controller{j}.W2"][:] = 0.0
            mods.params[f"controller{j}.b2"][:] = 500.0
        obs, instr, targets = rand_batch(model, 4, 12)
        sels = dt.draw_selections(mods, 4, np.random.default_rng(4))
        _, _, norm, gates, _ = dt.stage2_loss_and_grads(
            model, mods, sels, obs, instr, targets, lam=0.1)
        assert norm == 0.0 and np.all(gates == 1.0)

    def test_grad_check_two_segments(self):
        model, ss, mods = make_setup(depth=6, statics=(2, 5), seed=13)
        obs, instr, targets = rand_batch(model, 3, 14)
        sels = dt.draw_selections(mods, 3, np.random.default_rng(5))

        def f(p):
            loss, _, _, _, grads = dt.stage2_loss_and_grads(
                model, mods, sels, obs, instr, targets, lam=0.05)
            return loss, grads

        assert grad_check(f, mods.params, step=1e-5) < 1e-4

    def test_backbone_unchanged_by_stage2(self):
        model, ss, mods = make_setup(seed=15)
        before = {k: v.copy() for k, v in model.params.items()}
        obs, instr, targets = rand_batch(model, 8, 16)
        opt = Adam(lr=1e-3)
        rng = np.random.default_rng(6)
        for _ in range(10):
            dt.stage2_step(model, mods, opt, obs, instr, targets, 0.05, rng)
        for k, v in model.params.items():
            assert np.array_equal(v, before[k])


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


class TestRunTwoStage:
    def _dataset(self, model, n=400, seed=0):
        cfg = sim.SimConfig(subtasks=model.config.instr_dim)
        return sim.generate_dataset(cfg, 4, seed=seed)

    def test_two_stage_runs_and_reduces_stage1_loss(self, tmp_path):
        cfg = PolicyConfig(obs_dim=7, instr_dim=2, hidden_dim=16, depth=6,
                           action_dim=3, seed=17)
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

    def test_backbone_checkpoint_identical_after_training(self, tmp_path):
        from dynskip.model import save_policy
        cfg = PolicyConfig(obs_dim=7, instr_dim=2, hidden_dim=16, depth=6,
                           action_dim=3, seed=20)
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
        with pytest.raises(ConfigError):
            dt.DistillConfig(selection="geometric")
