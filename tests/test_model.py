import numpy as np
import pytest

from dynskip import containers
from dynskip.errors import ConfigError, ShapeError
from dynskip.model import (
    PolicyConfig,
    PolicyModel,
    build_policy,
    block_forward,
    embed_forward,
    forward_recorded,
    head_forward,
    load_policy,
    save_policy,
    task_loss_and_grads,
)
from dynskip.numerics import Adam
from gradcheck import grad_check


def tiny_config(**kw):
    base = dict(obs_dim=3, instr_dim=2, hidden_dim=8, depth=4, action_dim=2, seed=7)
    base.update(kw)
    return PolicyConfig(**base)


class TestBuildPolicy:
    def test_deterministic_per_seed(self):
        a = build_policy(tiny_config())
        b = build_policy(tiny_config())
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_seed_changes_weights(self):
        a = build_policy(tiny_config(seed=1))
        b = build_policy(tiny_config(seed=2))
        assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_param_count_formula(self):
        cfg = PolicyConfig(obs_dim=7, instr_dim=5, hidden_dim=64, depth=12,
                           action_dim=3, seed=0)
        model = build_policy(cfg)
        assert model.n_params() == (7 + 5 + 1) * 64 + 12 * (2 * 64 * 64 + 2 * 64) + 65 * 3

    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            tiny_config(depth=3)
        with pytest.raises(ConfigError):
            tiny_config(hidden_dim=0)


class TestForwardRecorded:
    def test_zero_blocks_are_identity(self):
        model = build_policy(tiny_config())
        for i in range(model.config.depth):
            for part in ("W1", "b1", "W2", "b2"):
                model.params[f"block{i}.{part}"][:] = 0.0
        obs = np.array([0.1, -0.2, 0.3])
        instr = np.array([1.0, 0.0])
        _, trace = forward_recorded(model, obs, instr)
        for x in trace[1:]:
            assert np.array_equal(x, trace[0])

    def test_purity(self):
        model = build_policy(tiny_config())
        obs = np.array([0.1, -0.2, 0.3])
        instr = np.array([0.0, 1.0])
        a1, _ = forward_recorded(model, obs, instr)
        a2, _ = forward_recorded(model, obs, instr)
        assert np.array_equal(a1, a2)

    def test_action_is_head_of_last_trace_entry(self):
        model = build_policy(tiny_config(seed=3))
        rng = np.random.default_rng(0)
        obs = rng.normal(size=3)
        instr = rng.normal(size=2)
        action, trace = forward_recorded(model, obs, instr)
        head = model.params["head.W"] @ trace[-1] + model.params["head.b"]
        assert np.array_equal(action, head)

    def test_trace_consistency_with_standalone_blocks(self):
        model = build_policy(tiny_config(seed=11))
        rng = np.random.default_rng(1)
        _, trace = forward_recorded(model, rng.normal(size=3), rng.normal(size=2))
        for i in range(model.config.depth):
            redo = block_forward(model, i, trace[i])
            assert np.max(np.abs(redo - trace[i + 1])) < 1e-12

    def test_batched_matches_single(self):
        model = build_policy(tiny_config(seed=5))
        rng = np.random.default_rng(2)
        obs = rng.normal(size=(4, 3))
        instr = rng.normal(size=(4, 2))
        batch_act, batch_trace = forward_recorded(model, obs, instr)
        for i in range(4):
            act, trace = forward_recorded(model, obs[i], instr[i])
            assert np.allclose(batch_act[i], act, rtol=1e-12, atol=1e-14)
            for a, b in zip(batch_trace, trace):
                assert np.allclose(a[i], b, rtol=1e-12, atol=1e-14)


def kernel_model():
    """The benchmark's layer sizes, with nonzero biases so the bias add counts."""
    model = build_policy(PolicyConfig(seed=21))
    rng = np.random.default_rng(22)
    for k, v in model.params.items():
        if k.endswith((".b", ".b1", ".b2")):
            v[:] = rng.normal(scale=0.5, size=v.shape)
    return model


def assert_fresh(out, x, params):
    for arr in (x, *params.values()):
        assert not np.shares_memory(out, arr)


class TestLayerKernels:
    """Each kernel equals the `x @ W.T + b` form bit for bit, leaves x
    byte-identical and returns memory of its own."""

    @pytest.mark.parametrize("batch", [None, 1, 64])
    def test_block_matches_matmul_form_and_leaves_x_alone(self, batch):
        model = kernel_model()
        p = model.params
        shape = (64,) if batch is None else (batch, 64)
        x = np.random.default_rng(23).normal(size=shape)
        before = x.tobytes()
        for i in range(model.config.depth):
            W1, b1, W2, b2 = (p[f"block{i}.{part}"] for part in ("W1", "b1", "W2", "b2"))
            h_ref = np.tanh(x @ W1.T + b1)
            y_ref = x + (h_ref @ W2.T + b2)
            y = block_forward(model, i, x)
            y_c, h_c = block_forward(model, i, x, cache=True)
            assert np.array_equal(y, y_ref) and np.array_equal(y_c, y_ref)
            assert np.array_equal(h_c, h_ref)
            assert x.tobytes() == before
            for out in (y, y_c, h_c):
                assert_fresh(out, x, p)
            assert not np.shares_memory(y_c, h_c)

    @pytest.mark.parametrize("batch", [None, 1, 64])
    def test_embed_and_head_match_matmul_form(self, batch):
        model = kernel_model()
        p = model.params
        rng = np.random.default_rng(24)
        lead = () if batch is None else (batch,)
        obs, instr, x = (rng.normal(size=lead + (n,)) for n in (7, 5, 64))
        saved = [a.tobytes() for a in (obs, instr, x)]
        u = np.concatenate([obs, instr], axis=-1)
        e = embed_forward(model, obs, instr)
        a = head_forward(model, x)
        assert np.array_equal(e, u @ p["embed.W"].T + p["embed.b"])
        assert np.array_equal(a, x @ p["head.W"].T + p["head.b"])
        assert [v.tobytes() for v in (obs, instr, x)] == saved
        assert_fresh(e, obs, p)
        assert_fresh(e, instr, p)
        assert_fresh(a, x, p)

    @pytest.mark.parametrize("batch", [None, 64])
    def test_recorded_trace_is_not_overwritten_by_later_layers(self, batch):
        model = kernel_model()
        rng = np.random.default_rng(25)
        lead = () if batch is None else (batch,)
        action, trace = forward_recorded(model, rng.normal(size=lead + (7,)),
                                         rng.normal(size=lead + (5,)))
        for i in range(model.config.depth):
            assert np.array_equal(trace[i + 1], block_forward(model, i, trace[i]))
        assert np.array_equal(action, head_forward(model, trace[-1]))
        for a, b in zip(trace, trace[1:]):
            assert not np.shares_memory(a, b)


class TestTaskLoss:
    def _batch(self, model, n=3, seed=0):
        rng = np.random.default_rng(seed)
        obs = rng.normal(size=(n, model.config.obs_dim))
        instr = rng.normal(size=(n, model.config.instr_dim))
        return obs, instr

    def test_perfect_targets_zero_loss(self):
        model = build_policy(tiny_config())
        obs, instr = self._batch(model)
        pred, _ = forward_recorded(model, obs, instr)
        loss, grads = task_loss_and_grads(model, obs, instr, pred)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_duplicating_batch_keeps_loss(self):
        model = build_policy(tiny_config(seed=9))
        obs, instr = self._batch(model, n=4, seed=3)
        targets = np.random.default_rng(4).normal(size=(4, model.config.action_dim))
        loss1, _ = task_loss_and_grads(model, obs, instr, targets)
        loss2, _ = task_loss_and_grads(
            model,
            np.concatenate([obs, obs]),
            np.concatenate([instr, instr]),
            np.concatenate([targets, targets]),
        )
        assert abs(loss1 - loss2) < 1e-12

    def test_empty_batch_rejected(self):
        model = build_policy(tiny_config())
        with pytest.raises(ValueError):
            task_loss_and_grads(model, np.zeros((0, 3)), np.zeros((0, 2)), np.zeros((0, 2)))

    def test_gradients_match_finite_differences(self):
        cfg = PolicyConfig(obs_dim=2, instr_dim=2, hidden_dim=4, depth=4,
                           action_dim=2, seed=13)
        model = build_policy(cfg)
        rng = np.random.default_rng(5)
        obs = rng.normal(size=(3, 2))
        instr = rng.normal(size=(3, 2))
        targets = rng.normal(size=(3, 2))

        def f(params):
            return task_loss_and_grads(model, obs, instr, targets)

        err = grad_check(f, model.params, step=1e-5)
        assert err < 1e-4

    def test_forward_sees_in_place_adam_updates(self):
        model = build_policy(tiny_config(seed=13))
        rng = np.random.default_rng(6)
        obs, instr, targets = (rng.normal(size=(5, n)) for n in (3, 2, 2))
        opt = Adam(lr=0.05)
        for _ in range(3):
            opt.step(model.params, task_loss_and_grads(model, obs, instr, targets)[1])
        fresh = PolicyModel(model.config, {k: v.copy() for k, v in model.params.items()})
        x = rng.normal(size=(5, 8))
        for i in range(model.config.depth):
            assert np.array_equal(block_forward(model, i, x), block_forward(fresh, i, x))
        assert np.array_equal(forward_recorded(model, obs, instr)[0],
                              forward_recorded(fresh, obs, instr)[0])

    def test_hidden_width_mismatch_rejected(self):
        model = build_policy(tiny_config())
        with pytest.raises(ShapeError):
            block_forward(model, 0, np.zeros(7))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build_policy(tiny_config(seed=21))
        path = tmp_path / "model.npz"
        save_policy(path, model)
        loaded = load_policy(path)
        assert loaded.config == model.config
        for k in model.params:
            assert np.array_equal(loaded.params[k], model.params[k])

    @pytest.mark.parametrize("key,shape", [("block1.W2", (8, 7)), ("head.b", (3,)),
                                           ("embed.W", None)])
    def test_load_rejects_mis_shaped_or_missing_array(self, tmp_path, key, shape):
        model = build_policy(tiny_config(seed=23))
        path = tmp_path / "model.npz"
        save_policy(path, model)
        header, arrays = containers.load_arrays(path)
        if shape is None:
            del arrays[key]
        else:
            arrays[key] = np.zeros(shape)
        containers.save_arrays(path, header, arrays)
        with pytest.raises(ShapeError, match=key):
            load_policy(path)

    def test_load_rejects_unexpected_array(self, tmp_path):
        path = tmp_path / "model.npz"
        save_policy(path, build_policy(tiny_config(seed=24)))
        header, arrays = containers.load_arrays(path)
        arrays["block9.W1"] = np.zeros((8, 8))
        containers.save_arrays(path, header, arrays)
        with pytest.raises(ShapeError, match="unexpected parameter 'block9.W1'"):
            load_policy(path)

    def test_save_is_byte_deterministic(self, tmp_path):
        model = build_policy(tiny_config(seed=22))
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_policy(p1, model)
        save_policy(p2, model)
        assert p1.read_bytes() == p2.read_bytes()
