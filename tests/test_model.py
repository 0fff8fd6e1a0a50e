import copy
import dataclasses
import hashlib
import pickle
import re

import numpy as np
import pytest

from dynskip import containers, runtime, sim
from dynskip.errors import ConfigError, NumericError, ShapeError
from dynskip.model import (
    PolicyConfig,
    PolicyModel,
    TaskWorkspace,
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
from test_numerics import _PerArrayAdam, unit_forward


def tiny_config(**kw):
    base = dict(instr_dim=2, hidden_dim=8, depth=4, seed=7)
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
        model = build_policy(PolicyConfig(instr_dim=5, hidden_dim=64, depth=12, seed=0))
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
        obs = np.linspace(-0.3, 0.3, sim.OBS_DIM)
        instr = np.array([1.0, 0.0])
        _, trace = forward_recorded(model, obs, instr)
        for x in trace[1:]:
            assert np.array_equal(x, trace[0])

    def test_purity(self):
        model = build_policy(tiny_config())
        obs = np.linspace(-0.3, 0.3, sim.OBS_DIM)
        instr = np.array([0.0, 1.0])
        a1, _ = forward_recorded(model, obs, instr)
        a2, _ = forward_recorded(model, obs, instr)
        assert np.array_equal(a1, a2)

    def test_action_is_head_of_last_trace_entry(self):
        model = build_policy(tiny_config(seed=3))
        rng = np.random.default_rng(0)
        obs = rng.normal(size=sim.OBS_DIM)
        instr = rng.normal(size=2)
        action, trace = forward_recorded(model, obs, instr)
        head = model.params["head.W"] @ trace[-1] + model.params["head.b"]
        assert np.array_equal(action, head)

    def test_trace_consistency_with_standalone_blocks(self):
        model = build_policy(tiny_config(seed=11))
        rng = np.random.default_rng(1)
        _, trace = forward_recorded(model, rng.normal(size=sim.OBS_DIM), rng.normal(size=2))
        for i in range(model.config.depth):
            redo = block_forward(model, i, trace[i])
            assert np.max(np.abs(redo - trace[i + 1])) < 1e-12

    def test_batched_matches_single(self):
        model = build_policy(tiny_config(seed=5))
        rng = np.random.default_rng(2)
        obs = rng.normal(size=(4, sim.OBS_DIM))
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


def block_reference(model, i, x):
    """Block i's output and tanh activation on fresh arrays: the unit plus
    the residual."""
    y, h = unit_forward(model.params, f"block{i}", x)
    return x + y, h


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
            y_o, h_o = np.empty_like(y_ref), np.empty_like(h_ref)
            assert block_forward(model, i, x, out=(y_o, h_o)) is y_o
            assert np.array_equal(y, y_ref) and np.array_equal(y_o, y_ref)
            assert np.array_equal(h_o, h_ref)
            assert x.tobytes() == before
            assert_fresh(y, x, p)

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
        loss, grads = task_loss_and_grads(TaskWorkspace(model, 3), obs, instr, pred)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_duplicating_batch_keeps_loss(self):
        model = build_policy(tiny_config(seed=9))
        obs, instr = self._batch(model, n=4, seed=3)
        targets = np.random.default_rng(4).normal(size=(4, model.config.action_dim))
        loss1, _ = task_loss_and_grads(TaskWorkspace(model, 4), obs, instr, targets)
        loss2, _ = task_loss_and_grads(
            TaskWorkspace(model, 8),
            np.concatenate([obs, obs]),
            np.concatenate([instr, instr]),
            np.concatenate([targets, targets]),
        )
        assert abs(loss1 - loss2) < 1e-12

    def test_empty_batch_rejected(self):
        model = build_policy(tiny_config())
        with pytest.raises(ShapeError, match=r"nonempty 2-D batch, got obs of shape \(0, 7\)"):
            task_loss_and_grads(TaskWorkspace(model, 0), np.zeros((0, sim.OBS_DIM)),
                                np.zeros((0, 2)), np.zeros((0, sim.ACTION_DIM)))
        with pytest.raises(ShapeError, match=r"nonempty 2-D batch, got obs of shape \(7,\)"):
            task_loss_and_grads(TaskWorkspace(model, 1), np.zeros(sim.OBS_DIM), np.zeros(2),
                                np.zeros(sim.ACTION_DIM))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["obs", "instr", "targets"])
    def test_a_non_finite_input_is_named(self, name, bad):
        model = build_policy(tiny_config())
        obs, instr = self._batch(model)
        batch = dict(obs=obs, instr=instr, targets=np.zeros((3, sim.ACTION_DIM)))
        batch[name][1, 0] = bad
        with pytest.raises(NumericError, match=f"non-finite {name}"):
            task_loss_and_grads(TaskWorkspace(model, 3), **batch)

    def test_gradients_match_finite_differences(self):
        model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=4, depth=4, seed=13))
        rng = np.random.default_rng(5)
        obs = rng.normal(size=(3, sim.OBS_DIM))
        instr = rng.normal(size=(3, 2))
        targets = rng.normal(size=(3, sim.ACTION_DIM))
        ws = TaskWorkspace(model, 3)

        def f(params):
            return task_loss_and_grads(ws, obs, instr, targets)

        err = grad_check(f, model.params, step=1e-5)
        assert err < 1e-4

    def test_forward_sees_in_place_adam_updates(self):
        """Adam steps on the arena reach every bound view: the layers, a
        batch forward and a closed-loop rollout equal those of a model
        rebuilt from copies of the stepped params."""
        model = build_policy(tiny_config(seed=13))
        initial = forward_recorded(model, np.ones(7), np.ones(2))[0]
        rng = np.random.default_rng(6)
        obs, instr, targets = (rng.normal(size=(5, n)) for n in (7, 2, 3))
        opt, ws = Adam(lr=0.05), TaskWorkspace(model, 5)
        for _ in range(3):
            task_loss_and_grads(ws, obs, instr, targets)
            opt.step(model.arena, ws.grad_arena)
        fresh = PolicyModel(model.config, {k: v.copy() for k, v in model.params.items()})
        x = rng.normal(size=(5, 8))
        for i in range(model.config.depth):
            assert np.array_equal(block_forward(model, i, x), block_forward(fresh, i, x))
        assert np.array_equal(forward_recorded(model, obs, instr)[0],
                              forward_recorded(fresh, obs, instr)[0])
        assert not np.array_equal(forward_recorded(model, np.ones(7), np.ones(2))[0], initial)
        task = sim.sample_task_sequence(3, sim.SimConfig(subtasks=2))
        episodes = [runtime.rollout_episode(task, m, None, "full", runtime.GuidanceConfig())
                    for m in (model, fresh)]
        assert (runtime.episode_trace_lines(episodes[0])
                == runtime.episode_trace_lines(episodes[1]))
        assert np.array_equal(episodes[0].actions, episodes[1].actions)

    def test_hidden_width_mismatch_rejected(self):
        model = build_policy(tiny_config())
        with pytest.raises(ShapeError):
            block_forward(model, 0, np.zeros(7))

    @pytest.mark.parametrize("obs_rows, instr_rows", [(5, 4), (1, 3), (None, 2)])
    def test_obs_and_instr_row_mismatch_rejected(self, obs_rows, instr_rows):
        """numpy's concatenate would raise a bare ValueError."""
        model = build_policy(tiny_config())
        obs = np.zeros((sim.OBS_DIM,) if obs_rows is None else (obs_rows, sim.OBS_DIM))
        instr = np.zeros((instr_rows, 2))
        with pytest.raises(ShapeError, match=re.escape(f"obs is {obs.shape}, instr is {instr.shape}")):
            embed_forward(model, obs, instr)


def _reference_task_loss_and_grads(model, obs, instr, targets):
    """The allocate-per-call pass that the workspace replaced, kept as the
    reference: every activation, temporary and gradient is a fresh array."""
    p = model.params
    x = embed_forward(model, obs, instr)
    xs, hs = [x], []
    for i in range(model.config.depth):
        x, h = block_reference(model, i, x)
        xs.append(x)
        hs.append(h)
    err = head_forward(model, x) - targets
    loss = float(np.mean(err * err))
    dx = (2.0 / err.size) * err
    grads = dict.fromkeys(p)
    grads["head.W"], grads["head.b"] = dx.T @ xs[-1], dx.sum(axis=0)
    dx = dx @ p["head.W"]
    for i in reversed(range(model.config.depth)):
        W1, b1, W2, b2 = (f"block{i}.{part}" for part in ("W1", "b1", "W2", "b2"))
        dz = dx @ p[W2]
        t = hs[i] * hs[i]
        np.subtract(1.0, t, out=t)
        dz *= t
        grads[W2], grads[b2] = dx.T @ hs[i], dx.sum(axis=0)
        grads[W1], grads[b1] = dz.T @ xs[i], dz.sum(axis=0)
        dx_in = dz @ p[W1]
        dx_in += dx
        dx = dx_in
    u = np.concatenate([obs, instr], axis=-1)
    grads["embed.W"], grads["embed.b"] = dx.T @ u, dx.sum(axis=0)
    return loss, grads


def _digest(params):
    h = hashlib.sha256()
    for k in sorted(params):
        h.update(k.encode())
        h.update(np.ascontiguousarray(params[k]).tobytes())
    return h.hexdigest()


class TestTaskWorkspace:
    """task_loss_and_grads through a workspace equals the allocate-per-call
    reference bit for bit, at the benchmark's layer sizes."""

    def _batch(self, n, seed, dims=(7, 5, 3)):
        rng = np.random.default_rng(seed)
        return tuple(rng.normal(size=(n, d)) for d in dims)

    def _batch_tiny(self, n):
        return self._batch(n, n, dims=(sim.OBS_DIM, 2, sim.ACTION_DIM))

    def _assert_equal_to_reference(self, model, batch, out):
        loss_ref, grads_ref = _reference_task_loss_and_grads(model, *batch)
        loss, grads = out
        assert loss == loss_ref
        assert list(grads) == list(model.params)
        for k in model.params:
            assert np.array_equal(grads[k], grads_ref[k]), k

    @pytest.mark.parametrize("n", [1, 2, 3, 18, 19, 64, 128])
    def test_fresh_and_reused_workspaces_match_the_reference(self, n):
        model = kernel_model()
        first, second = self._batch(n, n), self._batch(n, n + 1000)
        self._assert_equal_to_reference(
            model, first, task_loss_and_grads(TaskWorkspace(model, n), *first))
        ws = TaskWorkspace(model, n)
        for batch in (first, second, first):
            self._assert_equal_to_reference(model, batch, task_loss_and_grads(ws, *batch))

    def test_params_and_gradients_are_views_into_two_arenas_of_one_layout(self):
        """Both in dict order: each parameter at its offset in model.arena,
        its gradient at the same offset in the workspace's gradient arena."""
        model = build_policy(tiny_config())
        ws = TaskWorkspace(model, 3)
        _, grads = task_loss_and_grads(ws, *self._batch_tiny(3))
        assert grads is ws.grads and list(grads) == list(model.params)
        offset = 0
        for k, g in grads.items():
            p = model.params[k]
            assert p.base is model.arena and g.base is ws.grad_arena and g.shape == p.shape
            assert p.__array_interface__["data"][0] == model.arena.ctypes.data + 8 * offset
            assert g.__array_interface__["data"][0] == ws.grad_arena.ctypes.data + 8 * offset
            offset += g.size
        assert offset == model.arena.size == ws.grad_arena.size == model.n_params()

    @pytest.mark.parametrize("n", [1, 24])
    def test_every_gradient_is_written(self, n):
        """A gradient arena filled with NaN comes out finite: the step
        writes every entry."""
        model = kernel_model()
        ws = TaskWorkspace(model, n)
        ws.grad_arena.fill(np.nan)
        task_loss_and_grads(ws, *self._batch(n, 5))
        assert np.all(np.isfinite(ws.grad_arena))

    def test_fifty_adam_steps_through_one_workspace_give_the_reference_digest(self):
        """Arena Adam on the workspace's gradient arena against the
        per-array Adam on the reference's gradient dict."""
        ref_model, model = kernel_model(), kernel_model()
        ref_opt, opt = _PerArrayAdam(lr=3e-3), Adam(lr=3e-3)
        ws = TaskWorkspace(model, 24)
        for step in range(50):
            batch = self._batch(24, 100 + step)
            ref_opt.step(ref_model.params, _reference_task_loss_and_grads(ref_model, *batch)[1])
            task_loss_and_grads(ws, *batch)
            opt.step(model.arena, ws.grad_arena)
        assert _digest(model.params) == _digest(ref_model.params)
        assert _digest(model.params) != _digest(kernel_model().params)

    @pytest.mark.parametrize("n", [2, 4])
    def test_a_batch_of_another_size_is_rejected_by_name(self, n):
        model = build_policy(tiny_config())
        ws = TaskWorkspace(model, 3)
        with pytest.raises(ShapeError, match=f"workspace holds 3 rows, the batch has {n}"):
            task_loss_and_grads(ws, *self._batch_tiny(n))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build_policy(tiny_config(seed=21))
        path = tmp_path / "model.npz"
        save_policy(path, model)
        loaded = load_policy(path)
        assert loaded.config == model.config
        assert np.array_equal(loaded.arena, model.arena)
        for k in model.params:
            assert np.array_equal(loaded.params[k], model.params[k])
            assert loaded.params[k].base is loaded.arena

    @pytest.mark.parametrize("key,shape", [("block1.W2", (8, 7)), ("head.b", (2,)),
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

    def test_the_header_config_holds_the_four_fields(self, tmp_path):
        path = tmp_path / "model.npz"
        save_policy(path, build_policy(tiny_config()))
        header, _ = containers.load_arrays(path)
        assert header["config"] == {"instr_dim": 2, "hidden_dim": 8, "depth": 4, "seed": 7}

    def test_load_rejects_a_schema_1_checkpoint(self, tmp_path):
        """Schema 1 wrote obs_dim and action_dim into the config; such a file
        is stale, not one with unexpected fields."""
        path = tmp_path / "model.npz"
        save_policy(path, build_policy(tiny_config()))
        header, arrays = containers.load_arrays(path)
        header["schema_version"] = 1
        header["config"].update(obs_dim=sim.OBS_DIM, action_dim=sim.ACTION_DIM)
        containers.save_arrays(path, header, arrays)
        with pytest.raises(ConfigError, match="schema_version 1, expected 2"):
            load_policy(path)


def test_the_config_sets_no_observation_or_action_width():
    """Both widths are the environment's: readable on a config, but no field."""
    assert [f.name for f in dataclasses.fields(PolicyConfig)] == [
        "instr_dim", "hidden_dim", "depth", "seed"]
    cfg = tiny_config()
    assert (cfg.obs_dim, cfg.action_dim, cfg.input_dim) == (sim.OBS_DIM, sim.ACTION_DIM,
                                                            sim.OBS_DIM + 2)
    with pytest.raises(TypeError):
        PolicyConfig(obs_dim=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.action_dim = 2


def test_a_model_keeps_its_own_dict_of_arena_views():
    """The dict passed in keeps its arrays, so a second model built from a
    model's params leaves the first one's dict in the first one's arena."""
    model = build_policy(tiny_config(seed=27))
    passed = dict(model.params)
    second = PolicyModel(model.config, passed)
    assert second.params is not passed
    assert all(passed[k] is model.params[k] for k in passed)
    assert all(v.base is model.arena for v in model.params.values())
    assert all(v.base is second.arena for v in second.params.values())
    assert list(second.params) == list(model.params)


COPIES = {"deepcopy": copy.deepcopy, "pickle": lambda obj: pickle.loads(pickle.dumps(obj))}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copy_binds_its_own_params(how):
    """A copied model reads the copy's params: it acts as the original,
    sees in-place updates of the copy's arrays and leaves the original's
    untouched."""
    model = build_policy(tiny_config(seed=25))
    before = {k: v.copy() for k, v in model.params.items()}
    twin = COPIES[how](model)
    assert not np.shares_memory(twin.arena, model.arena)
    assert all(v.base is twin.arena for v in twin.params.values())
    rng = np.random.default_rng(26)
    obs, instr = rng.normal(size=(5, sim.OBS_DIM)), rng.normal(size=(5, 2))
    action = forward_recorded(model, obs, instr)[0]
    assert np.array_equal(forward_recorded(twin, obs, instr)[0], action)
    for arr in twin.params.values():
        arr += rng.normal(scale=0.1, size=arr.shape)
    fresh = PolicyModel(twin.config, {k: v.copy() for k, v in twin.params.items()})
    moved = forward_recorded(twin, obs, instr)[0]
    assert np.array_equal(moved, forward_recorded(fresh, obs, instr)[0])
    assert not np.array_equal(moved, action)
    for k, v in model.params.items():
        assert np.array_equal(v, before[k])
    assert np.array_equal(forward_recorded(model, obs, instr)[0], action)
