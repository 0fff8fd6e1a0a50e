import re

import numpy as np
import pytest

from dynskip.errors import ShapeError
from dynskip.model import PolicyConfig, PolicyModel, build_policy, head_forward
from dynskip.numerics import (Adam, bind_mlp, flat_views, init_mlp, into_arena, l2_norm,
                              mlp_forward, mlp_vjp, sigmoid)
from gradcheck import grad_check


def unit_forward(params, prefix, x):
    """(y, h) of unit `prefix` on fresh arrays, its widths read from params."""
    (d_hidden, d_in), d_out = params[f"{prefix}.W1"].shape, params[f"{prefix}.W2"].shape[0]
    return mlp_forward(bind_mlp(params, prefix, d_in, d_hidden, d_out), x)


def _head(W, b):
    """A policy whose action head is y = x @ W.T + b; W has the
    environment's action width of rows."""
    model = build_policy(PolicyConfig(instr_dim=1, hidden_dim=W.shape[1], depth=4))
    model.params["head.W"][:] = W
    model.params["head.b"][:] = b
    return model


class TestAffineForward:
    """The algebra of an affine layer kernel, on the action head."""

    def test_identity(self):
        out = head_forward(_head(np.eye(3), np.zeros(3)), np.array([3.0, 4.0, 5.0]))
        assert np.array_equal(out, [3.0, 4.0, 5.0])

    def test_zero_weights(self):
        out = head_forward(_head(np.zeros((3, 2)), np.ones(3)), np.array([5.0, 5.0]))
        assert np.array_equal(out, [1.0, 1.0, 1.0])

    def test_hand_arithmetic(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = head_forward(_head(W, np.zeros(3)), np.array([1.0, 1.0]))
        assert np.array_equal(out, [3.0, 7.0, 11.0])

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(0)
        model = _head(rng.normal(size=(3, 4)), rng.normal(size=3))
        X = rng.normal(size=(5, 4))
        batched = head_forward(model, X)
        for i in range(5):
            # GEMV vs GEMM may differ in the last ulp; bit-equality is only
            # guaranteed for identical input shapes
            assert np.allclose(batched[i], head_forward(model, X[i]), rtol=1e-13, atol=1e-15)

    def test_shape_mismatch(self):
        model = _head(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ShapeError):
            head_forward(model, np.zeros(3))
        with pytest.raises(ShapeError):
            PolicyModel(model.config, {**model.params, "head.b": np.zeros(2)})

    def test_linearity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            W = rng.normal(size=(3, 4))
            b = rng.normal(size=3)
            model = _head(W, b)
            x, y = rng.normal(size=4), rng.normal(size=4)
            a, c = rng.normal(), rng.normal()
            lhs = head_forward(model, a * x + c * y)
            rhs = (a * head_forward(model, x) + c * head_forward(model, y)
                   - (a + c - 1.0) * b)
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestGradCheck:
    def test_quadratic_exact(self):
        params = {"w": np.array([3.0])}

        def f(p):
            w = p["w"][0]
            return w * w, {"w": np.array([2.0 * w])}

        assert grad_check(f, params, step=1e-5) < 1e-8

    def test_detects_wrong_gradient(self):
        params = {"w": np.array([3.0])}

        def f(p):
            w = p["w"][0]
            return w * w, {"w": np.array([3.0 * w])}  # wrong on purpose

        assert grad_check(f, params, step=1e-5) > 1e-2

    def test_gradients_written_into_one_reused_array_are_read_unperturbed(self):
        """Each call overwrites the same gradient array, as a reused
        workspace does. Read after the perturbed calls, it would hold the
        gradient at w - step and err by about 6 w step / 27 = 7e-4."""
        params = {"w": np.array([3.0])}
        reused = np.empty(1)

        def f(p):
            w = p["w"][0]
            reused[0] = 3.0 * w * w
            return w ** 3, {"w": reused}

        assert grad_check(f, params, step=1e-3) < 1e-6


class TestMlpUnit:
    """The two-layer tanh unit that every block, adapter and controller is,
    at the shapes of each (d_in, d_hidden, d_out) at d = 8."""

    SHAPES = {"block": (8, 8, 8), "adapter": (8, 2, 8), "controller": (8, 1, 1)}

    def _unit(self, shape, seed):
        rng = np.random.default_rng(seed)
        params = {}
        init_mlp(rng, params, "unit", *shape)
        for key in ("unit.b1", "unit.b2"):
            params[key][:] = rng.normal(scale=0.5, size=params[key].shape)
        return params, rng

    @pytest.mark.parametrize("unit", sorted(SHAPES))
    @pytest.mark.parametrize("batch", [None, 5])
    def test_vjp_input_gradient_is_the_same_with_and_without_grads(self, unit, batch):
        shape = self.SHAPES[unit]
        params, rng = self._unit(shape, 0)
        x = rng.normal(size=(shape[0],) if batch is None else (batch, shape[0]))
        y, h = mlp_forward(bind_mlp(params, "unit", *shape), x)
        dy = rng.normal(size=y.shape)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        assert np.array_equal(mlp_vjp(params, "unit", x, h, dy),
                              mlp_vjp(params, "unit", x, h, dy, grads))
        assert all(np.any(g != 0.0) for g in grads.values())

    @pytest.mark.parametrize("unit", sorted(SHAPES))
    def test_vjp_stores_gradients_over_whatever_grads_holds(self, unit):
        shape = self.SHAPES[unit]
        params, rng = self._unit(shape, 2)
        x = rng.normal(size=(5, shape[0]))
        y, h = mlp_forward(bind_mlp(params, "unit", *shape), x)
        dy = rng.normal(size=y.shape)
        fresh, prefilled = {}, {k: np.full_like(v, 7.0) for k, v in params.items()}
        dx = mlp_vjp(params, "unit", x, h, dy, fresh)
        assert np.array_equal(mlp_vjp(params, "unit", x, h, dy, prefilled), dx)
        assert set(fresh) == set(params)
        assert all(np.array_equal(prefilled[k], fresh[k]) for k in params)

    @pytest.mark.parametrize("unit", sorted(SHAPES))
    def test_out_arrays_receive_the_fresh_results_bit_for_bit(self, unit):
        shape = self.SHAPES[unit]
        params, rng = self._unit(shape, 3)
        x = rng.normal(size=(5, shape[0]))
        bound = bind_mlp(params, "unit", *shape)
        y, h = mlp_forward(bound, x)
        out = (np.empty_like(y), np.empty_like(h))
        assert all(a is b for a, b in zip(mlp_forward(bound, x, out), out))
        assert np.array_equal(out[0], y) and np.array_equal(out[1], h)
        dy = rng.normal(size=y.shape)
        fresh = {}
        dx = mlp_vjp(params, "unit", x, h, dy, fresh)
        given = {k: np.empty_like(v) for k, v in params.items()}
        arrays = dict(given)
        out = (np.empty_like(h), np.empty_like(h), np.empty_like(x))
        assert mlp_vjp(params, "unit", x, h, dy, given, out) is out[2]
        assert np.array_equal(out[2], dx)
        for k in params:
            assert given[k] is arrays[k] and np.array_equal(given[k], fresh[k]), k

    @pytest.mark.parametrize("unit", sorted(SHAPES))
    def test_gradients_match_finite_differences(self, unit):
        shape = self.SHAPES[unit]
        params, rng = self._unit(shape, 1)
        params["x"] = rng.normal(size=(3, shape[0]))
        c = rng.normal(size=(3, shape[2]))  # loss = sum(c * y), so dy = c

        def f(p):
            y, h = mlp_forward(bind_mlp(p, "unit", *shape), p["x"])
            grads = {k: np.zeros_like(v) for k, v in p.items()}
            grads["x"] = mlp_vjp(p, "unit", p["x"], h, c, grads)
            return float(np.sum(c * y)), grads

        assert grad_check(f, params, step=1e-5) < 1e-7


class TestAdam:
    def test_zero_grad_is_identity(self):
        arena = np.array([1.0, -2.0, 3.0])
        opt = Adam(lr=0.1)
        for _ in range(5):
            opt.step(arena, np.zeros(3))
        assert np.array_equal(arena, [1.0, -2.0, 3.0])

    def test_first_step_moves_against_gradient(self):
        arena = np.array([0.0])
        Adam(lr=0.1).step(arena, np.array([1.0]))
        assert arena[0] < 0.0

    def test_converges_on_quadratic(self):
        arena = np.array([0.0])
        opt = Adam(lr=0.1)
        for _ in range(100):
            opt.step(arena, 2.0 * (arena - 2.0))
        assert abs(arena[0] - 2.0) < 0.05

    def test_step_count_increases(self):
        opt = Adam()
        arena = np.zeros(1)
        opt.step(arena, np.zeros(1))
        opt.step(arena, np.zeros(1))
        assert opt.t == 2

    def test_an_empty_arena_is_a_no_op(self):
        opt = Adam()
        opt.step(np.zeros(0), np.zeros(0))
        assert opt.t == 1

    def test_a_gradient_arena_of_another_size_names_both_sizes(self):
        arena = np.ones(2)
        with pytest.raises(ShapeError, match=r"gradient arena of shape \(3,\).*holds 2 values"):
            Adam().step(arena, np.zeros(3))
        assert np.array_equal(arena, np.ones(2))

    @pytest.mark.parametrize("later", [(3,), (5,), (2, 2)])
    def test_a_later_parameter_arena_of_another_shape_names_both(self, later):
        opt = Adam(lr=0.1)
        opt.step(np.zeros(4), np.ones(4))
        with pytest.raises(ShapeError,
                           match=re.escape(f"parameter arena of shape {later}") + ".*held 4 values"):
            opt.step(np.zeros(later), np.ones(later))
        assert opt.t == 1


class _PerArrayAdam:
    """Reference: the per-array Adam loop over a parameter dict that the
    arena update replaced."""

    def __init__(self, lr):
        self.lr, self.beta1, self.beta2, self.eps = lr, 0.9, 0.999, 1e-8
        self.m, self.v, self.t = {}, {}, 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in params.items():
            g = np.asarray(grads[name], dtype=np.float64)
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            mhat = m / (1.0 - b1 ** self.t)
            vhat = v / (1.0 - b2 ** self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
        return params


class TestArenaAdamMatchesPerArrayLoop:
    SHAPES = {"W1": (5, 3), "b1": (5,), "W2": (1, 5), "b2": (1,), "gain": (4,)}

    def _run(self, keys, steps=25, seed=0):
        """Adam on the arena prefix that holds `keys` (laid out first, as
        SkipModules lays out its adapters) against the per-array loop on
        those keys of a dict copy."""
        rng = np.random.default_rng(seed)
        init = {k: rng.normal(size=s) for k, s in self.SHAPES.items()}
        params = {k: v.copy() for k, v in init.items()}
        layout = list(keys) + [k for k in self.SHAPES if k not in keys]
        arena = into_arena(params, layout)
        trained = arena[:sum(params[k].size for k in keys)]
        grad_arena, grads = flat_views({k: params[k] for k in keys})
        ref = {k: v.copy() for k, v in init.items()}
        opt, ref_opt = Adam(lr=0.03), _PerArrayAdam(lr=0.03)
        for t in range(steps):
            zero = t % 6 == 3  # some all-zero steps
            scale = 10.0 ** rng.integers(-3, 2)
            for k, g in grads.items():
                g[...] = 0.0 if zero else rng.normal(scale=scale, size=g.shape)
            opt.step(trained, grad_arena)
            ref_opt.step({k: ref[k] for k in keys}, grads)
        for k in self.SHAPES:
            assert np.array_equal(params[k], ref[k]), k
        return params, init

    def test_every_parameter_bit_identical(self):
        params, init = self._run(list(self.SHAPES))
        assert not any(np.array_equal(params[k], init[k]) for k in self.SHAPES)

    def test_key_subset_bit_identical_and_rest_untouched(self):
        keys = ["W2", "b1", "gain"]  # not in dict order, like a stage-1 subset
        params, init = self._run(keys, seed=1)
        for k in set(self.SHAPES) - set(keys):
            assert np.array_equal(params[k], init[k])


class TestArena:
    def test_entries_become_views_at_their_layout_offsets(self):
        params = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([7.0]), "c": np.zeros(2)}
        before = {k: v.copy() for k, v in params.items()}
        old_a = params["a"]
        arena = into_arena(params, ["c", "a", "b"])
        assert list(params) == ["a", "b", "c"] and arena.shape == (9,)
        for k, offset in (("c", 0), ("a", 2), ("b", 8)):
            assert params[k].base is arena
            assert params[k].__array_interface__["data"][0] == arena.ctypes.data + 8 * offset
            assert np.array_equal(params[k], before[k])
        arena += 1.0
        assert np.array_equal(params["a"], before["a"] + 1.0)
        assert np.array_equal(old_a, before["a"])  # no longer the entry

    def test_gradient_views_share_the_layout_and_keep_the_key_order(self):
        params = {"a": np.zeros((2, 3)), "b": np.zeros(1), "c": np.zeros(2)}
        grad_arena, grads = flat_views(params, ["c", "a", "b"])
        into_arena(params, ["c", "a", "b"])
        assert list(grads) == ["a", "b", "c"]
        for k in params:
            assert grads[k].shape == params[k].shape and grads[k].base is grad_arena
            assert (grads[k].__array_interface__["data"][0] - grad_arena.ctypes.data
                    == params[k].__array_interface__["data"][0] - params[k].base.ctypes.data)


def test_sigmoid_range():
    z = np.linspace(-20, 20, 101)
    s = sigmoid(z)
    assert np.all(s > 0.0) and np.all(s < 1.0)


def test_sigmoid_into_out_is_bit_equal_and_leaves_z_alone():
    z = np.random.default_rng(3).normal(scale=8.0, size=(64, 1))
    before = z.copy()
    out = np.empty_like(z)
    assert sigmoid(z, out) is out
    assert np.array_equal(out, sigmoid(z)) and np.array_equal(z, before)
    assert np.array_equal(sigmoid(z, z), sigmoid(before))  # in place over z


@pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
def test_l2_norm_is_bit_equal_to_linalg_norm(size):
    rng = np.random.default_rng(size)
    tiny = np.finfo(np.float64).smallest_subnormal
    entries = [lambda: rng.normal(size=size), lambda: np.zeros(size),
               lambda: rng.choice([0.0, -0.0], size=size),
               lambda: rng.choice([tiny, -tiny, 7 * tiny, 2e-308], size=size),
               lambda: rng.uniform(-1, 1, size=size) * 1e150,
               lambda: rng.uniform(-1, 1, size=size) * 1e-150,
               lambda: rng.choice([1e150, -1e-150, 0.0, -0.0, 1.0], size=size)]
    for draw in entries:
        for _ in range(200):
            v = draw()
            assert np.float64(l2_norm(v)).tobytes() == np.linalg.norm(v).tobytes(), v
