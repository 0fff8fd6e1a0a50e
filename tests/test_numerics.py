import numpy as np
import pytest

from dynskip.errors import ShapeError
from dynskip.model import PolicyConfig, PolicyModel, build_policy, head_forward
from dynskip.numerics import Adam, bind_mlp, init_mlp, mlp_forward, mlp_vjp, sigmoid
from gradcheck import grad_check


def _head(W, b):
    """A policy whose action head is y = x @ W.T + b."""
    m, n = W.shape
    model = build_policy(PolicyConfig(obs_dim=1, instr_dim=1, hidden_dim=n, depth=4, action_dim=m))
    model.params["head.W"][:] = W
    model.params["head.b"][:] = b
    return model


class TestAffineForward:
    """The algebra of an affine layer kernel, on the action head."""

    def test_identity(self):
        out = head_forward(_head(np.eye(2), np.zeros(2)), np.array([3.0, 4.0]))
        assert np.array_equal(out, [3.0, 4.0])

    def test_zero_weights(self):
        out = head_forward(_head(np.zeros((2, 2)), np.ones(2)), np.array([5.0, 5.0]))
        assert np.array_equal(out, [1.0, 1.0])

    def test_hand_arithmetic(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = head_forward(_head(W, np.zeros(2)), np.array([1.0, 1.0]))
        assert np.array_equal(out, [3.0, 7.0])

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(0)
        model = _head(rng.normal(size=(3, 4)), rng.normal(size=3))
        X = rng.normal(size=(5, 4))
        batched = head_forward(model, X)
        for i in range(5):
            # GEMV vs GEMM may differ in the last ulp; bit-equality is only
            # guaranteed for identical input shapes
            assert np.allclose(batched[i], head_forward(model, X[i]), rtol=1e-13, atol=1e-15)

    def test_empty_parameter_dict_is_a_no_op(self):
        opt = Adam()
        assert opt.step({}, {}) == {} and opt.t == 1

    def test_shape_mismatch(self):
        model = _head(np.eye(2), np.zeros(2))
        with pytest.raises(ShapeError):
            head_forward(model, np.zeros(3))
        with pytest.raises(ShapeError):
            PolicyModel(model.config, {**model.params, "head.b": np.zeros(3)})

    def test_linearity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            W = rng.normal(size=(4, 3))
            b = rng.normal(size=4)
            model = _head(W, b)
            x, y = rng.normal(size=3), rng.normal(size=3)
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
        params = {"w": np.array([1.0, -2.0, 3.0])}
        before = params["w"].copy()
        opt = Adam(lr=0.1)
        for _ in range(5):
            opt.step(params, {"w": np.zeros(3)})
        assert np.array_equal(params["w"], before)

    def test_first_step_moves_against_gradient(self):
        params = {"w": np.array([0.0])}
        Adam(lr=0.1).step(params, {"w": np.array([1.0])})
        assert params["w"][0] < 0.0

    def test_converges_on_quadratic(self):
        params = {"w": np.array([0.0])}
        opt = Adam(lr=0.1)
        for _ in range(100):
            opt.step(params, {"w": 2.0 * (params["w"] - 2.0)})
        assert abs(params["w"][0] - 2.0) < 0.05

    def test_step_count_increases(self):
        opt = Adam()
        p = {"w": np.zeros(1)}
        opt.step(p, {"w": np.zeros(1)})
        opt.step(p, {"w": np.zeros(1)})
        assert opt.t == 2

    def test_empty_parameter_dict_is_a_no_op(self):
        opt = Adam()
        assert opt.step({}, {}) == {} and opt.t == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Adam().step({"w": np.zeros(2)}, {"w": np.zeros(3)})

    @pytest.mark.parametrize("later", [
        {"w": np.zeros((3, 2)), "b": np.zeros(3)},                       # a name dropped
        {"b": np.zeros(3), "w": np.zeros((3, 2)), "s": np.zeros(1)},     # order changed
        {"w": np.zeros((2, 3)), "b": np.zeros(3), "s": np.zeros(1)},     # shape changed
        {"w": np.zeros((3, 2)), "b": np.zeros(3), "s": np.zeros(1), "x": np.zeros(1)},
    ])
    def test_later_step_with_another_layout_raises(self, later):
        opt = Adam(lr=0.1)
        first = {"w": np.zeros((3, 2)), "b": np.zeros(3), "s": np.zeros(1)}
        opt.step(first, {k: np.ones_like(v) for k, v in first.items()})
        # gradients keep the first step's shapes: only the parameters differ
        with pytest.raises(ShapeError):
            opt.step(later, {k: np.ones_like(first.get(k, v)) for k, v in later.items()})


class _PerArrayAdam:
    """Reference: the per-array Adam loop the flat update replaced."""

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


class TestFlatAdamMatchesPerArrayLoop:
    SHAPES = {"W1": (5, 3), "b1": (5,), "W2": (1, 5), "b2": (1,), "gain": (4,)}

    def _run(self, keys, steps=25, seed=0):
        rng = np.random.default_rng(seed)
        init = {k: rng.normal(size=s) for k, s in self.SHAPES.items()}
        flat = {k: v.copy() for k, v in init.items()}
        ref = {k: v.copy() for k, v in init.items()}
        opt, ref_opt = Adam(lr=0.03), _PerArrayAdam(lr=0.03)
        for t in range(steps):
            zero = t % 6 == 3  # some all-zero steps
            scale = 10.0 ** rng.integers(-3, 2)
            grads = {k: np.zeros(s) if zero else rng.normal(scale=scale, size=s)
                     for k, s in self.SHAPES.items()}
            # fresh dicts over the same arrays: only in-place updates reach flat
            opt.step({k: flat[k] for k in keys}, grads)
            ref_opt.step({k: ref[k] for k in keys}, grads)
        for k in self.SHAPES:
            assert np.array_equal(flat[k], ref[k]), k
        return flat, init

    def test_every_parameter_bit_identical(self):
        flat, init = self._run(list(self.SHAPES))
        assert not any(np.array_equal(flat[k], init[k]) for k in self.SHAPES)

    def test_key_subset_bit_identical_and_rest_untouched(self):
        keys = ["W2", "b1", "gain"]  # not in dict order, like a stage-1 subset
        flat, init = self._run(keys, seed=1)
        for k in set(self.SHAPES) - set(keys):
            assert np.array_equal(flat[k], init[k])


def test_sigmoid_range():
    z = np.linspace(-20, 20, 101)
    s = sigmoid(z)
    assert np.all(s > 0.0) and np.all(s < 1.0)
