"""Float64 linear-algebra and optimization primitives shared by every module.

The set of differentiable ops is small and closed (affine, tanh, sigmoid,
residual add, gate blend), so gradients are hand-derived VJPs rather than an
autodiff graph. Reductions use numpy's default left-to-right summation, so
repeated runs on identical inputs are bit-identical.

Backbone blocks, adapters and gate controllers are one unit,
y = W2 tanh(W1 x + b1) + b2; its parameter keys, initialization, binding,
forward kernel and VJP live here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ShapeError

Params = dict[str, np.ndarray]


def check_finite(x, what: str = "value") -> None:
    """Raise NumericError if x contains NaN or Inf."""
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite {what}")


def as_f64(x, what: str = "array") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    check_finite(arr, what)
    return arr


def bind_affine(params: Params, w_key: str, b_key: str, m: int, n: int):
    """The (W.T, b) pair of y = x @ W.T + b, with params[w_key] checked to be
    (m, n) and params[b_key] to be (m,). W.T is a view, never a copy, so
    in-place updates of the stored arrays stay visible through it."""
    for key, shape in ((w_key, (m, n)), (b_key, (m,))):
        found = params[key].shape if key in params else "no such key"
        if found != shape:
            raise ShapeError(f"parameter {key!r}: expected shape {shape}, found {found}")
    return params[w_key].T, params[b_key]


def reject_unknown_keys(params: Params, known) -> None:
    """ShapeError naming the first parameter that `known` does not list."""
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ShapeError(f"unexpected parameter {unknown[0]!r}")


def affine_vjp(W: np.ndarray, x: np.ndarray, dy: np.ndarray):
    """Gradients of y = x @ W.T + b given upstream dy. Returns (dW, db, dx)."""
    x2 = np.atleast_2d(x)
    dy2 = np.atleast_2d(dy)
    dW = dy2.T @ x2
    db = dy2.sum(axis=0)
    dx = dy @ W
    return dW, db, dx


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64 vector, bit-equal to np.linalg.norm(v),
    which computes sqrt(v.dot(v)) for it too, without that call's dispatch."""
    return math.sqrt(v.dot(v))


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# --- the two-layer tanh unit ---------------------------------------------------

MLP_PARTS = ("W1", "b1", "W2", "b2")


def _mlp_keys(prefix: str) -> list[str]:
    return [f"{prefix}.{part}" for part in MLP_PARTS]


def scaled_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


def init_mlp(rng: np.random.Generator, params: Params, prefix: str,
             d_in: int, d_hidden: int, d_out: int) -> None:
    """Add unit `prefix` to params: W1 then W2 drawn scaled-uniform from rng,
    in that order, with zero biases."""
    W1, b1, W2, b2 = _mlp_keys(prefix)
    params[W1] = scaled_uniform(rng, d_in, (d_hidden, d_in))
    params[b1] = np.zeros(d_hidden)
    params[W2] = scaled_uniform(rng, d_hidden, (d_out, d_hidden))
    params[b2] = np.zeros(d_out)


def bind_mlp(params: Params, prefix: str, d_in: int, d_hidden: int, d_out: int):
    """The (W1.T, b1, W2.T, b2) views of unit `prefix`, each shape-checked
    as bind_affine does."""
    W1, b1, W2, b2 = _mlp_keys(prefix)
    return (bind_affine(params, W1, b1, d_hidden, d_in)
            + bind_affine(params, W2, b2, d_out, d_hidden))


def mlp_forward(bound, x: np.ndarray):
    """y = W2 tanh(W1 x + b1) + b2 on the views bind_mlp returns, for a
    single sample or a (batch, d_in) matrix. Returns (y, h), h = tanh(W1 x + b1).

    The kernel contract, which the embedding and head kernels in `model`
    keep too: outputs are freshly allocated and x, which may be an entry of
    the trace `forward_recorded` returns, is never written; the in-place ops
    (bias add, tanh, a block's residual add) touch only the fresh output. At
    every batch size the bits equal the `x @ W.T + b` form: `np.dot` makes
    the same BLAS call as `@` for these shapes, the controller's 1-wide
    second layer included, and in-place addition does the same IEEE
    operations (addition commutes, so a block's `y += x` after the bias
    equals `x + (h @ W2.T + b2)`). At batch 1 this saves numpy calls and
    temporaries, which at this model size cost more than the arithmetic.
    """
    W1T, b1, W2T, b2 = bound
    h = np.dot(x, W1T)
    h += b1
    np.tanh(h, out=h)
    y = np.dot(h, W2T)
    y += b2
    return y, h


def mlp_vjp(params: Params, prefix: str, x, h, dy, grads: Params | None = None):
    """Input gradient of unit `prefix` given upstream dy and the forward's h.
    With `grads` given, the unit's parameter gradients are accumulated into
    it; without, x is not read (a frozen unit needs only h)."""
    W1, b1, W2, b2 = _mlp_keys(prefix)
    dz = (dy @ params[W2]) * (1.0 - h * h)  # through tanh, from its output h
    if grads is not None:
        dy2 = np.atleast_2d(dy)
        dz2 = np.atleast_2d(dz)
        grads[W2] += dy2.T @ np.atleast_2d(h)
        grads[b2] += dy2.sum(axis=0)
        grads[W1] += dz2.T @ np.atleast_2d(x)
        grads[b1] += dz2.sum(axis=0)
    return dz @ params[W1]


class Adam:
    """Adaptive-moment optimizer over a named parameter dict, with flat state.

    The first step fixes the layout: the parameter names, their order and
    their shapes. The moments `m` and `v` and two scratch buffers are then one
    flat float64 array each, laid out in that order, so every step is a fixed
    number of whole-buffer operations however many arrays there are. Each
    later step must pass the same layout, or step() raises ShapeError; give
    each parameter subset its own Adam. step() still updates the passed
    parameter arrays in place and returns them, so views bound to them
    (PolicyModel, SkipModules) see every update. With zero gradients a step
    leaves parameters unchanged.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._names: tuple[str, ...] | None = None

    def _lay_out(self, params: Params) -> None:
        self._names = tuple(params)
        self._shapes = [p.shape for p in params.values()]
        sizes = [p.size for p in params.values()]
        total = sum(sizes)
        self.m, self.v, self._g, self._upd = (np.zeros(total) for _ in range(4))
        ends = np.cumsum(sizes)
        self._upd_views = [self._upd[end - n:end].reshape(shape)
                           for end, n, shape in zip(ends, sizes, self._shapes)]

    def step(self, params: Params, grads: Params) -> Params:
        if self._names is None:
            self._lay_out(params)
        elif tuple(params) != self._names:
            raise ShapeError("parameter names or order differ from the first Adam step")
        gs = [grads[name] for name in self._names]
        shapes = self._shapes
        if [p.shape for p in params.values()] != shapes or [g.shape for g in gs] != shapes:
            for name, p, g, shape in zip(self._names, params.values(), gs, shapes):
                if p.shape != shape:
                    raise ShapeError(f"parameter {name!r} is {p.shape}, "
                                     f"was {shape} at the first Adam step")
                if g.shape != shape:
                    raise ShapeError(f"grad shape mismatch for {name}")
        self.t += 1
        if not gs:  # np.concatenate needs at least one array
            return params
        b1, b2 = self.beta1, self.beta2
        m, v, g, upd = self.m, self.v, self._g, self._upd
        np.concatenate(gs, axis=None, out=g)
        # The per-array update's operations in its order, so every element
        # comes out bit-identical to it; g becomes the denominator once m and
        # v have used it.
        m *= b1
        np.multiply(g, 1.0 - b1, out=upd)
        m += upd
        v *= b2
        np.multiply(g, g, out=upd)
        upd *= 1.0 - b2
        v += upd
        np.divide(m, 1.0 - b1 ** self.t, out=upd)
        upd *= self.lr
        np.divide(v, 1.0 - b2 ** self.t, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        upd /= g
        for p, u in zip(params.values(), self._upd_views):
            p -= u
        return params
