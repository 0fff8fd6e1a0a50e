"""Float64 linear-algebra and optimization primitives shared by every module.

The set of differentiable ops is small and closed (affine, tanh, sigmoid,
residual add, gate blend), so gradients are hand-derived VJPs rather than an
autodiff graph. Reductions use numpy's default left-to-right summation, so
repeated runs on identical inputs are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, NumericError, ShapeError

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


def tanh_vjp(h: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """Backward through tanh given the cached forward output h = tanh(z)."""
    return dh * (1.0 - h * h)


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64 vector, bit-equal to np.linalg.norm(v),
    which computes sqrt(v.dot(v)) for it too, without that call's dispatch."""
    return math.sqrt(v.dot(v))


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """a.b / (|a||b|). Zero-norm inputs raise; callers decide the fallback."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"cosine: shapes {a.shape} and {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine similarity of a zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


def grad_check(loss_and_grads, params: Params, step: float = 1e-5) -> float:
    """Compare analytic gradients with central finite differences.

    Args:
        loss_and_grads: callable mapping the params dict to (scalar loss,
            grads dict keyed like params). It is re-evaluated at perturbed
            parameter values, so it must be a pure function of params.
        params: named float64 arrays, perturbed in place entry by entry
            (and restored).
        step: central-difference half step.

    Returns:
        Max over all parameter entries of |analytic - numeric| / max(1, |analytic|).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    _, grads = loss_and_grads(params)
    worst = 0.0
    for name, p in params.items():
        if name not in grads:
            raise ShapeError(f"missing gradient for {name}")
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape mismatch for {name}")
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            up = loss_and_grads(params)[0]
            flat_p[i] = orig - step
            down = loss_and_grads(params)[0]
            flat_p[i] = orig
            check_finite(up, "loss")
            check_finite(down, "loss")
            numeric = (up - down) / (2.0 * step)
            err = abs(flat_g[i] - numeric) / max(1.0, abs(flat_g[i]))
            worst = max(worst, err)
    return worst


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
