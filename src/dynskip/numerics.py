"""Float64 linear-algebra and optimization primitives shared by every module.

The set of differentiable ops is small and closed (affine, tanh, sigmoid,
residual add, gate blend), so gradients are hand-derived VJPs rather than an
autodiff graph. Reductions use numpy's default left-to-right summation, so
repeated runs on identical inputs are bit-identical.
"""

from __future__ import annotations

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


def affine_forward(W: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W @ x + b for a vector x of size n, or row-wise for a (batch, n) matrix."""
    m, n = W.shape
    if x.shape[-1] != n:
        raise ShapeError(f"affine: W is {W.shape} but x is {x.shape}")
    if b.shape != (m,):
        raise ShapeError(f"affine: W is {W.shape} but b is {b.shape}")
    return x @ W.T + b


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
    """Adaptive-moment optimizer over a named parameter dict.

    Moment buffers are allocated lazily to match parameter shapes; step()
    mutates the passed parameter arrays in place and returns them. With zero
    gradients a step leaves parameters unchanged.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: Params = {}
        self.v: Params = {}
        self.t = 0

    def step(self, params: Params, grads: Params) -> Params:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in params.items():
            g = np.asarray(grads[name], dtype=np.float64)
            if g.shape != p.shape:
                raise ShapeError(f"grad shape mismatch for {name}")
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
