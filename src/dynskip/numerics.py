"""Float64 linear-algebra and optimization primitives shared by every module.

The set of differentiable ops is small and closed (affine, tanh, sigmoid,
residual add, gate blend), so gradients are hand-derived VJPs rather than an
autodiff graph. Reductions use numpy's default left-to-right summation, so
repeated runs on identical inputs are bit-identical.

Backbone blocks, adapters and gate controllers are one unit,
y = W2 tanh(W1 x + b1) + b2; its parameter keys, initialization, binding,
forward kernel and VJP live here.

Parameter arenas. PolicyModel and SkipModules copy their parameters at
construction into one flat float64 arena (`into_arena`), and every entry of
their own `params` dict is a view into it; the layer views they bind are
views of those. Adam steps a whole arena against a gradient arena of the
same layout (`flat_views`), which a training workspace writes, so an update
in place reaches every bound view. An array passed to the constructor is no
longer the model's, and a dict entry replaced later is seen by nothing
bound: build a new model from the new dict.
"""

from __future__ import annotations

import functools
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


def affine_param_grads(x: np.ndarray, dy: np.ndarray, out=None):
    """Parameter gradients (dW, db) of y = x @ W.T + b given upstream dy.
    With `out`, a (dW, db) pair of C-contiguous float64 arrays of those
    shapes, they are written there and returned, as numpy's out= does; the
    bits are the same either way."""
    dW, db = (None, None) if out is None else out
    if dy.ndim < 2 or x.ndim < 2:  # one sample: dW is an outer product
        dy, x = np.atleast_2d(dy, x)
    return np.matmul(dy.T, x, out=dW), dy.sum(axis=0, out=db)


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64 vector, bit-equal to np.linalg.norm(v),
    which computes sqrt(v.dot(v)) for it too, without that call's dispatch.
    Scalar `x*x + y*y` is no substitute: BLAS's dot may fuse a multiply-add
    (OpenBLAS's 2-vector ddot rounds as fma(y, y, x*x)), so its sum differs."""
    return math.sqrt(v.dot(v))


def sigmoid(z, out=None):
    """1 / (1 + exp(-z)); with `out`, an array shaped like z, formed there
    in place by the same operations and returned."""
    if out is None:
        return 1.0 / (1.0 + np.exp(-z))
    np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0  # == 1.0 + e: IEEE addition commutes
    return np.divide(1.0, out, out=out)


# --- the two-layer tanh unit ---------------------------------------------------

MLP_PARTS = ("W1", "b1", "W2", "b2")


@functools.cache
def _mlp_keys(prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}.{part}" for part in MLP_PARTS)


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


def mlp_forward(bound, x: np.ndarray, out=None):
    """y = W2 tanh(W1 x + b1) + b2 on the views bind_mlp returns, for a
    single sample or a (batch, d_in) matrix. Returns (y, h), h = tanh(W1 x + b1).

    The kernel contract, which the layer kernels built on this unit
    (`model.block_forward`, `runtime.adapter_forward` and
    `runtime.controller_forward`), the embedding and head kernels in
    `model` and `gate_forward` keep too: without `out`, outputs are freshly
    allocated; with `out`, a (y, h) pair of C-contiguous float64 arrays of
    the output shapes, they are written there, as numpy's out= does. A
    layer kernel returns one value, its output; a training step that needs
    h for the VJP passes out= and reads h from its out pair. Only the
    training steps pass out= (mlp_vjp's out= likewise), each
    into the workspace it takes as its first argument:
    `model.task_loss_and_grads` into a TaskWorkspace and the distillation
    stages into a Stage1Workspace or Stage2Workspace; every other call, a
    rollout's included, gets fresh arrays. Either way x, which may be an
    entry of the trace `forward_recorded` returns or a workspace's gathered
    teacher rows, is never written, and the in-place ops (bias add, tanh, a
    block's residual add) touch only the outputs. At every batch size the
    bits equal the `x @ W.T + b` form:
    `a.dot(B)` makes the same BLAS call as `@` for these shapes, with or
    without out=, and in-place addition does the same IEEE operations
    (addition commutes, so a block's `y += x` after the bias equals
    `x + (h @ W2.T + b2)`). The method form, not `np.dot(a, B)`, skips
    numpy's Python-level `__array_function__` dispatch, and out= is passed
    only when given: at batch 1, where rollouts call this, numpy calls and
    temporaries cost more than the arithmetic at this model size.
    """
    W1T, b1, W2T, b2 = bound
    h = x.dot(W1T) if out is None else x.dot(W1T, out=out[1])
    h += b1
    np.tanh(h, out=h)
    y = h.dot(W2T) if out is None else h.dot(W2T, out=out[0])
    y += b2
    return y, h


def gate_forward(bound, w2: np.ndarray, x: np.ndarray) -> float:
    """sigmoid(W2 tanh(W1 x + b1) + b2) of a 1-wide unit on a 1-D x, as a
    Python float: a gate decision at batch 1.

    The first layer is mlp_forward's. `w2` is the 1-D view `W2[0]` (bound
    once, so in-place updates stay visible), and the second layer
    `float(h.dot(w2)) + b2[0]` is the same dot product and addition as the
    1-element `h @ W2.T + b2`. The sigmoid stays `sigmoid` on that numpy
    scalar: `np.exp` is the vectorised loop, whose bits `math.exp` does not
    always match. Bit-equal to `float(sigmoid(h @ W2.T + b2)[0])`.
    """
    W1T, b1, _, b2 = bound
    h = x.dot(W1T)
    h += b1
    np.tanh(h, out=h)
    return float(sigmoid(float(h.dot(w2)) + b2[0]))


def mlp_vjp(params: Params, prefix: str, x, h, dy, grads: Params | None = None,
            out=None, input_grad: bool = True):
    """Input gradient of unit `prefix` given upstream dy and the forward's h.
    With `grads` given, the unit's four parameter gradients are stored in it,
    replacing any entry already there, so a caller runs each unit's VJP at
    most once per gradient dict; without, x is not read (a frozen unit needs
    only h). The tanh derivative 1 - h * h is formed in a temporary, never
    in h.

    The input gradient is formed only when the caller reads it: with
    `input_grad=False` its matmul is not run and None is returned, for a
    unit whose input nothing upstream trains. The parameter gradients are
    the same bits either way.

    Without `out`, every result and temporary is freshly allocated. With
    `out`, a (dz, t, dx) triple of C-contiguous float64 arrays shaped like
    h, h and the input gradient, the VJP follows numpy's out= convention: dz
    and the tanh derivative t are formed in the first two, the input
    gradient is written into dx and returned, and each parameter gradient is
    written into the array `grads` already holds for it. dx may be None
    when `input_grad` is False. The bits are the same either way."""
    W1, b1, W2, b2 = _mlp_keys(prefix)
    dz, t, dx = (None, None, None) if out is None else out
    dz = np.matmul(dy, params[W2], out=dz)
    t = np.multiply(h, h, out=t)
    np.subtract(1.0, t, out=t)
    dz *= t  # through tanh, from its output h
    if grads is not None:
        into = out is not None
        grads[W2], grads[b2] = affine_param_grads(
            h, dy, (grads[W2], grads[b2]) if into else None)
        grads[W1], grads[b1] = affine_param_grads(
            x, dz, (grads[W1], grads[b1]) if into else None)
    return np.matmul(dz, params[W1], out=dx) if input_grad else None


def flat_views(params: Params, layout=None) -> tuple[np.ndarray, Params]:
    """A fresh flat float64 array, the arena, and one view into it per entry
    of `params`, of that entry's shape and keyed in params order. The views
    lie end to end in `layout` order, a sequence of params' keys (params
    order by default), so a prefix of the layout is a prefix of the arena."""
    names = tuple(params) if layout is None else layout
    flat = np.empty(sum(params[name].size for name in names))
    views: Params = {}
    start = 0
    for name in names:
        p = params[name]
        views[name] = flat[start:start + p.size].reshape(p.shape)
        start += p.size
    return flat, {name: views[name] for name in params}


def into_arena(params: Params, layout=None) -> np.ndarray:
    """Copy every entry of `params` into a fresh arena laid out as
    flat_views lays it out, replace each entry, in place and in params
    order, with its view, and return the arena. An array taken from params
    before the call is no longer its entry."""
    flat, views = flat_views(params, layout)
    for name, view in views.items():
        view[...] = params[name]
        params[name] = view
    return flat


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and floor


class Adam:
    """Adaptive-moment optimizer over one flat parameter arena at rate `lr`;
    the betas and eps are the constants ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.

    step(params, grads) takes two 1-D float64 arrays: the arena of a trained
    set (`PolicyModel.arena`, `SkipModules.arena` or its `adapter_arena`
    prefix) and the gradient arena of the same layout that a workspace
    writes. The first step fixes the size; the moments `m` and `v` and two
    scratch buffers are flat arrays of it, so every step is a fixed number
    of whole-buffer operations, and the parameters are updated in place, so
    the views bound into the arena (PolicyModel, SkipModules) see every
    update. An arena of another size raises ShapeError naming both sizes;
    give each trained set its own Adam. With zero gradients a step leaves
    the parameters unchanged. The gradients are only read.
    """

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self.m: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        n = params.size if self.m is None else self.m.size
        if params.shape != (n,):
            raise ShapeError(f"parameter arena of shape {params.shape}: the first Adam step's "
                             f"held {n} values")
        if grads.shape != (n,):
            raise ShapeError(f"gradient arena of shape {grads.shape}: the parameter arena "
                             f"holds {n} values")
        if self.m is None:
            self.m, self.v, self._upd, self._den = (np.zeros(n) for _ in range(4))
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        m, v, upd, den = self.m, self.v, self._upd, self._den
        # The per-array update's operations in its order, so every element
        # comes out bit-identical to it.
        m *= b1
        np.multiply(grads, 1.0 - b1, out=upd)
        m += upd
        v *= b2
        np.multiply(grads, grads, out=upd)
        upd *= 1.0 - b2
        v += upd
        np.divide(m, 1.0 - b1 ** self.t, out=upd)
        upd *= self.lr
        np.divide(v, 1.0 - b2 ** self.t, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        upd /= den
        params -= upd
