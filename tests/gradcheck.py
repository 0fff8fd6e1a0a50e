"""Finite-difference check of hand-derived gradients, shared by the tests."""

import numpy as np

from dynskip.errors import ShapeError
from dynskip.numerics import Params, check_finite


def grad_check(loss_and_grads, params: Params, step: float = 1e-5) -> float:
    """Compare analytic gradients with central finite differences.

    Args:
        loss_and_grads: callable mapping the params dict to (scalar loss,
            grads dict keyed like params). It is re-evaluated at perturbed
            parameter values, so it must be a pure function of params. Its
            gradients are copied before the first perturbed call, which may
            overwrite them (a reused workspace does).
        params: named float64 arrays, perturbed in place entry by entry
            (and restored).
        step: central-difference half step.

    Returns:
        Max over all parameter entries of |analytic - numeric| / max(1, |analytic|).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    _, grads = loss_and_grads(params)
    grads = {name: np.array(g, dtype=np.float64) for name, g in grads.items()}
    worst = 0.0
    for name, p in params.items():
        if name not in grads:
            raise ShapeError(f"missing gradient for {name}")
        g = grads[name]
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
