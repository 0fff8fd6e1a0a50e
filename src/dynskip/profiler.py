"""Layer informativeness profiling, static-layer selection and zero-shot
layer ablation.

Informativeness is read as low input/output activation similarity: layers
that change the hidden-state distribution the most hurt the most when
skipped, so those become the always-executed static set. The profile is
one vector, each layer's mean cosine between its block's input and output,
and selection reads it alone. The profile and the zero-shot deltas are
returned as arrays; this module writes no file.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError
from .model import PolicyModel, block_forward, forward_recorded, head_forward, mse_and_grad

logger = logging.getLogger(__name__)


# --- static-layer set ---------------------------------------------------------

@dataclass(frozen=True)
class StaticSet:
    """Strictly increasing always-executed layer ids; the final block is
    always a member so every skip has a jump target. `segments`,
    `segment_starts` and `dynamic_layers` are computed on first use and
    kept; equality, hashing and repr still see only the two fields."""

    indices: tuple[int, ...]
    depth: int

    def __post_init__(self):
        if not self.indices:
            raise ConfigError("static set must be nonempty")
        if list(self.indices) != sorted(set(self.indices)):
            raise ConfigError("static indices must be strictly increasing")
        if self.indices[0] < 0 or self.indices[-1] >= self.depth:
            raise ConfigError("static index out of range")
        if self.indices[-1] != self.depth - 1:
            raise ConfigError("final block must be static")

    @functools.cached_property
    def segments(self) -> tuple[tuple[int, int], ...]:
        """(front, back) static pairs enclosing at least one dynamic layer;
        front is -1 for layers before the first static block."""
        segs = []
        front = -1
        for back in self.indices:
            if back - front > 1:
                segs.append((front, back))
            front = back
        return tuple(segs)

    @functools.cached_property
    def segment_starts(self) -> tuple[int, ...]:
        """Each segment's first dynamic layer, front + 1: the allow points a
        rollout starts from and controllers-only keeps."""
        return tuple(front + 1 for front, _ in self.segments)

    @functools.cached_property
    def dynamic_layers(self) -> tuple[int, ...]:
        static = set(self.indices)
        return tuple(i for i in range(self.depth) if i not in static)


# --- activation similarity profile --------------------------------------------

def profile_layers(model: PolicyModel, obs: np.ndarray, instr: np.ndarray) -> np.ndarray:
    """The (depth,) per-layer mean cosine similarity between each block's
    input and output, over a dataset of inputs.

    Samples with any zero-norm activation are excluded from the means with a
    logged count; if everything is excluded the profile is degenerate.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    if obs.shape[0] == 0:
        raise DegenerateInputError("profile needs a nonempty dataset")
    instr = np.atleast_2d(np.asarray(instr, dtype=np.float64))
    _, trace = forward_recorded(model, obs, instr)
    stack = np.stack(trace)                      # (N+1, B, d)
    norms = np.linalg.norm(stack, axis=2)        # (N+1, B)
    valid = np.all(norms > 0.0, axis=0)          # (B,)
    excluded = int(np.sum(~valid))
    if excluded:
        logger.warning("profile_layers: excluded %d sample(s) with zero-norm activations",
                       excluded)
    if not np.any(valid):
        raise DegenerateInputError("all profile samples had zero-norm activations")
    unit = stack[:, valid, :] / norms[:, valid, None]
    return np.einsum("ibd,ibd->i", unit[:-1], unit[1:]) / unit.shape[1]


def select_static(io_similarity: np.ndarray, ratio: float) -> StaticSet:
    """Pick the ceil(ratio * N) layers with the lowest input/output
    similarity (ties broken by lower index), then force in the final block."""
    if not 0.0 < ratio <= 1.0:
        raise ConfigError("static ratio must be in (0, 1]")
    n_blocks = io_similarity.shape[0]
    n_pick = math.ceil(ratio * n_blocks)
    order = np.lexsort((np.arange(n_blocks), io_similarity))
    chosen = sorted(set(order[:n_pick].tolist()) | {n_blocks - 1})
    return StaticSet(indices=tuple(int(i) for i in chosen), depth=n_blocks)


# --- zero-shot layer sensitivity ----------------------------------------------

def zero_shot_sensitivity(model: PolicyModel, obs, instr, targets):
    """Task-MSE increase from replacing each block with the identity.

    Returns (baseline_mse, deltas) where deltas[i] is the metric change when
    only layer i is skipped; skipping nothing is the baseline by definition.
    One recorded full pass gives the baseline and every skip-i pass its
    input trace[i], so skipping i runs only blocks i+1..N-1 and the head.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    instr = np.atleast_2d(np.asarray(instr, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    full, trace = forward_recorded(model, obs, instr)
    baseline, _ = mse_and_grad(full, targets)
    depth = model.config.depth
    deltas = np.empty(depth)
    for i in range(depth):
        x = trace[i]
        for j in range(i + 1, depth):
            x = block_forward(model, j, x)
        skipped, _ = mse_and_grad(head_forward(model, x), targets)
        deltas[i] = skipped - baseline
    return baseline, deltas
