import logging

import numpy as np
import pytest

from dynskip import profiler, sim
from dynskip.errors import DegenerateInputError
from dynskip.model import PolicyConfig, block_forward, build_policy, embed_forward, forward_recorded, head_forward


def _profile(io):
    return np.asarray(io, dtype=np.float64)


def _mean_io_cosine(trace):
    """Each block's mean input/output cosine over a recorded trace's rows, by
    profile_layers' operations. The boolean row index is part of them: it
    lays the unit rows out in memory as profile_layers' does, and einsum's
    summation order follows that layout."""
    stack = np.stack(trace)
    norms = np.linalg.norm(stack, axis=2)
    rows = np.ones(stack.shape[1], dtype=bool)
    unit = stack[:, rows, :] / norms[:, rows, None]
    return np.einsum("ibd,ibd->i", unit[:-1], unit[1:]) / unit.shape[1]


class TestProfileLayers:
    def _setup(self):
        model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=16, depth=6, seed=3))
        rng = np.random.default_rng(4)
        return model, rng.normal(size=(40, sim.OBS_DIM)), rng.normal(size=(40, 2))

    def test_equals_each_blocks_mean_input_output_cosine(self):
        model, obs, instr = self._setup()
        io = profiler.profile_layers(model, obs, instr)
        _, trace = forward_recorded(model, obs, instr)
        assert io.dtype == np.float64 and io.shape == (model.config.depth,)
        assert np.array_equal(io, _mean_io_cosine(trace))
        for i, (x, y) in enumerate(zip(trace, trace[1:])):
            cos = np.sum(x * y, axis=1) / (np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1))
            assert io[i] == pytest.approx(np.mean(cos), abs=1e-12)

    def test_a_zero_norm_sample_is_excluded_with_a_logged_count(self, caplog):
        model, obs, instr = self._setup()
        # the embedding bias starts at zero, so an all-zero row embeds to zero norm
        with caplog.at_level(logging.WARNING, logger="dynskip.profiler"):
            io = profiler.profile_layers(model, np.insert(obs, 3, 0.0, axis=0),
                                         np.insert(instr, 3, 0.0, axis=0))
        assert "excluded 1 sample(s) with zero-norm activations" in caplog.text
        np.testing.assert_allclose(io, profiler.profile_layers(model, obs, instr),
                                   rtol=0, atol=1e-12)

    def test_degenerate_datasets_are_refused(self):
        model, obs, instr = self._setup()
        with pytest.raises(DegenerateInputError, match="all profile samples had zero-norm"):
            profiler.profile_layers(model, np.zeros_like(obs), np.zeros_like(instr))
        with pytest.raises(DegenerateInputError, match="profile needs a nonempty dataset"):
            profiler.profile_layers(model, obs[:0], instr[:0])


class TestSelectStatic:
    def test_ties_break_by_lower_index(self):
        ss = profiler.select_static(_profile([0.5, 0.2, 0.2, 0.9, 0.2, 0.7]), 2 / 6)
        assert ss.indices == (1, 2, 5)

    def test_final_block_is_added_when_not_picked(self):
        ss = profiler.select_static(_profile([0.1, 0.3, 0.2, 0.4, 0.9]), 0.2)
        assert ss.indices == (0, 4)

    def test_final_block_is_not_doubled_when_picked(self):
        ss = profiler.select_static(_profile([0.9, 0.8, 0.7, 0.1]), 0.5)
        assert ss.indices == (2, 3)


def _skip_one(model, obs, instr, skip):
    x = embed_forward(model, obs, instr)
    for i in range(model.config.depth):
        if i != skip:
            x = block_forward(model, i, x)
    return head_forward(model, x)


class TestZeroShot:
    def _setup(self):
        model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=5, seed=4))
        rng = np.random.default_rng(5)
        return model, *(rng.normal(size=(6, n)) for n in (sim.OBS_DIM, 2, sim.ACTION_DIM))

    def test_deltas_equal_explicit_skip_one_forwards(self):
        model, obs, instr, targets = self._setup()
        baseline, deltas = profiler.zero_shot_sensitivity(model, obs, instr, targets)
        full, _ = forward_recorded(model, obs, instr)
        expected_base = np.mean((full - targets) ** 2)
        assert baseline == pytest.approx(expected_base, rel=1e-12)
        for i in range(model.config.depth):
            skipped = np.mean((_skip_one(model, obs, instr, i) - targets) ** 2)
            assert deltas[i] == pytest.approx(skipped - expected_base, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("size", ["small", "benchmark"])
    def test_deltas_are_bit_equal_to_explicit_skip_one_forwards(self, size):
        if size == "small":
            model, obs, instr, targets = self._setup()
        else:
            model = build_policy(PolicyConfig(seed=8))
            rng = np.random.default_rng(9)
            obs, instr, targets = (rng.normal(size=(32, n)) for n in (7, 5, 3))

        def mse(pred):
            err = pred - targets
            return float(np.mean(err * err))

        baseline, deltas = profiler.zero_shot_sensitivity(model, obs, instr, targets)
        assert baseline == mse(_skip_one(model, obs, instr, None))
        assert deltas.shape == (model.config.depth,)
        for i in range(model.config.depth):
            assert deltas[i] == mse(_skip_one(model, obs, instr, i)) - baseline
