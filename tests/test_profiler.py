import numpy as np
import pytest

from dynskip import containers, profiler, sim
from dynskip.model import PolicyConfig, block_forward, build_policy, embed_forward, forward_recorded, head_forward


def _profile(io):
    io = np.asarray(io, dtype=np.float64)
    return profiler.LayerProfile(pair_similarity=np.eye(io.size), io_similarity=io, samples=1)


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

    def test_csv_starts_with_the_no_skip_reference_row(self, tmp_path):
        model, obs, instr, targets = self._setup()
        _, deltas = profiler.zero_shot_sensitivity(model, obs, instr, targets)
        path = tmp_path / "zero_shot.csv"
        profiler.write_zero_shot_csv(path, deltas)
        rows = containers.read_csv(path)
        assert rows[0] == {"layer": "-1", "mse_delta": "0.0"}
        assert [int(r["layer"]) for r in rows[1:]] == list(range(model.config.depth))
        assert [float(r["mse_delta"]) for r in rows[1:]] == deltas.tolist()
