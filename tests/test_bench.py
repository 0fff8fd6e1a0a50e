import logging

from dynskip import bench, flops
from dynskip.model import PolicyConfig
from dynskip.profiler import StaticSet


def _costs_and_statics():
    cfg = PolicyConfig(obs_dim=3, instr_dim=2, hidden_dim=8, depth=6, action_dim=2)
    return flops.arch_costs(cfg), StaticSet(indices=(2, 5), depth=6)


def test_match_random_skip_prob_warns_when_target_is_not_below_full_depth(caplog):
    costs, statics = _costs_and_statics()
    full = bench.expected_random_flops(costs, statics, 0.0)
    with caplog.at_level(logging.WARNING, logger="dynskip.bench"):
        assert bench.match_random_skip_prob(costs, statics, full * 1.2) == 0.0
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "full depth" in caplog.records[0].getMessage()


def test_match_random_skip_prob_is_silent_below_full_depth(caplog):
    costs, statics = _costs_and_statics()
    full = bench.expected_random_flops(costs, statics, 0.0)
    with caplog.at_level(logging.WARNING, logger="dynskip.bench"):
        p = bench.match_random_skip_prob(costs, statics, full * 0.9)
    assert 0.0 < p < 1.0
    assert caplog.records == []
