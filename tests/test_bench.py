import json
import logging

import numpy as np
import pytest

from dynskip import bench, flops, runtime as rt, sim
from dynskip.errors import ConfigError, TraceIntegrityError
from dynskip.model import PolicyConfig, build_policy
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


def test_expected_random_flops_matches_monte_carlo_forward_random():
    costs, statics = _costs_and_statics()
    model = build_policy(PolicyConfig(obs_dim=3, instr_dim=2, hidden_dim=8, depth=6,
                                      action_dim=2))
    mods = rt.init_skip_modules(model, statics)
    rng = np.random.default_rng(0)
    samples = np.array([rt.forward_random(model, mods, 0.3, rng, np.zeros(3), np.zeros(2),
                                          costs)[1].flops for _ in range(2000)], dtype=float)
    sem = samples.std(ddof=1) / np.sqrt(samples.size)
    assert sem > 0
    assert abs(samples.mean() - bench.expected_random_flops(costs, statics, 0.3)) <= 4 * sem


def test_cross_check_report_rejects_an_edited_trace_record(tmp_path):
    model = build_policy(PolicyConfig(obs_dim=7, instr_dim=2, hidden_dim=8, depth=6,
                                      action_dim=3, seed=2))
    mods = rt.init_skip_modules(model, StaticSet(indices=(2, 5), depth=6), seed=3)
    stats, _ = bench.evaluate_modes(model, mods, sim.SimConfig(subtasks=2, step_cap=12),
                                    rt.GuidanceConfig(k=2), ["full", "dysl"], 2, 0,
                                    out_dir=tmp_path)
    report = tmp_path / "report.csv"
    bench.write_report_csv(report, stats)
    bench.cross_check_report(tmp_path, report, model.config)

    trace = tmp_path / "traces" / "dysl" / "ep_0001.jsonl"
    lines = trace.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[5])
    record["flops"] += 1
    lines[5] = json.dumps(record, sort_keys=True)
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceIntegrityError, match="stored flops"):
        bench.cross_check_report(tmp_path, report, model.config)


def test_paired_pvalue_rejects_empty_input():
    with pytest.raises(ConfigError):
        bench.paired_one_sided_pvalue([], [])


def test_paired_pvalue_is_one_when_every_difference_is_zero():
    assert bench.paired_one_sided_pvalue([0.3] * 8, [0.3] * 8) == 1.0


def test_paired_pvalue_is_small_when_every_pair_is_better():
    worse = np.linspace(0.0, 1.0, 12)
    assert bench.paired_one_sided_pvalue(worse + 1.0, worse) < 0.01


def test_paired_pvalue_is_calibrated_under_the_null():
    draws = 300
    hits = 0
    for seed in range(draws):
        pairs = np.random.default_rng(seed).normal(size=(2, 20))
        hits += bench.paired_one_sided_pvalue(pairs[0], pairs[1], n_resamples=2000,
                                              seed=seed) <= 0.1
    assert abs(hits / draws - 0.1) <= 4 * np.sqrt(0.09 / draws)
