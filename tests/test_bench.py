import hashlib
import json
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dynskip import bench, containers, distill, flops, profiler, runtime as rt, sim
from dynskip.errors import ConfigError, NumericError, ShapeError, TraceIntegrityError
from dynskip.model import PolicyConfig, build_policy
from dynskip.profiler import StaticSet


def _costs_and_statics():
    cfg = PolicyConfig(instr_dim=2, hidden_dim=8, depth=6)
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
    model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6))
    mods = rt.init_skip_modules(model, statics)
    rng = np.random.default_rng(0)
    traces = [rt.forward_random(model, mods, 0.3, rng, np.zeros(sim.OBS_DIM), np.zeros(2))[1]
              for _ in range(2000)]
    samples = np.array([flops.flop_estimate(costs, t.executed_layers, t.controllers_evaluated,
                                            t.adapters_invoked) for t in traces], dtype=float)
    sem = samples.std(ddof=1) / np.sqrt(samples.size)
    assert sem > 0
    assert abs(samples.mean() - bench.expected_random_flops(costs, statics, 0.3)) <= 4 * sem


def test_cross_check_report_rejects_an_edited_trace_record(tmp_path):
    model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6, seed=2))
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


def _drop_prefix_layer(record):
    record["executed_layers"].remove(record["adapters_invoked"][0] - 1)


@pytest.mark.parametrize("forge,message", [
    (lambda record: record.update(adapters_invoked=[]), "without a skipped layer"),
    (_drop_prefix_layer, "resumes at layer 1, but its pass lacks a layer below it"),
    (lambda record: record["executed_layers"].pop(),
     "resumes at layer 1, but executed_layers does not end with its re-run 1..5"),
], ids=["no-adapter", "prefix-layer-missing", "rerun-incomplete"])
def test_cross_check_report_rejects_a_forged_verified_record(tmp_path, forge, message):
    model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6, seed=2))
    mods = rt.init_skip_modules(model, StaticSet(indices=(2, 5), depth=6), seed=3)
    stats, _ = bench.evaluate_modes(model, mods, sim.SimConfig(subtasks=2, step_cap=12),
                                    rt.GuidanceConfig(k=2), ["dysl"], 2, 0, out_dir=tmp_path)
    report = tmp_path / "report.csv"
    bench.write_report_csv(report, stats)
    bench.cross_check_report(tmp_path, report, model.config)

    trace = tmp_path / "traces" / "dysl" / "ep_0001.jsonl"
    lines = trace.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[4])
    assert record["verified"] and record["adapters_invoked"][0] == 1
    forge(record)
    lines[4] = json.dumps(record, sort_keys=True)
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceIntegrityError, match=message):
        bench.cross_check_report(tmp_path, report, model.config)


@pytest.mark.parametrize("field,forged,message", [
    ("controllers_evaluated", [42, 42, 7], "controllers_evaluated: layer id 42 out of range"),
    ("adapters_invoked", [99, -3], "adapters_invoked: layer id 99 out of range"),
], ids=["controllers", "adapters"])
def test_flop_estimate_record_rejects_forged_ids_on_an_unverified_record(field, forged,
                                                                         message):
    costs = flops.arch_costs(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6))
    record = {"executed_layers": [2, 5], "adapters_invoked": [], "controllers_evaluated": [],
              "verified": False}
    record[field] = forged
    with pytest.raises(TraceIntegrityError, match=message):
        flops.flop_estimate_record(costs, record)


@pytest.mark.parametrize("field,forge,message", [
    ("controllers_evaluated", lambda ids: [4] * len(ids),
     "controllers_evaluated: layer ids not strictly increasing"),
    ("adapters_invoked", lambda ids: [99] + ids[1:],
     "adapters_invoked: layer id 99 out of range"),
], ids=["controllers-repeated", "adapter-out-of-range"])
def test_cross_check_report_rejects_forged_ids_of_an_unchanged_count(tmp_path, field,
                                                                     forge, message):
    # the forged list keeps its length, so the stored flops still match
    model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6, seed=2))
    mods = rt.init_skip_modules(model, StaticSet(indices=(2, 5), depth=6), seed=3)
    stats, _ = bench.evaluate_modes(model, mods, sim.SimConfig(subtasks=2, step_cap=12),
                                    rt.GuidanceConfig(k=2), ["controllers-only"], 2, 0,
                                    out_dir=tmp_path)
    report = tmp_path / "report.csv"
    bench.write_report_csv(report, stats)
    bench.cross_check_report(tmp_path, report, model.config)

    trace = tmp_path / "traces" / "controllers-only" / "ep_0001.jsonl"
    lines = trace.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    assert not record["verified"] and len(record[field]) >= 2
    record[field] = forge(record[field])
    lines[1] = json.dumps(record, sort_keys=True)
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceIntegrityError, match=message):
        bench.cross_check_report(tmp_path, report, model.config)


def test_cross_check_report_rejects_a_truncated_trace(tmp_path):
    # every full-depth step costs the same, so a lost step never shows in the mean
    model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6, seed=2))
    stats, _ = bench.evaluate_modes(model, None, sim.SimConfig(subtasks=2, step_cap=12),
                                    rt.GuidanceConfig(k=2), ["full"], 2, 0, out_dir=tmp_path)
    report = tmp_path / "report.csv"
    bench.write_report_csv(report, stats)
    bench.cross_check_report(tmp_path, report, model.config)

    trace = tmp_path / "traces" / "full" / "ep_0001.jsonl"
    header, *records = trace.read_text(encoding="utf-8").splitlines()
    kept = len(records) // 2
    trace.write_text("\n".join([header, *records[:kept]]) + "\n", encoding="utf-8")
    with pytest.raises(TraceIntegrityError,
                       match=f"ep_0001.jsonl: header n_steps {len(records)} but {kept} "
                             "step records"):
        bench.cross_check_report(tmp_path, report, model.config)


def _no_dumps(out_dir):
    for trace in (out_dir / "traces" / "full").iterdir():
        trace.unlink()


@pytest.mark.parametrize("edit,message", [
    # NaN compares False with every tolerance
    (lambda row, out: row.update(avg_flops="nan"),
     "mode 'full': reported avg_flops nan != trace mean"),
    # no dumps for no episodes matched, and the mean of no costs is NaN
    (lambda row, out: (row.update(episodes="0"), _no_dumps(out)),
     "mode 'full': episodes '0' is not an int >= 1"),
    (lambda row, out: row.update(episodes="2.5"), "mode 'full': episodes '2.5' is not an int >= 1"),
    (lambda row, out: row.pop("mode"), "a row has no 'mode' column"),
    (lambda row, out: row.update(avg_flops="many"),
     "mode 'full': avg_flops 'many' is not a number"),
], ids=["avg-flops-nan", "no-episodes", "episodes-float", "no-mode", "avg-flops-text"])
def test_cross_check_report_rejects_a_malformed_report_row(tmp_path, edit, message):
    model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6, seed=2))
    stats, _ = bench.evaluate_modes(model, None, sim.SimConfig(subtasks=2, step_cap=12),
                                    rt.GuidanceConfig(k=2), ["full"], 2, 0, out_dir=tmp_path)
    report = tmp_path / "report.csv"
    bench.write_report_csv(report, stats)
    bench.cross_check_report(tmp_path, report, model.config)

    [row] = containers.read_csv(report)
    edit(row, tmp_path)
    containers.write_csv(report, list(row), [list(row.values())])
    with pytest.raises(TraceIntegrityError, match=message):
        bench.cross_check_report(tmp_path, report, model.config)


@pytest.mark.parametrize("field,value,message", [
    ("n_steps", 0, "mode 'full': the trace dumps hold no step record"),
    ("mode", "controllers-only",
     "ep_0000.jsonl: header mode 'controllers-only', row mode 'full'"),
], ids=["no-step-record", "another-mode"])
def test_cross_check_report_rejects_dumps_with_no_step_or_of_another_mode(tmp_path, field,
                                                                           value, message):
    model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6, seed=2))
    stats, _ = bench.evaluate_modes(model, None, sim.SimConfig(subtasks=2, step_cap=12),
                                    rt.GuidanceConfig(k=2), ["full"], 1, 0, out_dir=tmp_path)
    report = tmp_path / "report.csv"
    bench.write_report_csv(report, stats)
    bench.cross_check_report(tmp_path, report, model.config)

    trace = tmp_path / "traces" / "full" / "ep_0000.jsonl"
    header, *records = trace.read_text(encoding="utf-8").splitlines()
    header = {**json.loads(header), field: value}
    kept = records[:header["n_steps"]]  # as many as the header says, so the dump reads
    trace.write_text("\n".join([json.dumps(header), *kept]) + "\n", encoding="utf-8")
    with pytest.raises(TraceIntegrityError, match=message):
        bench.cross_check_report(tmp_path, report, model.config)


def _tiny_policy_and_modules():
    model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6, seed=2))
    return model, rt.init_skip_modules(model, StaticSet(indices=(2, 5), depth=6), seed=3)


def test_a_shorter_evaluation_into_the_same_directory_leaves_no_stale_trace(tmp_path):
    """Four episodes, then two, into one directory: the second dump removes
    ep_0002 and ep_0003, whose dysl costs would skew the trace mean."""
    model, mods = _tiny_policy_and_modules()
    for n in (4, 2):
        stats, _ = bench.evaluate_modes(model, mods, sim.SimConfig(subtasks=2, step_cap=12),
                                        rt.GuidanceConfig(k=2), ["full", "dysl"], n, 0,
                                        out_dir=tmp_path)
    for mode in ("full", "dysl"):
        assert sorted(p.name for p in (tmp_path / "traces" / mode).iterdir()) == [
            "ep_0000.jsonl", "ep_0001.jsonl"]
    report = tmp_path / "report.csv"
    bench.write_report_csv(report, stats)
    bench.cross_check_report(tmp_path, report, model.config)


@pytest.mark.parametrize("edit,count", [
    (lambda d: (d / "ep_0002.jsonl").write_bytes((d / "ep_0001.jsonl").read_bytes()), 3),
    (lambda d: (d / "ep_0001.jsonl").unlink(), 1),
    (lambda d: (d / "ep_0001.jsonl").rename(d / "ep_0005.jsonl"), 2)],
    ids=["extra", "missing", "renamed"])
def test_cross_check_report_requires_exactly_the_reported_episodes_dumps(tmp_path, edit,
                                                                          count):
    model, _ = _tiny_policy_and_modules()
    stats, _ = bench.evaluate_modes(model, None, sim.SimConfig(subtasks=2, step_cap=12),
                                    rt.GuidanceConfig(k=2), ["full"], 2, 0, out_dir=tmp_path)
    report = tmp_path / "report.csv"
    bench.write_report_csv(report, stats)
    bench.cross_check_report(tmp_path, report, model.config)
    edit(tmp_path / "traces" / "full")
    with pytest.raises(TraceIntegrityError,
                       match=f"mode 'full': {count} trace dumps for 2 reported episodes; "
                             "expected exactly ep_0000 .. ep_0001"):
        bench.cross_check_report(tmp_path, report, model.config)


@pytest.mark.parametrize("modes,n_episodes,message", [
    (["full", "warp"], 2, "unknown mode 'warp'"),
    (["full"], 0, "n_episodes must be >= 1"),
    (["full"], -1, "n_episodes must be >= 1")])
def test_evaluate_modes_rejects_an_unknown_mode_or_no_episodes(modes, n_episodes, message):
    model, mods = _tiny_policy_and_modules()
    with pytest.raises(ConfigError, match=message):
        bench.evaluate_modes(model, mods, sim.SimConfig(subtasks=2, step_cap=12),
                             rt.GuidanceConfig(k=2), modes, n_episodes, 0)


@pytest.mark.parametrize("modes,blamed", [(["random-skip"], "random-skip"),
                                          (["full", "controllers-only"], "controllers-only")])
def test_a_skipping_mode_without_skip_modules_fails_before_any_rollout(monkeypatch, modes,
                                                                        blamed):
    """The error names the requested mode, not random-skip's dysl calibration
    run, and comes before any episode of the modes ahead of it."""
    model, _ = _tiny_policy_and_modules()
    rollouts = []
    monkeypatch.setattr(rt, "rollout_episode", lambda *args, **kwargs: rollouts.append(args))
    with pytest.raises(ConfigError, match=f"mode '{blamed}' requires skip modules"):
        bench.evaluate_modes(model, None, sim.SimConfig(subtasks=2, step_cap=12),
                             rt.GuidanceConfig(k=2), modes, 2, 0)
    assert rollouts == []


def _episode_bytes(ep):
    return rt.episode_trace_lines(ep), np.array(ep.actions).tobytes()


def test_random_skip_is_calibrated_and_seeded_alike_whatever_else_runs():
    """The random-skip row and episodes are the same whichever modes run
    beside it: its probability is matched to the dysl episodes' mean FLOPs,
    and episode i draws from its own rng [base_seed, i]. Without
    verification and at tau 0.3, dysl costs less than full depth here, so
    that probability lies inside (0, 1) and the draws show."""
    model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6, seed=2))
    mods = rt.init_skip_modules(model, StaticSet(indices=(2, 5), depth=6), tau=0.3, seed=3)
    guidance = rt.GuidanceConfig(k=2, verification=False)
    sim_config, n, base_seed = sim.SimConfig(subtasks=2, step_cap=12), 3, 5
    runs = []
    for modes in (["random-skip"], ["dysl", "random-skip"], list(rt.MODES)):
        stats, episodes = bench.evaluate_modes(model, mods, sim_config, guidance, modes, n,
                                               base_seed)
        row = next(s for s in stats if s.mode == "random-skip")
        dysl_flops = bench.summarize_episodes("dysl", episodes["dysl"]).avg_flops
        runs.append((row, dysl_flops, [_episode_bytes(ep) for ep in episodes["random-skip"]]))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    row, dysl_flops, episodes = runs[0]
    assert 0.0 < row.random_skip_prob < 1.0
    assert row.random_skip_prob == bench.match_random_skip_prob(
        flops.arch_costs(model.config), mods.static_set, dysl_flops)
    assert episodes == [_episode_bytes(rt.rollout_episode(
        sim.sample_task_sequence(base_seed + i, sim_config), model, mods, "random-skip",
        guidance, rng=np.random.default_rng([base_seed, i]),
        random_skip_prob=row.random_skip_prob)) for i in range(n)]


_MISSING = object()


@pytest.mark.parametrize("field,value,message", [
    pytest.param("executed_layers", _MISSING, "no 'executed_layers'", id="executed_layers"),
    pytest.param("flops", _MISSING, "no 'flops'", id="flops"),
    # a defaulted read would price these as empty or false
    pytest.param("controllers_evaluated", _MISSING, "no 'controllers_evaluated'",
                 id="controllers_evaluated"),
    pytest.param("adapters_invoked", _MISSING, "no 'adapters_invoked'", id="adapters_invoked"),
    pytest.param("verified", _MISSING, "no 'verified'", id="verified"),
    # an unchecked read raises a bare TypeError
    pytest.param("executed_layers", "abc", "'executed_layers' is not a list of ints",
                 id="executed_layers-str"),
    pytest.param("adapters_invoked", None, "'adapters_invoked' is not a list of ints",
                 id="adapters_invoked-null"),
    # bool and float ids compare as ints, so an unchecked read prices them
    pytest.param("executed_layers", [0, 1, 2.5, 3, 4, 5],
                 "'executed_layers' is not a list of ints", id="executed_layers-float-id"),
    pytest.param("executed_layers", [0, True, 2, 3, 4, 5],
                 "'executed_layers' is not a list of ints", id="executed_layers-bool-id"),
    pytest.param("verified", 0, "'verified' is not a bool", id="verified-int"),
])
def test_cross_check_report_names_a_field_missing_from_a_trace_record(tmp_path, field, value,
                                                                      message):
    model = build_policy(PolicyConfig(instr_dim=1, hidden_dim=8, depth=6, seed=2))
    stats, _ = bench.evaluate_modes(model, None, sim.SimConfig(subtasks=1, step_cap=1),
                                    rt.GuidanceConfig(k=2), ["full"], 1, 0, out_dir=tmp_path)
    report = tmp_path / "report.csv"
    bench.write_report_csv(report, stats)
    trace = tmp_path / "traces" / "full" / "ep_0000.jsonl"
    header, record = trace.read_text(encoding="utf-8").splitlines()
    bench.cross_check_report(tmp_path, report, model.config)

    record = json.loads(record)
    if value is _MISSING:
        del record[field]
    else:
        record[field] = value
    trace.write_text(f"{header}\n{json.dumps(record, sort_keys=True)}\n", encoding="utf-8")
    with pytest.raises(TraceIntegrityError, match=f"ep_0000.jsonl: step record 1: {message}"):
        bench.cross_check_report(tmp_path, report, model.config)


def test_a_dysl_only_evaluation_calibrates_no_random_skip(caplog):
    """The random-skip probability, and its warning that dysl costs full
    depth or more, belong only to evaluations that run random-skip."""
    model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6, seed=2))
    mods = rt.init_skip_modules(model, StaticSet(indices=(2, 5), depth=6), seed=3)
    with caplog.at_level(logging.DEBUG):
        stats, _ = bench.evaluate_modes(model, mods, sim.SimConfig(subtasks=2, step_cap=12),
                                        rt.GuidanceConfig(k=2), ["dysl"], 2, 0)
    assert caplog.records == []
    assert stats == [bench.ModeStats("dysl", 2, 0.0, 0.0, 7.5, 2233.75, 1.875, 0.5)]


@pytest.mark.parametrize("prob,flags", [(0.0, ["", "", "True"]), (0.3, ["", "", "False"])])
def test_report_flags_a_random_skip_row_at_full_depth(tmp_path, monkeypatch, prob, flags):
    model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6, seed=2))
    mods = rt.init_skip_modules(model, StaticSet(indices=(2, 5), depth=6), seed=3)
    monkeypatch.setattr(bench, "match_random_skip_prob", lambda *args: prob)
    stats, _ = bench.evaluate_modes(model, mods, sim.SimConfig(subtasks=2, step_cap=12),
                                    rt.GuidanceConfig(k=2), ["full", "dysl", "random-skip"],
                                    2, 0)
    assert [s.random_skip_full_depth for s in stats] == [None, None, prob == 0.0]
    bench.write_report_csv(tmp_path / "report.csv", stats)
    rows = containers.read_csv(tmp_path / "report.csv")
    assert [r["random_skip_full_depth"] for r in rows] == flags
    assert [r["random_skip_prob"] for r in rows] == ["", "", repr(prob)]


def test_paired_pvalue_rejects_empty_input():
    with pytest.raises(ConfigError):
        bench.paired_one_sided_pvalue([], [])


@pytest.mark.parametrize("better,worse", [([1, 0, 1], [0]), ([0], [1, 0, 1]), ([1, 0], [0, 0, 0]),
                                          ([[1, 0], [1, 1]], [[0, 0], [0, 0]])])
def test_paired_pvalue_rejects_arms_that_are_not_pairs(better, worse):
    with pytest.raises(ShapeError, match="1-D of one length"):
        bench.paired_one_sided_pvalue(better, worse)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("arm", ["better", "worse"])
def test_paired_pvalue_rejects_a_non_finite_value_by_arm(arm, bad):
    arms = {"better": [0.0, 0.0], "worse": [1.0, 0.0]}
    arms[arm][1] = bad
    with pytest.raises(NumericError, match=f"{arm} arm"):
        bench.paired_one_sided_pvalue(arms["better"], arms["worse"])


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


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name", ["batch_size", "val_every"])
def test_train_config_rejects_a_nonpositive_batch_or_validation_interval(name, value):
    with pytest.raises(ConfigError, match=name):
        bench.TrainConfig(**{name: value})


@pytest.mark.parametrize("lr", [0.0, -1e-3, np.nan, np.inf])
def test_train_config_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    with pytest.raises(ConfigError, match="lr must be finite and positive"):
        bench.TrainConfig(lr=lr)


def test_every_optimizer_step_calls_its_timed_step_function_once(monkeypatch):
    """perfbench times BC and distillation by the interval between calls of
    these three functions, found by name, so each must run once per step."""
    calls = {}

    def count(module, name):
        fn = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(bench, "task_loss_and_grads")
    count(distill, "stage1_step")
    count(distill, "stage2_step")
    data = sim.generate_dataset(sim.SimConfig(subtasks=2), 3, seed=5)
    policy, _ = bench.train_base_policy(
        PolicyConfig(instr_dim=2, hidden_dim=16, depth=6),
        bench.TrainConfig(steps=7, batch_size=16, val_every=3), data, data)
    statics = StaticSet(indices=(2, 5), depth=6)
    dcfg = distill.DistillConfig(stage1_steps=5, stage2_steps=4, batch_size=16)
    distill.distill_pipeline(policy, statics, data, dcfg)
    assert calls == {"task_loss_and_grads": 7, "stage1_step": 5, "stage2_step": 4}


def test_a_warm_behaviour_cloning_step_allocates_at_most_two_activations(monkeypatch):
    """Between two task_loss_and_grads calls lies one BC step: the loss and
    gradients, the Adam update and the next batch draw. After two warm-up
    steps, none may hold more than two (128, 64) float64 activations of
    fresh memory at once; the allocate-per-call pass held 2669 KiB. The run
    builds one workspace."""
    marks = []  # (traced bytes at a call, peak since the previous call)
    loss_and_grads = bench.task_loss_and_grads
    built = []

    def measured(*args, **kwargs):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return loss_and_grads(*args, **kwargs)

    class CountedWorkspace(bench.TaskWorkspace):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(bench, "task_loss_and_grads", measured)
    monkeypatch.setattr(bench, "TaskWorkspace", CountedWorkspace)
    data = sim.generate_dataset(sim.SimConfig(subtasks=2), 3, seed=5)
    tracemalloc.start()
    try:
        bench.train_base_policy(PolicyConfig(instr_dim=2),
                                bench.TrainConfig(steps=6, batch_size=128, val_every=6),
                                data, data)
    finally:
        tracemalloc.stop()
    steps = [peak - at_call for (at_call, _), (_, peak) in zip(marks, marks[1:])]
    assert len(steps) == 5 and len(built) == 1
    assert max(steps[2:]) <= 2 * 128 * 64 * 8, steps


def test_train_base_policy_matches_its_pinned_digests():
    """Digests of a short BC run's params and log rows under the Haswell
    kernel that conftest.py forces. The SkylakeX digests they replace were
    taken before the gradient functions stored each gradient instead of
    accumulating it."""
    data = sim.generate_dataset(sim.SimConfig(subtasks=2), 4, seed=31)
    val = sim.generate_dataset(sim.SimConfig(subtasks=2), 2, seed=32)
    model, log = bench.train_base_policy(
        PolicyConfig(instr_dim=2, hidden_dim=16, depth=6, seed=30),
        bench.TrainConfig(steps=40, batch_size=24, val_every=20, seed=33), data, val)
    h = hashlib.sha256()
    for k in sorted(model.params):
        h.update(k.encode())
        h.update(np.ascontiguousarray(model.params[k]).tobytes())
    assert h.hexdigest()[:16] == "260ea11c3cf7a7f8"
    assert [step for step, _, _ in log] == [0, 20, 40]
    assert hashlib.sha256(repr(log).encode()).hexdigest()[:16] == "39f300303cd5e336"


# --- the knobs a parameter sweep varies reach the dysl row ---------------------------

@pytest.fixture(scope="module")
def sweep():
    """A tiny trained policy, its layer profile and a short distillation recipe."""
    data = sim.generate_dataset(sim.SimConfig(subtasks=2), 3, seed=40)
    model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=16, depth=6, seed=41))
    profile = profiler.profile_layers(model, data.obs, data.instr_onehot())
    dcfg = distill.DistillConfig(stage1_steps=5, stage2_steps=5, batch_size=8, seed=42)
    return dict(model=model, profile=profile, data=data, dcfg=dcfg,
                guidance=rt.GuidanceConfig(k=3))


def _modules(sweep, static_ratio=0.5, dcfg=None):
    statics = profiler.select_static(sweep["profile"], static_ratio)
    mods, _ = distill.distill_pipeline(sweep["model"], statics, sweep["data"],
                                       dcfg or sweep["dcfg"], tau=0.5)
    return mods


def _dysl_row(sweep, mods, guidance):
    stats, _ = bench.evaluate_modes(sweep["model"], mods, sim.SimConfig(subtasks=2, step_cap=12),
                                    guidance, ["dysl"], n_episodes=2, base_seed=7)
    s = stats[0]
    return s.avg_successful_length, s.success_rate, s.avg_executed_layers, s.avg_flops


@pytest.mark.parametrize("field, values", [("k", (2, 5)), ("eta", (0.002, 1.0))])
def test_a_guidance_knob_moves_the_dysl_row(sweep, field, values):
    mods = _modules(sweep)
    rows = [_dysl_row(sweep, mods, replace(sweep["guidance"], **{field: v})) for v in values]
    assert rows[0] != rows[1]
    assert _dysl_row(sweep, mods, replace(sweep["guidance"], **{field: values[0]})) == rows[0]


def test_the_static_ratio_moves_the_dysl_row(sweep):
    rows = [_dysl_row(sweep, _modules(sweep, static_ratio=r), sweep["guidance"])
            for r in (0.2, 0.5)]
    assert rows[0] != rows[1]


def test_the_gate_penalty_moves_the_dysl_row(sweep):
    # at the fixture's default stage2_lr, lam 0 and 100 train gates that give the same row
    dcfg = replace(sweep["dcfg"], stage2_lr=0.05)
    rows = [_dysl_row(sweep, _modules(sweep, dcfg=replace(dcfg, lam=lam)), sweep["guidance"])
            for lam in (0.0, 100.0)]
    assert rows[0] != rows[1]
