"""The benchmark's per-layer metrics name their spans by the traced
function's `<module>.<function>` or `<module>.<Class>.<method>`; a renamed or
moved function would turn its metric into "missing" without failing a run.
These tests read the benchmark's tables and change nothing in them."""

from dynskip import bench, runtime, sim
from dynskip.model import PolicyConfig, build_policy
from dynskip.profiler import StaticSet
from perfbench import workloads
from perfbench.hooks import Patcher, Tracer, public_callables


def _named_spans() -> set[str]:
    tables = workloads.EVAL_SPAN_METRICS + workloads.TRAIN_SPAN_METRICS
    return ({span for _, span, _ in tables}
            | {span for _, span, _ in workloads.CALLS_PER_STEP}
            | {"sim.env_step"})  # the step count of every calls-per-step metric


def test_every_span_the_benchmark_names_is_a_traced_dynskip_function():
    assert all(mod.__name__.startswith("dynskip.") for mod in workloads.LAYERS)
    traced = set(public_callables(workloads.LAYERS).values())
    assert sorted(_named_spans() - traced) == []


def test_a_small_evaluation_calls_every_layer_function_the_benchmark_counts():
    """A tiny evaluation of all four modes, traced and labelled by mode as
    the benchmark's traced run is, reports none of the rollout metrics as
    missing: a function the runtime stops calling fails here, not only in
    the benchmark's smoke run."""
    model = build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=6, seed=2))
    mods = runtime.init_skip_modules(model, StaticSet(indices=(2, 5), depth=6), seed=3)
    tracer = Tracer(workloads.LAYERS)
    with Patcher() as patcher:
        tracer.install(patcher)
        rollout = runtime.rollout_episode

        def labelled(task, model_, mods_, mode, *args, **kwargs):
            tracer.mark(mode)
            return rollout(task, model_, mods_, mode, *args, **kwargs)

        patcher.set(runtime, "rollout_episode", labelled)
        bench.evaluate_modes(model, mods, sim.SimConfig(subtasks=2, step_cap=12),
                             runtime.GuidanceConfig(k=2), runtime.MODES, 2, 0)
    _, missing = workloads.span_metrics(tracer.spans())
    rollout_metrics = ({metric for metric, _, kind in workloads.EVAL_SPAN_METRICS
                        if kind != "s"}
                       | {metric for metric, _, _ in workloads.CALLS_PER_STEP})
    assert sorted(rollout_metrics & set(missing)) == []


def test_a_small_training_run_calls_every_training_function_the_benchmark_times():
    """A tiny BC, profiling, zero-shot and distillation run, traced and
    labelled by phase by the benchmark's own training pipeline, reports none
    of the training metrics as missing: a refactor that inlines a timed
    function or stops calling it fails here, not only in the benchmark's
    traced smoke run."""
    budget = workloads.Budget(train_episodes=3, val_episodes=2, bc_steps=3, bc_batch=16,
                              stage1_steps=2, stage2_steps=2, distill_batch=16)
    tracer = Tracer(workloads.LAYERS)
    with Patcher() as patcher:
        tracer.install(patcher)
        probe = workloads.Probe(tracer)
        workloads.train_fixture(workloads.make_datasets(budget, probe), budget, probe)
    assert set(tracer.step_labels + [tracer.label]) >= set(workloads.TRAIN_LABELS)
    _, missing = workloads.span_metrics(tracer.spans())
    train_metrics = {metric for metric, _, _ in workloads.TRAIN_SPAN_METRICS}
    assert sorted(train_metrics & set(missing)) == []
