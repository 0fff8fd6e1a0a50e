"""The benchmark's per-layer metrics name their spans by the traced
function's `<module>.<function>` or `<module>.<Class>.<method>`; a renamed or
moved function would turn its metric into "missing" without failing a run.
These tests read the benchmark's tables and change nothing in them."""

from perfbench import workloads
from perfbench.hooks import public_callables


def _named_spans() -> set[str]:
    tables = workloads.EVAL_SPAN_METRICS + workloads.TRAIN_SPAN_METRICS
    return ({span for _, span, _ in tables}
            | {span for _, span, _ in workloads.CALLS_PER_STEP}
            | {"sim.env_step"})  # the step count of every calls-per-step metric


def test_every_span_the_benchmark_names_is_a_traced_dynskip_function():
    assert all(mod.__name__.startswith("dynskip.") for mod in workloads.LAYERS)
    traced = set(public_callables(workloads.LAYERS).values())
    assert sorted(_named_spans() - traced) == []
