"""The benchmark's eval-modes fixture and its reference evaluation, pinned.

Every "same results" claim about a change quotes `fixture_digest` and the
four `reference_trace_digests` of a benchmark run; the benchmark itself only
checks that they repeat within one run. This test builds the fixture as the
benchmark does, at its default budget, under the Haswell kernel that
conftest.py forces, and pins both. It reads the benchmark and changes
nothing in it.
"""

from perfbench.workloads import (
    Budget,
    Probe,
    make_datasets,
    reference_evaluation,
    train_fixture,
)


def test_eval_modes_fixture_and_reference_traces_match_their_pinned_digests(tmp_path):
    budget = Budget()
    probe = Probe()
    fixture = train_fixture(make_datasets(budget, probe), budget, probe)
    ref = reference_evaluation(fixture, budget, tmp_path / "reference")
    assert fixture.digest() == "6e37867fafb9aefa"
    assert ref.digests == {
        "controllers-only": "43d85e4fc7b9408a",
        "dysl": "acdec3ee0c597a6a",
        "full": "8acfcf6d6189c26d",
        "random-skip": "0ec52c37f989de19",
    }
    assert ref.failed == 0
