import json
import re

import numpy as np
import pytest

from dynskip import bench, containers, distill, runtime as rt, sim
from dynskip.errors import ConfigError, ShapeError, TraceIntegrityError
from dynskip.model import PolicyConfig, build_policy, load_policy, save_policy
from dynskip.profiler import StaticSet

COMMENT = bench.REPORT_HEADER_COMMENT.encode() + b"\n"


def _write_every_csv(out):
    """Every CSV table of the package, on fixed inputs, into `out`; train.csv
    pins the float and empty-cell formatting of `write_csv` itself."""
    containers.write_csv(out / "train.csv", ["step", "train_loss", "val_mse"],
                         [(0, None, 0.25), (5, 0.1, 1 / 3), (10, 2.5e-17, 1e22)])
    bench.write_report_csv(out / "report.csv", [
        bench.ModeStats("full", 2, 1.5, 0.5, 12.0, 198144.0, 0.0, 0.0),
        bench.ModeStats("random-skip", 2, 0.0, 0.0, 7.25, 1 / 3, 3.0, 0.125, 0.3)])
    distill._write_stage_log(out / "stage1.csv",
                             distill.StageReport("stage1", losses=[0.5, 0.25]))
    distill._write_stage_log(out / "stage2.csv", distill.StageReport(
        "stage2", losses=[1.0, 0.5], task_losses=[0.75, 1 / 3],
        norm_losses=[2.0, 0.0], mean_gates=[0.5, 0.125]))


# Bytes written by the per-module writers before they shared one CSV writer;
# report.csv has since gained the random_skip_full_depth column.
GOLDEN_CSV = {
    "train.csv": b"step,train_loss,val_mse\r\n0,,0.25\r\n5,0.1,0.3333333333333333\r\n"
                 b"10,2.5e-17,1e+22\r\n",
    "report.csv": COMMENT + b"mode,avg_successful_length,success_rate,avg_executed_layers,"
                  b"avg_flops,controller_evals_per_step,verify_rate,episodes,random_skip_prob,"
                  b"random_skip_full_depth\r\n"
                  b"full,1.5,0.5,12.0,198144.0,0.0,0.0,2,,\r\n"
                  b"random-skip,0.0,0.0,7.25,0.3333333333333333,3.0,0.125,2,0.3,False\r\n",
    "stage1.csv": b"step,loss,task_loss,norm_loss,mean_gate\r\n0,0.5,,,\r\n1,0.25,,,\r\n",
    "stage2.csv": b"step,loss,task_loss,norm_loss,mean_gate\r\n0,1.0,0.75,2.0,0.5\r\n"
                  b"1,0.5,0.3333333333333333,0.0,0.125\r\n",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_csv_writer_bytes_are_pinned(tmp_path, name):
    _write_every_csv(tmp_path)
    assert (tmp_path / name).read_bytes() == GOLDEN_CSV[name]


def test_read_csv_skips_comments_and_keeps_text(tmp_path):
    _write_every_csv(tmp_path)
    rows = containers.read_csv(tmp_path / "report.csv")
    assert [r["mode"] for r in rows] == ["full", "random-skip"]
    assert rows[0]["random_skip_prob"] == "" and rows[1]["random_skip_prob"] == "0.3"
    assert float(rows[1]["avg_flops"]) == 1 / 3


# --- checked headers ---------------------------------------------------------------

def _tiny_policy():
    return build_policy(PolicyConfig(instr_dim=2, hidden_dim=8, depth=4))


def _save_policy(path):
    save_policy(path, _tiny_policy())


def _save_skip_modules(path):
    rt.save_skip_modules(path, rt.init_skip_modules(_tiny_policy(),
                                                    StaticSet(indices=(1, 3), depth=4)))


def _save_dataset(path):
    sim.save_dataset(path, sim.generate_dataset(sim.SimConfig(subtasks=1), 1, seed=0))


def _save_trace(path):
    rt.write_episode_trace(path, rt.Episode(mode="full", task_seed=0))


def _edit_npz_header(path, edit):
    header, arrays = containers.load_arrays(path)
    edit(header)
    containers.save_arrays(path, header, arrays)


def _edit_trace_header(path, edit):
    first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header = json.loads(first)
    edit(header)
    path.write_text(json.dumps(header) + "\n" + "".join(rest), encoding="utf-8")


ARTIFACTS = {
    "policy": (_save_policy, load_policy, _edit_npz_header),
    "skip_modules": (_save_skip_modules, rt.load_skip_modules, _edit_npz_header),
    "dataset": (_save_dataset, sim.load_dataset, _edit_npz_header),
    "episode_trace": (_save_trace, rt.read_episode_trace, _edit_trace_header),
}


def _wrong_kind(header):
    header["kind"] = "something_else"


def _no_version(header):
    del header["schema_version"]


def _stale_version(header):
    header["schema_version"] -= 1


@pytest.mark.parametrize("edit,message", [(_wrong_kind, "is not a"),
                                          (_no_version, "schema_version none"),
                                          (_stale_version, "schema_version")],
                         ids=["wrong-kind", "missing-version", "stale-version"])
@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_loaders_reject_bad_headers(tmp_path, artifact, edit, message):
    save, load, edit_header = ARTIFACTS[artifact]
    path = tmp_path / "a"
    save(path)
    load(path)  # the untouched artifact loads
    edit_header(path, edit)
    with pytest.raises(ConfigError, match=message):
        load(path)


def _drop(*keys):
    """Header edit deleting the field at the path `keys`."""
    def edit(header):
        for key in keys[:-1]:
            header = header[key]
        del header[keys[-1]]
    return edit


def _put(value, *keys):
    """Header edit setting the field at the path `keys` to `value`."""
    def edit(header):
        for key in keys[:-1]:
            header = header[key]
        header[keys[-1]] = value
    return edit


MALFORMED_HEADERS = {
    "policy-no-config": ("policy", _drop("config"), "config"),
    "policy-config-not-object": ("policy", _put([64], "config"), "config"),
    "policy-extra-config-key": ("policy", _put(3, "config", "width"), "width"),
    "policy-no-depth": ("policy", _drop("config", "depth"), "depth"),
    "policy-depth-as-text": ("policy", _put("4", "config", "depth"), "depth"),
    "policy-extra-field": ("policy", _put(1, "note"), "note"),
    "skip_modules-no-static_indices": ("skip_modules", _drop("static_indices"),
                                       "static_indices"),
    "skip_modules-no-tau": ("skip_modules", _drop("tau"), "tau"),
    "skip_modules-tau-as-text": ("skip_modules", _put("0.5", "tau"), "tau"),
    "skip_modules-bool-depth": ("skip_modules", _put(True, "depth"), "depth"),
    "skip_modules-text-index": ("skip_modules", _put([1, "3"], "static_indices"),
                                "static_indices"),
    "dataset-no-sim_config": ("dataset", _drop("sim_config"), "sim_config"),
    "dataset-no-seed": ("dataset", _drop("seed"), "seed"),
    "dataset-no-n_episodes": ("dataset", _drop("n_episodes"), "n_episodes"),
    "dataset-extra-sim_config-key": ("dataset", _put(1, "sim_config", "gravity"),
                                     "gravity"),
    "dataset-no-subtasks": ("dataset", _drop("sim_config", "subtasks"), "subtasks"),
    # an unchecked n_steps 5.0 equals a count of 5 records
    "episode_trace-float-n_steps": ("episode_trace", _put(5.0, "n_steps"), "n_steps"),
    "episode_trace-no-task_seed": ("episode_trace", _drop("task_seed"), "task_seed"),
    "episode_trace-no-success": ("episode_trace", _drop("success"), "success"),
    "episode_trace-mode-not-text": ("episode_trace", _put(1, "mode"), "mode"),
    "episode_trace-int-diverged": ("episode_trace", _put(0, "diverged"), "diverged"),
    "episode_trace-float-success_length": ("episode_trace", _put(1.0, "success_length"),
                                           "success_length"),
    "episode_trace-extra-field": ("episode_trace", _put(1, "note"), "note"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_loaders_name_the_malformed_header_field(tmp_path, case):
    artifact, edit, field = MALFORMED_HEADERS[case]
    save, load, edit_header = ARTIFACTS[artifact]
    path = tmp_path / "a"
    save(path)
    load(path)  # the untouched artifact loads
    edit_header(path, edit)
    with pytest.raises(ConfigError, match=f"'{field}'"):
        load(path)


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_loaders_reject_a_header_that_is_not_an_object(tmp_path, artifact):
    save, load, _ = ARTIFACTS[artifact]
    path = tmp_path / "a"
    save(path)
    if artifact == "episode_trace":
        header, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(f"[{header.strip()}]\n" + "".join(rest), encoding="utf-8")
    else:
        header, arrays = containers.load_arrays(path)
        containers.save_arrays(path, [header], arrays)
    with pytest.raises(ConfigError, match="header is a list, not an object"):
        load(path)


# a one-step trace's header and record lines -> the malformed file's text
MALFORMED_TRACES = {
    "empty": (lambda header, record: "", "line 1 is not JSON"),
    "cut-off-record": (lambda header, record: header + record[:25], "line 2 is not JSON"),
    "record-not-an-object": (lambda header, record: header + "5\n",
                             "line 2 is 5, not a step record"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
def test_read_episode_trace_names_the_line_it_cannot_read(tmp_path, case):
    path = tmp_path / "ep.jsonl"
    rt.write_episode_trace(path, rt.Episode(
        task_seed=0, mode="full", actions=[np.zeros(3)],
        steps=[rt.StepRecord(rt.ExecTrace(executed_layers=[0, 1, 2, 3]), None, None)]))
    rt.read_episode_trace(path)  # the untouched trace reads
    text, message = MALFORMED_TRACES[case]
    path.write_text(text(*path.read_text(encoding="utf-8").splitlines(keepends=True)),
                    encoding="utf-8")
    with pytest.raises(TraceIntegrityError, match=f"ep.jsonl: {message}"):
        rt.read_episode_trace(path)


@pytest.mark.parametrize("artifact", ["policy", "skip_modules", "dataset"])
def test_npz_loaders_reject_non_container_files(tmp_path, artifact):
    save, load, _ = ARTIFACTS[artifact]
    old_jsonl = tmp_path / "old.jsonl"  # the dataset format before the npz container
    old_jsonl.write_text('{"kind": "dataset", "schema_version": 1}\n{"obs": [0.0]}\n')
    headerless = tmp_path / "plain.npz"
    np.savez(headerless, x=np.zeros(2))
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    for path in (old_jsonl, headerless, empty):
        with pytest.raises(ConfigError, match="not an npz container"):
            load(path)
    save(tmp_path / "pickled")
    header, arrays = containers.load_arrays(tmp_path / "pickled")
    name = sorted(arrays)[0]  # a dataset's 'actions'
    arrays[name] = np.array([None, 0.0], dtype=object)  # np.savez pickles it
    containers.save_arrays(tmp_path / "pickled", header, arrays)
    with pytest.raises(ConfigError, match=re.escape(
            f"pickled: member '{name}' cannot be read (ValueError: Object arrays cannot be "
            "loaded when allow_pickle=False")):
        load(tmp_path / "pickled")
    for text in (b"{not json", b"\xff{}"):
        with open(tmp_path / "garbled", "wb") as fh:
            np.savez(fh, __header__=np.frombuffer(text, dtype=np.uint8))
        with pytest.raises(ConfigError, match="garbled: header is not UTF-8 JSON"):
            load(tmp_path / "garbled")


@pytest.mark.parametrize("artifact", ["policy", "skip_modules", "dataset"])
def test_npz_loaders_reject_a_truncated_file(tmp_path, artifact):
    """A file cut short has lost the zip directory at its end, which np.load
    reports as a bare zipfile.BadZipFile."""
    save, load, _ = ARTIFACTS[artifact]
    path = tmp_path / "cut.npz"
    save(path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(ConfigError, match="cut.npz is not an npz container"):
        load(path)


def test_a_dataset_with_a_damaged_byte_fails_by_name_or_loads_unchanged(tmp_path):
    """Each 7th byte of a saved dataset, flipped alone: the load raises
    ConfigError naming the file (zipfile's and numpy's errors for a damaged
    member included) or ShapeError, or gives the saved arrays."""
    path, damaged = tmp_path / "d.npz", tmp_path / "damaged.npz"
    sim.save_dataset(path, sim.generate_dataset(sim.SimConfig(subtasks=2), 1, seed=3))
    saved = sim.load_dataset(path)
    data = path.read_bytes()
    loaded = 0
    for i in range(0, len(data), 7):
        damaged.write_bytes(data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:])
        try:
            ds = sim.load_dataset(damaged)
        except ConfigError as exc:
            assert str(exc).startswith(str(damaged)), exc
            continue
        except ShapeError:  # a member renamed out of the dataset's arrays
            continue
        loaded += 1
        assert (ds.config, ds.seed, ds.n_episodes, ds.phases) == (
            saved.config, saved.seed, saved.n_episodes, saved.phases)
        for name in ("obs", "instr", "actions", "episode_ids"):
            assert np.array_equal(getattr(ds, name), getattr(saved, name)), (i, name)
    assert 0 < loaded < len(data) // 7
