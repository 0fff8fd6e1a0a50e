import ast
import dataclasses
import importlib
import math
import pkgutil
import tokenize
from pathlib import Path

import pytest

import dynskip
from dynskip.errors import ConfigError

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_console_script_target_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+; the guard below runs on 3.10 too
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        entry = importlib.import_module(module)
        for part in attr.split("."):
            entry = getattr(entry, part)
        assert callable(entry), f"console script {name!r} -> {target!r} is not callable"


# Public names that only tests reach: the entry points of a `dynskip.cli` module
# that does not exist yet. A public function or class reached by nothing in
# src/dynskip or perfbench must join this list on purpose, or get a caller.
TEST_ONLY_API = {
    "save_dataset", "load_dataset", "save_policy", "load_policy",
    "save_skip_modules", "load_skip_modules", "write_train_log", "write_profile_csv",
    "write_zero_shot_csv", "paired_one_sided_pvalue",
}

# Public methods and properties that only tests reach, by the same rule.
TEST_ONLY_MEMBERS = {
    "PolicyModel.n_params",
    # reached by its name as a string, through bench.REPORT_FIELDS and getattr,
    # which a scan of NAME tokens cannot see
    "ModeStats.random_skip_full_depth",
}


def test_no_new_public_name_is_reached_only_by_tests():
    root = PYPROJECT.parent
    package = sorted((root / "src" / "dynskip").glob("*.py"))
    defs = {}  # qualified name -> (file, first line, last line) of its definition
    for path in package:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            named = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                named += [(f"{node.name}.{m.name}", m) for m in node.body
                          if isinstance(m, ast.FunctionDef)]
            for name, defn in named:
                if not defn.name.startswith("_"):
                    defs[name] = (path, defn.lineno, defn.end_lineno)
    by_token = {}  # a method or property is reached by its bare name, on any object
    for name in defs:
        by_token.setdefault(name.rpartition(".")[2], []).append(name)
    reached = set()
    for path in package + sorted((root / "perfbench").rglob("*.py")):
        with open(path, "rb") as fh:  # NAME tokens: code only, no comments or strings
            for tok in tokenize.tokenize(fh.readline):
                if tok.type != tokenize.NAME:
                    continue
                for name in by_token.get(tok.string, ()):
                    own, first, last = defs[name]
                    if path != own or not first <= tok.start[0] <= last:
                        reached.add(name)
    assert set(defs) - reached - TEST_ONLY_API - TEST_ONLY_MEMBERS == set()


def test_every_config_int_field_takes_only_an_int():
    """An int field that took True would run as 1, and one that took 2.5 or
    nan would fail later with a bare error (in range(), default_rng) or run
    truncated; a seed must be >= 0. Walks every *Config dataclass, so a new
    int field fails here until its config checks it. check_int_fields skips
    a field of any other type, so every field must be an int, float or bool,
    and a new `int | None` or `str` option fails here too."""
    configs = [cls for info in pkgutil.iter_modules(dynskip.__path__)
               for cls in vars(importlib.import_module(f"dynskip.{info.name}")).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)
               and cls.__name__.endswith("Config") and cls.__module__ == f"dynskip.{info.name}"]
    checked = set()
    for cls in configs:
        for f in dataclasses.fields(cls):  # every module has postponed annotations
            assert f.type in ("int", "float", "bool"), f"{cls.__name__}.{f.name}: {f.type}"
            if f.type != "int":
                continue
            for value in [True, 2.5, math.nan, math.inf] + ([-1] if f.name == "seed" else []):
                with pytest.raises(ConfigError, match=f.name):
                    cls(**{f.name: value})
            checked.add(f"{cls.__name__}.{f.name}")
    assert {"TrainConfig.steps", "DistillConfig.batch_size", "PolicyConfig.seed",
            "SimConfig.step_cap", "GuidanceConfig.k"} <= checked
