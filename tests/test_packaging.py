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
# src/dynskip or perfbench must join this list on purpose, or get a caller;
# a listed name that is gone, or has gained a caller, must leave it.
TEST_ONLY_API = {
    "save_dataset", "load_dataset", "save_policy", "load_policy",
    "save_skip_modules", "load_skip_modules", "paired_one_sided_pvalue",
}

# Public methods and properties that only tests reach, by the same rule.
TEST_ONLY_MEMBERS = {
    "PolicyModel.n_params",
    # reached by its name as a string, through bench.REPORT_FIELDS and getattr,
    # which a scan of NAME tokens cannot see
    "ModeStats.random_skip_full_depth",
}


def _name_tokens(path):
    """(token, line) of every NAME token of a file: code only, no comments or strings."""
    with open(path, "rb") as fh:
        return [(tok.string, tok.start[0]) for tok in tokenize.tokenize(fh.readline)
                if tok.type == tokenize.NAME]


def test_no_new_public_name_is_reached_only_by_tests():
    """The public names that src/dynskip and perfbench never reach are
    exactly the listed ones, and tests reach each of those."""
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
        for token, line in _name_tokens(path):
            for name in by_token.get(token, ()):
                own, first, last = defs[name]
                if path != own or not first <= line <= last:
                    reached.add(name)
    test_only = TEST_ONLY_API | TEST_ONLY_MEMBERS
    assert sorted(set(defs) - reached) == sorted(test_only)
    in_tests = {token for path in (root / "tests").rglob("*.py") for token, _ in _name_tokens(path)}
    assert sorted(n for n in test_only if n.rpartition(".")[2] not in in_tests) == []


def _dataclasses():
    """Every dataclass that a dynskip module defines."""
    return [cls for info in pkgutil.iter_modules(dynskip.__path__)
            for cls in vars(importlib.import_module(f"dynskip.{info.name}")).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
            and cls.__module__ == f"dynskip.{info.name}"]


def _configs():
    """Every *Config dataclass that a dynskip module defines."""
    return [cls for cls in _dataclasses() if cls.__name__.endswith("Config")]


# Dataclass fields that only tests read, each with its reason. A field that
# src/dynskip and perfbench never read is dead weight, and must join this
# list on purpose or go.
TEST_ONLY_FIELDS = {
    "Episode.diagnostic": "the EnvError text of a diverged episode, for inspection",
    "StageReport.skip_rate": "the stage's controller-only skip rate on the probe rows",
}


def test_every_dataclass_field_is_read():
    """A field counts as read when src/dynskip or perfbench loads it as an
    attribute of any object, or names it in a string constant (as
    bench.REPORT_FIELDS names ModeStats' columns for getattr). A load that
    only an item store or delete indexes (`report.f[j] = v`) is a write."""
    root = PYPROJECT.parent
    read = set()
    files = [*(root / "src" / "dynskip").glob("*.py"), *(root / "perfbench").rglob("*.py")]
    for path in sorted(files):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        stored = set()  # ids of the attribute loads that item stores and deletes index
        for node in nodes:
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                inner = node.value
                while isinstance(inner, ast.Subscript):  # report.f[i][j] = v
                    inner = inner.value
                stored.add(id(inner))
        for node in nodes:
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in stored):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    fields = [f"{cls.__name__}.{f.name}" for cls in _dataclasses()
              for f in dataclasses.fields(cls)]
    unread = [name for name in fields if name.rpartition(".")[2] not in read]
    assert sorted(unread) == sorted(TEST_ONLY_FIELDS)


def test_every_config_field_is_set_by_some_caller():
    """A config field is an option only if some call passes it by name
    (`name=`) in src, perfbench or the tests; one that no call sets is a
    constant, and belongs in its module as one."""
    root = PYPROJECT.parent
    passed = set()
    files = (p for top in ("src", "perfbench", "tests") for p in (root / top).rglob("*.py"))
    for path in sorted(files):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                passed.update(kw.arg for kw in node.keywords)
    unset = [f"{cls.__name__}.{f.name}" for cls in _configs() for f in dataclasses.fields(cls)
             if f.name not in passed]
    assert unset == []


def test_every_config_int_field_takes_only_an_int():
    """An int field that took True would run as 1, and one that took 2.5 or
    nan would fail later with a bare error (in range(), default_rng) or run
    truncated; every int field must be >= 0 at least. Walks every *Config
    dataclass, so a new int field fails here until its config checks it.
    check_int_fields skips a field of any other type, so every field must be
    an int, float or bool, and a new `int | None` or `str` option fails here
    too."""
    checked = set()
    for cls in _configs():
        for f in dataclasses.fields(cls):  # every module has postponed annotations
            assert f.type in ("int", "float", "bool"), f"{cls.__name__}.{f.name}: {f.type}"
            if f.type != "int":
                continue
            for value in [True, 2.5, math.nan, math.inf, -1]:
                with pytest.raises(ConfigError, match=f.name):
                    cls(**{f.name: value})
            checked.add(f"{cls.__name__}.{f.name}")
    assert {"TrainConfig.steps", "DistillConfig.batch_size", "PolicyConfig.seed",
            "SimConfig.step_cap", "GuidanceConfig.k"} <= checked
