import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_console_script_target_imports():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        entry = importlib.import_module(module)
        for part in attr.split("."):
            entry = getattr(entry, part)
        assert callable(entry), f"console script {name!r} -> {target!r} is not callable"
