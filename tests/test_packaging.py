"""Every entry point and data file that pyproject.toml declares exists."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[1]
META = tomllib.loads((ROOT / "pyproject.toml").read_text())
SETUPTOOLS = META.get("tool", {}).get("setuptools", {})


def test_script_targets_import():
    for name, target in META["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_package_data_globs_match_files():
    src = ROOT.joinpath(*SETUPTOOLS.get("packages", {}).get("find", {}).get("where", ["."]))
    for package, globs in SETUPTOOLS.get("package-data", {}).items():
        for pattern in globs:
            assert any(src.joinpath(*package.split(".")).glob(pattern)), f"{package}: {pattern}"
