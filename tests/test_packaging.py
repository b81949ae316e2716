"""Every entry point, data file and exported name the package declares exists."""

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import fpcim

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["fpcim"] + [f"fpcim.{m.name}" for m in pkgutil.iter_modules(fpcim.__path__)]


@pytest.fixture(scope="module")
def meta():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    return tomllib.loads((ROOT / "pyproject.toml").read_text())


def test_script_targets_import(meta):
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_package_data_globs_match_files(meta):
    setuptools = meta.get("tool", {}).get("setuptools", {})
    src = ROOT.joinpath(*setuptools.get("packages", {}).get("find", {}).get("where", ["."]))
    for package, globs in setuptools.get("package-data", {}).items():
        for pattern in globs:
            assert any(src.joinpath(*package.split(".")).glob(pattern)), f"{package}: {pattern}"


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def public_functions(mod):
    """(name, function) for each callable of ``__all__`` and each public method of its classes."""
    for name in getattr(mod, "__all__", ()):
        obj = getattr(mod, name)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                bound = isinstance(member, (classmethod, staticmethod))
                if (inspect.isfunction(member) or bound) and not attr.startswith("_"):
                    yield f"{name}.{attr}", getattr(obj, attr)
        elif callable(obj):
            yield name, obj


@pytest.mark.parametrize("module", MODULES)
def test_no_function_defaults_the_format(module):
    # a 7-bit pattern does not say which format it is: a defaulted fmt would
    # read E3M4 codes as E2M5 without an error
    defaulted = []
    for name, fn in public_functions(importlib.import_module(module)):
        fmt = inspect.signature(fn).parameters.get("fmt")
        if fmt is not None and fmt.default is not inspect.Parameter.empty:
            defaulted.append(name)
    assert not defaulted, f"{module}: fmt has a default in {defaulted}"
