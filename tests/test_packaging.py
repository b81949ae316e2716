"""Every entry point, data file and exported name the package declares exists."""

import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import fpcim
from fpcim import adc, cimmacro, dac, fpcodec
from fpcim.errors import ContractError

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


def format_parameters(module):
    """(name, function, its ``fmt`` parameter) for each public function of ``module`` taking one."""
    for name, fn in public_functions(importlib.import_module(module)):
        fmt = inspect.signature(fn).parameters.get("fmt")
        if fmt is not None:
            yield name, fn, fmt


@pytest.mark.parametrize("module", MODULES)
def test_no_function_defaults_the_format(module):
    # a 7-bit pattern does not say which format it is: a defaulted fmt would
    # read E3M4 codes as E2M5 without an error
    defaulted = [name for name, _, fmt in format_parameters(module)
                 if fmt.default is not inspect.Parameter.empty]
    assert not defaulted, f"{module}: fmt has a default in {defaulted}"


# One call per public function that takes a format, every argument but fmt valid.
NON_FORMAT_CALLS = {
    "adc.AdcConfig.cap_bank": lambda fmt: adc.AdcConfig().cap_bank(fmt),
    # 1 uA reads x = 0.95: an underflow, which reads no format bit
    "adc.convert_analytic": lambda fmt: adc.convert_analytic(1e-6, adc.AdcConfig(), fmt),
    "adc.convert_analytic_array":
        lambda fmt: adc.convert_analytic_array(np.array([1e-6]), adc.AdcConfig(), fmt),
    "adc.simulate_transient": lambda fmt: adc.simulate_transient(1e-6, adc.AdcConfig(), fmt),
    "adc.single_slope": lambda fmt: adc.single_slope(1.5, fmt),
    "adc.x_sat": adc.x_sat,
    "cimmacro.MacroConfig.for_format": cimmacro.MacroConfig.for_format,
    "cimmacro.converter": lambda fmt: cimmacro.converter("int8", fmt),
    "dac.dac_convert_bits": lambda fmt: dac.dac_convert_bits(np.zeros(1, np.uint8), fmt),
    "fpcodec.all_values": fpcodec.all_values,
    "fpcodec.check_format": fpcodec.check_format,
    "fpcodec.decode": lambda fmt: fpcodec.decode(0, fmt),
    "fpcodec.decode_bits": lambda fmt: fpcodec.decode_bits(np.zeros(1, np.uint8), fmt),
    "fpcodec.quantize_tensor": lambda fmt: fpcodec.quantize_tensor(np.ones(1), fmt),
}


@pytest.mark.parametrize("name", sorted(NON_FORMAT_CALLS))
@pytest.mark.parametrize("bad", ["E2M5", None, [2, 5]], ids=repr)
def test_non_format_rejected(name, bad):
    # a format's name is no format: it fails at the boundary, not as an
    # AttributeError inside, nor as code 0 read without a format
    with pytest.raises(ContractError, match="fmt must be an? FpFormat"):
        NON_FORMAT_CALLS[name](bad)


@pytest.mark.parametrize("module", MODULES)
def test_every_format_entry_point_is_in_the_non_format_table(module):
    # a new function taking a format cannot skip test_non_format_rejected
    missing = [name for name, fn, _ in format_parameters(module)
               if f"{fn.__module__}.{fn.__qualname__}".removeprefix("fpcim.")
               not in NON_FORMAT_CALLS]
    assert not missing, f"{module}: no non-format call for {missing}"
