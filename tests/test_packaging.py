"""Every entry point, data file and exported name the package declares exists."""

import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import fpcim
from fpcim import adc, cimmacro, dac, fpcodec, mapper, perfmodel, xbar
from fpcim.errors import ContractError
from fpcim.fpcodec import E2M5

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


def qualified(obj):
    return f"{obj.__module__}.{obj.__qualname__}".removeprefix("fpcim.")


# Classes of ``__all__`` that only carry a result: they check nothing they hold.
RECORDS = {"adc.AdcEvent", "adc.AdcResult", "cimmacro.MacroResult", "mapper.PlanResult",
           "mapper.Tile", "perfmodel.PerfReport"}


def entry_points(module):
    """(name, callable): each public function of ``module`` and each class of its
    ``__all__`` but the result records and the error type."""
    mod = importlib.import_module(module)
    for _, fn in public_functions(mod):
        yield qualified(fn), fn
    for name in getattr(mod, "__all__", ()):
        cls = getattr(mod, name)
        if inspect.isclass(cls) and not issubclass(cls, Exception):
            if qualified(cls) not in RECORDS:
                yield qualified(cls), cls


_W = np.full((4, 2), 0.5)
_BITS = np.full((4, 3), 0b0100000, np.uint8)
_CONV = mapper.LayerSpec.conv(1, 3, 2)
_PLAN = mapper.TilePlan(4, 2)
_BANK = mapper.MacroBank.build(_PLAN, _W, cimmacro.MacroConfig())

# One valid call per entry point: (callable, positional arguments).  Every
# argument listed must reject None; one that takes None is left out.
VALID_CALLS = {
    "adc.AdcConfig": (adc.AdcConfig, (100e-15, 95e-9)),
    "adc.AdcConfig.cap_bank": (adc.AdcConfig().cap_bank, (E2M5,)),
    "adc.adc_x": (adc.adc_x, (3e-6, adc.AdcConfig())),
    "adc.charge_share": (adc.charge_share, (2.0, 100e-15, 100e-15, 0.0)),
    "adc.single_slope": (adc.single_slope, (1.5, E2M5)),
    "adc.convert_analytic": (adc.convert_analytic, (3e-6, adc.AdcConfig(), E2M5)),
    "adc.convert_analytic_array":
        (adc.convert_analytic_array, (np.array([3e-6]), adc.AdcConfig(), E2M5)),
    "adc.simulate_transient": (adc.simulate_transient, (3e-6, adc.AdcConfig(), E2M5)),
    "adc.int8_baseline_convert": (adc.int8_baseline_convert, (np.array([3e-6]), adc.AdcConfig())),
    "adc.x_sat": (adc.x_sat, (E2M5,)),
    "cimmacro.MacroConfig":
        (cimmacro.MacroConfig, (E2M5, adc.AdcConfig(), xbar.DeviceModel())),
    "cimmacro.MacroConfig.for_format": (cimmacro.MacroConfig.for_format, (E2M5,)),
    "cimmacro.converter": (cimmacro.converter, ("adc", E2M5)),
    "cimmacro.scale_chain": (cimmacro.scale_chain, (cimmacro.MacroConfig(),)),
    "cimmacro.macro_mac": (cimmacro.macro_mac, (_BITS, _BANK[0].pair, _BANK.config)),
    "cimmacro.ideal_reference": (cimmacro.ideal_reference, (np.ones((4, 3)), np.ones((4, 2)))),
    "cimmacro.batch_inputs": (cimmacro.batch_inputs, (_BITS,)),
    "dac.dac_convert_bits": (dac.dac_convert_bits, (_BITS, E2M5)),
    "fpcodec.FpFormat": (fpcodec.FpFormat, (2, 5)),
    "fpcodec.decode": (fpcodec.decode, (33, E2M5)),
    "fpcodec.decode_bits": (fpcodec.decode_bits, (_BITS, E2M5)),
    "fpcodec.all_values": (fpcodec.all_values, (E2M5,)),
    "fpcodec.check_format": (fpcodec.check_format, (E2M5,)),
    "fpcodec.quantize_tensor": (fpcodec.quantize_tensor, (np.ones(3), E2M5)),
    "mapper.LayerSpec": (mapper.LayerSpec, ("conv", 1, 3, 2)),
    "mapper.LayerSpec.conv": (mapper.LayerSpec.conv, (1, 3, 2)),
    "mapper.LayerSpec.fc": (mapper.LayerSpec.fc, (4, 2)),
    "mapper.TilePlan": (mapper.TilePlan, (4, 2)),
    "mapper.TilePlan.col_blocks": (_PLAN.col_blocks, ()),
    "mapper.map_conv": (mapper.map_conv, (_CONV,)),
    "mapper.map_fc": (mapper.map_fc, (mapper.LayerSpec.fc(4, 2),)),
    "mapper.im2col": (mapper.im2col, (np.ones((1, 1, 4, 4)), _CONV)),
    "mapper.conv_output_shape": (mapper.conv_output_shape, (_CONV, 4, 4)),
    "mapper.MacroBank": (mapper.MacroBank, (_PLAN, _BANK.config, _BANK.tiles)),
    "mapper.MacroBank.build": (mapper.MacroBank.build, (_PLAN, _W, _BANK.config, 0)),
    "mapper.execute_plan": (mapper.execute_plan, (_PLAN, _BITS, _BANK)),
    "mapper.calibrate": (mapper.calibrate, (_PLAN, _BANK, _BITS)),
    "perfmodel.BlockPowers": (perfmodel.BlockPowers, (1e-3, 1e-3, 1e-3, 1e-3)),
    "perfmodel.EnergyParams": (perfmodel.EnergyParams, (perfmodel.DEFAULT_PARAMS.blocks,)),
    "perfmodel.EnergyParams.total": (perfmodel.DEFAULT_PARAMS.total, ("E2M5",)),
    "perfmodel.throughput_from": (perfmodel.throughput_from, (200e-9,)),
    "perfmodel.total_comparison": (perfmodel.total_comparison, ()),
    "xbar.DeviceModel": (xbar.DeviceModel, (0.5e-6, 20e-6, 16, 0.0)),
    "xbar.ConductancePair": (xbar.ConductancePair, (np.full((4, 2), 1e-6), np.full((4, 2), 1e-6))),
    "xbar.program_weights": (xbar.program_weights, (_W, xbar.DeviceModel(), 0)),
    "xbar.weight_levels": (xbar.weight_levels, (_W, xbar.DeviceModel())),
}


@pytest.mark.parametrize("module", MODULES)
def test_none_in_any_argument_raises_contract_error(module):
    # a wrong-typed argument fails at the boundary with ContractError, not
    # as an AttributeError or a TypeError inside; a new entry point with no
    # valid call in the table fails here too
    wrong = []
    for name, _ in entry_points(module):
        if name not in VALID_CALLS:
            wrong.append(f"{name}: no valid call in VALID_CALLS")
            continue
        fn, args = VALID_CALLS[name]
        fn(*args)
        for i in range(len(args)):
            try:
                fn(*args[:i], None, *args[i + 1:])
            except ContractError:
                continue
            except Exception as e:  # noqa: BLE001 -- reported below, with every other case
                wrong.append(f"{name}, argument {i} None: {type(e).__name__}: {e}")
            else:
                wrong.append(f"{name}, argument {i} None: no error")
    assert not wrong, "\n".join(wrong)


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
