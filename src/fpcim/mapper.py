"""Mapping of convolutional and fully-connected layers onto CIM macros.

A conv kernel ``(c2, c1, k, k)`` is viewed as a 2D matrix of shape
``(c1*k*k, c2)`` (one column per output channel); FC weights map the same
way.  Matrices larger than one macro (``xbar.MAX_ROWS`` x
``xbar.MAX_COLS``, 576x256, the only macro geometry) are split into row
and column tiles, which follow from the matrix shape alone: a ``TilePlan``
is that shape, and a ``MacroBank`` is one programmed tile per plan tile,
all sharing one ``MacroConfig``.  Row-split tiles produce partial sums that
are added digitally, so each column block is programmed with one weight
scale, its max-abs weight, and its sum is scaled back to real weight units
once, after the raw digital accumulation.

A bank's convertible range is its one ``AdcConfig.c_int``: ``calibrate``
returns a bank with the same programmed tiles and the ``c_int`` that puts
a calibration batch's largest column x just under the readout's full
scale.  The readout's results stay in the same units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from itertools import product
from typing import NamedTuple

import numpy as np

from .adc import adc_x
from .cimmacro import MacroConfig, _column_currents, batch_inputs, converter, macro_mac
from .errors import ContractError, is_int
from .xbar import MAX_COLS, MAX_ROWS, ConductancePair, program_weights

__all__ = [
    "LayerSpec",
    "Tile",
    "TilePlan",
    "map_conv",
    "map_fc",
    "im2col",
    "conv_output_shape",
    "MacroBank",
    "PlanResult",
    "execute_plan",
    "calibrate",
]


@dataclass(frozen=True)
class LayerSpec:
    """Dimensions of one conv or fc layer, all integers; the other kind's stay at their defaults."""

    kind: str
    in_channels: int = 0
    kernel: int = 0
    out_channels: int = 0
    stride: int = 1
    padding: int = 0
    in_features: int = 0
    out_features: int = 0

    def __post_init__(self):
        if self.kind not in ("conv", "fc"):
            raise ContractError(f"unknown layer kind {self.kind!r}")
        for f in fields(self)[1:]:
            v = getattr(self, f.name)
            if not is_int(v):
                raise ContractError(f"{f.name} must be an integer, got {v!r}")
            fc_field = f.name in ("in_features", "out_features")
            if v != f.default and fc_field == (self.kind == "conv"):
                raise ContractError(f"{self.kind} layer has no {f.name}")
        if self.kind == "conv":
            if min(self.in_channels, self.kernel, self.out_channels, self.stride) < 1:
                raise ContractError("conv dimensions must be >= 1")
            if self.padding < 0:
                raise ContractError("padding must be >= 0")
        elif min(self.in_features, self.out_features) < 1:
            raise ContractError("fc dimensions must be >= 1")

    @classmethod
    def conv(cls, in_channels, kernel, out_channels, stride=1, padding=0):
        return cls("conv", in_channels=in_channels, kernel=kernel,
                   out_channels=out_channels, stride=stride, padding=padding)

    @classmethod
    def fc(cls, in_features, out_features):
        return cls("fc", in_features=in_features, out_features=out_features)

    @property
    def matrix_shape(self) -> tuple[int, int]:
        """(rows, cols) of the 2D weight view."""
        if self.kind == "conv":
            return self.in_channels * self.kernel * self.kernel, self.out_channels
        return self.in_features, self.out_features


@dataclass(frozen=True)
class Tile:
    id: int  # also the id of the macro the tile is programmed on
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def rows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def cols(self) -> int:
        return self.col_stop - self.col_start


@dataclass(frozen=True)
class TilePlan:
    """A (rows, cols) weight matrix cut into macro-sized tiles; plans of one shape are equal.

    ``tiles`` follows from the shape: the column blocks in order, and the
    row blocks within one; a tile's id is its position.
    """

    rows: int
    cols: int
    tiles: tuple[Tile, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(is_int(v) and v >= 1 for v in (self.rows, self.cols)):
            raise ContractError(f"matrix dimensions must be integers >= 1, got {self!r}")
        spans = product(_spans(self.cols, MAX_COLS), _spans(self.rows, MAX_ROWS))
        object.__setattr__(self, "tiles", tuple(
            Tile(i, r0, r1, c0, c1) for i, ((c0, c1), (r0, r1)) in enumerate(spans)))

    def col_blocks(self) -> list[tuple[Tile, ...]]:
        """Tiles grouped by column range, row blocks in order."""
        n = math.ceil(self.rows / MAX_ROWS)
        return [self.tiles[i : i + n] for i in range(0, len(self.tiles), n)]


def _spans(size: int, step: int) -> list[tuple[int, int]]:
    """(start, stop) of each ``step``-long block of ``range(size)``, the last one short."""
    return [(lo, min(lo + step, size)) for lo in range(0, size, step)]


def _check_layer(layer: LayerSpec, kind: str, requirement: str) -> None:
    if not (isinstance(layer, LayerSpec) and layer.kind == kind):
        raise ContractError(f"{requirement}, got {layer!r}")


def map_conv(layer: LayerSpec) -> TilePlan:
    _check_layer(layer, "conv", "map_conv requires a conv layer")
    return TilePlan(*layer.matrix_shape)


def map_fc(layer: LayerSpec) -> TilePlan:
    _check_layer(layer, "fc", "map_fc requires an fc layer")
    return TilePlan(*layer.matrix_shape)


def conv_output_shape(layer: LayerSpec, h: int, w: int) -> tuple[int, int]:
    _check_layer(layer, "conv", "conv_output_shape requires a conv layer")
    if not (is_int(h) and is_int(w)):
        raise ContractError(f"input height and width must be integers, got {h!r}, {w!r}")
    oh = (h + 2 * layer.padding - layer.kernel) // layer.stride + 1
    ow = (w + 2 * layer.padding - layer.kernel) // layer.stride + 1
    if oh < 1 or ow < 1:
        raise ContractError(f"kernel {layer.kernel} does not fit a {h}x{w} input")
    return oh, ow


def im2col(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """Unfold conv input patches into columns.

    ``x`` is an image batch (n, c, h, w); the result has shape
    (c*k*k, n*out_h*out_w) with rows ordered (channel, ki, kj) so that
    ``weights_matrix.T @ im2col(x)`` equals the direct convolution.  Each
    kernel offset (ki, kj) copies the strided input pixels its windows
    read and writes +0.0 where they read padding, so no padded copy of
    the input is made.
    """
    _check_layer(layer, "conv", "im2col requires a conv layer")
    x = np.asarray(x, dtype=float)
    if x.ndim != 4 or x.shape[1] != layer.in_channels:
        raise ContractError(f"expected (n, {layer.in_channels}, h, w) input, got {x.shape}")
    n, c, h, w = x.shape
    k, s, p = layer.kernel, layer.stride, layer.padding
    oh, ow = conv_output_shape(layer, h, w)
    src = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, k, k, n, oh, ow))
    for ki in range(k):
        i0, i1, r0 = _inside(ki, s, p, h, oh)
        for kj in range(k):
            j0, j1, c0 = _inside(kj, s, p, w, ow)
            dst = cols[:, ki, kj]
            dst[:, :, :i0] = 0.0
            dst[:, :, i1:] = 0.0
            dst[:, :, i0:i1, :j0] = 0.0
            dst[:, :, i0:i1, j1:] = 0.0
            dst[:, :, i0:i1, j0:j1] = src[:, :, r0 : r0 + (i1 - i0) * s : s,
                                          c0 : c0 + (j1 - j0) * s : s]
    return cols.reshape(c * k * k, n * oh * ow)


def _inside(offset: int, stride: int, padding: int, size: int, out: int) -> tuple[int, int, int]:
    """(lo, hi, first): the outputs lo:hi whose input index ``o * stride + offset - padding``
    lies in [0, size), and that index at ``lo``."""
    lo = min(out, max(0, -((offset - padding) // stride)))
    hi = max(lo, min(out, (size - 1 + padding - offset) // stride + 1))
    return lo, hi, lo * stride + offset - padding


@dataclass(frozen=True)
class ProgrammedTile:
    pair: ConductancePair
    weight_scale: float


@dataclass(frozen=True, eq=False)
class MacroBank:
    """The programmed macros of one plan, one per plan tile in id order, sharing one config."""

    plan: TilePlan
    config: MacroConfig
    tiles: tuple[ProgrammedTile, ...]

    def __post_init__(self):
        _check_plan_and_config(self.plan, self.config)
        if not (isinstance(self.tiles, tuple)
                and all(isinstance(t, ProgrammedTile) for t in self.tiles)):
            raise ContractError(f"tiles must be a tuple of ProgrammedTile, got {self.tiles!r}")
        if len(self.tiles) != len(self.plan.tiles):
            raise ContractError(f"plan has {len(self.plan.tiles)} tiles, bank {len(self.tiles)}")

    @classmethod
    def build(cls, plan: TilePlan, weights: np.ndarray, config: MacroConfig,
              seed: int = 0) -> "MacroBank":
        """Normalize and program every tile of the weight matrix.

        Each column block is divided by one scale, so the raw digital
        outputs of its row tiles are summable: the block's max-abs weight,
        ``max(max, -min)`` with no ``|w|`` copy (1 for an all-zero block).
        A matrix wider than one block is first reduced to per-column maxima
        and minima in row passes, where a block's column slice would be
        read strided.  Every tile is divided into one reused buffer, and
        every tile's planes, levels or conductances, are views of one bank
        buffer of the device's ``tile_dtype``: with one fresh array per
        tile, every other repeated mlp set-up faulted its levels' pages in
        anew, and every mc trial its conductances'.
        ``seed`` must be a non-negative integer; tile ``t`` is programmed
        with the Python int ``seed + t.id``.
        """
        _check_plan_and_config(plan, config)
        if not (is_int(seed) and seed >= 0):
            raise ContractError(f"seed must be a non-negative integer, got {seed!r}")
        seed = int(seed)  # a numpy seed + t.id could overflow
        w = np.asarray(weights, dtype=float)
        if w.shape != (plan.rows, plan.cols):
            raise ContractError(f"weight matrix {w.shape} does not match {plan!r}")
        wide = plan.cols > MAX_COLS
        col_max, col_min = (w.max(axis=0), w.min(axis=0)) if wide else (w, w)
        buffer = np.empty(min(plan.rows, MAX_ROWS) * min(plan.cols, MAX_COLS))
        planes = np.empty(2 * w.size, config.device.tile_dtype)
        tiles, at = [], 0
        for block in plan.col_blocks():
            lo, hi = block[0].col_start, block[0].col_stop
            beta = float(max(col_max[..., lo:hi].max(), -col_min[..., lo:hi].min())) or 1.0
            if not beta < np.inf:  # inf or NaN: fail before w / beta warns on inf / inf
                raise ContractError("weights must be finite")
            for t in block:
                size = t.rows * t.cols
                tile = np.divide(w[t.row_start : t.row_stop, lo:hi], beta,
                                 out=buffer[:size].reshape(t.rows, t.cols))
                out = planes[2 * at : 2 * (at + size)].reshape(2, t.rows, t.cols)
                at += size
                pair = program_weights(tile, config.device, seed=seed + t.id, out=out)
                tiles.append(ProgrammedTile(pair, beta))
        return cls(plan, config, tuple(tiles))

    def __getitem__(self, tile_id: int) -> ProgrammedTile:
        return self.tiles[tile_id]


def _check_plan_and_config(plan, config) -> None:
    if not isinstance(plan, TilePlan):
        raise ContractError(f"plan must be a TilePlan, got {plan!r}")
    if not isinstance(config, MacroConfig):
        raise ContractError(f"config must be a MacroConfig, got {config!r}")


class PlanResult(NamedTuple):
    values: np.ndarray  # real weight units: sum_i decode(x_i) * W[i, j]
    underflow: np.ndarray
    saturated: np.ndarray


def execute_plan(plan: TilePlan, input_bits: np.ndarray, bank: MacroBank,
                 signs: np.ndarray | None = None, readout: str = "adc") -> PlanResult:
    """Run every tile and reduce partial sums digitally.

    ``input_bits`` is a (rows, n) code batch covering all matrix rows, and
    ``signs``, if given, is an array-like of the same shape; the results
    are (n, cols).  Raw per-tile dot products of one column block are
    summed in double precision and scaled back by the block's weight scale
    once.  ``bank`` must have been built for ``plan`` or another plan of
    its shape.

    Every block sums from its first tile's result, so a block of one tile
    is written straight into the outputs.  That is bit for bit the sum
    from zero, ``0.0 + d``, for every ``d`` but -0.0, and no readout
    returns -0.0: the ``adc`` and ``int8`` values are differences of
    non-negative x values, and the ``identity`` matmul accumulates from
    +0.0.
    """
    bits, signs = _plan_inputs(plan, bank, input_bits, signs)
    n = bits.shape[1]
    out = np.empty((n, plan.cols))
    under = np.empty((n, plan.cols), dtype=bool)
    sat = np.empty((n, plan.cols), dtype=bool)
    for block in plan.col_blocks():
        lo, hi = block[0].col_start, block[0].col_stop
        scale = bank[block[0].id].weight_scale / bank.config.device.level_scale
        results = (macro_mac(bits[t.row_start : t.row_stop], bank[t.id].pair, bank.config,
                             signs=None if signs is None else signs[t.row_start : t.row_stop],
                             readout=readout) for t in block)
        first = next(results)
        raw = first.digital_values  # (n, cols), a fresh array: safe to add into
        under[:, lo:hi] = first.underflow
        sat[:, lo:hi] = first.saturated
        for res in results:
            raw += res.digital_values
            under[:, lo:hi] &= res.underflow
            sat[:, lo:hi] |= res.saturated
        np.multiply(raw, scale, out=out[:, lo:hi])
    return PlanResult(out, under, sat)


def calibrate(plan: TilePlan, bank: MacroBank, input_bits: np.ndarray,
              signs: np.ndarray | None = None, readout: str = "adc") -> MacroBank:
    """A bank for ``plan`` whose ``c_int`` puts the calibration batch just under full scale.

    The returned bank shares ``bank``'s programmed tiles; only its
    ``AdcConfig.c_int`` changes, to ``c_int * x_max / full_scale``, with
    ``x_max`` the largest column x of the batch (``input_bits`` and
    ``signs`` as for ``execute_plan``) over both columns of every pair and
    every tile, and ``full_scale`` the readout's (``converter``).  If
    ``x_max`` still reads at or above full scale after the division's
    rounding, ``c_int`` steps up by one ulp at a time until it reads below.
    ``scale_chain`` divides by ``c_int``, so the bank's results stay in the
    same dot-product units.  The identity readout has no converter and
    raises, and so does a batch that drives no current.
    """
    bits, signs = _plan_inputs(plan, bank, input_bits, signs)
    full = converter(readout, bank.config.fmt).full_scale
    i_max = 0.0  # x is monotone in the current: the largest current reads x_max
    for t in plan.tiles:
        rs = slice(t.row_start, t.row_stop)
        for i in _column_currents(bits[rs], None if signs is None else signs[rs],
                                  bank[t.id].pair, bank.config):
            i_max = max(i_max, float(i.max(initial=0.0)))
    adc = bank.config.adc
    x_max = float(adc_x(i_max, adc))
    if not x_max > 0:
        raise ContractError("calibration inputs drive no current")
    adc = replace(adc, c_int=adc.c_int * x_max / full)
    while adc_x(i_max, adc) >= full:
        adc = replace(adc, c_int=math.nextafter(adc.c_int, math.inf))
    return replace(bank, config=replace(bank.config, adc=adc))


def _plan_inputs(plan: TilePlan, bank: MacroBank, input_bits, signs):
    """``batch_inputs`` for a bank built for ``plan`` and a batch covering its rows."""
    if not isinstance(bank, MacroBank):
        raise ContractError(f"bank must be a MacroBank, got {bank!r}")
    if bank.plan != plan:
        raise ContractError("bank was programmed for another plan")
    bits, signs = batch_inputs(input_bits, signs)
    if bits.shape[0] != plan.rows:
        raise ContractError(f"plan expects {plan.rows} input rows, got {bits.shape[0]}")
    return bits, signs
