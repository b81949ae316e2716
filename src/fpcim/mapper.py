"""Mapping of convolutional and fully-connected layers onto CIM macros.

A conv kernel ``(c2, c1, k, k)`` is viewed as a 2D matrix of shape
``(c1*k*k, c2)`` (one column per output channel); FC weights map the same
way.  Matrices larger than one macro (``xbar.MAX_ROWS`` x
``xbar.MAX_COLS``, 576x256, the only macro geometry) are split into row
and column tiles.  A tile's shape comes from the plan and lives on its
programmed ``ConductancePair``; every tile of a bank shares one
``MacroConfig``.  Row-split tiles produce partial sums that are added
digitally, so each column block is programmed with one weight scale and its
sum is scaled back to real weight units once, after the raw digital
accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cimmacro import MacroConfig, batch_inputs, macro_mac
from .errors import ContractError
from .xbar import MAX_COLS, MAX_ROWS, ConductancePair, program_weights

__all__ = [
    "LayerSpec",
    "Tile",
    "TilePlan",
    "map_conv",
    "map_fc",
    "map_matrix",
    "im2col",
    "conv_output_shape",
    "MacroBank",
    "PlanResult",
    "execute_plan",
]


@dataclass(frozen=True)
class LayerSpec:
    """Dimensions of one weight-bearing layer (conv or fc)."""

    kind: str
    in_channels: int = 0
    kernel: int = 0
    out_channels: int = 0
    stride: int = 1
    padding: int = 0
    in_features: int = 0
    out_features: int = 0

    def __post_init__(self):
        if self.kind == "conv":
            if min(self.in_channels, self.kernel, self.out_channels, self.stride) < 1:
                raise ContractError("conv dimensions must be >= 1")
            if self.padding < 0:
                raise ContractError("padding must be >= 0")
        elif self.kind == "fc":
            if min(self.in_features, self.out_features) < 1:
                raise ContractError("fc dimensions must be >= 1")
        else:
            raise ContractError(f"unknown layer kind {self.kind!r}")

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


@dataclass
class TilePlan:
    rows: int
    cols: int
    tiles: list[Tile] = field(default_factory=list)

    def col_blocks(self) -> list[list[Tile]]:
        """Tiles grouped by column range, row blocks in order."""
        blocks: dict[tuple[int, int], list[Tile]] = {}
        for t in self.tiles:
            blocks.setdefault((t.col_start, t.col_stop), []).append(t)
        return [sorted(v, key=lambda t: t.row_start) for _, v in sorted(blocks.items())]


def map_matrix(rows: int, cols: int) -> TilePlan:
    """Partition a (rows, cols) matrix into macro-sized tiles.

    Tile ids run over the column blocks in order, and over the row blocks
    within one.
    """
    if rows < 1 or cols < 1:
        raise ContractError("matrix dimensions must be >= 1")
    plan = TilePlan(rows, cols)
    for cb in range(math.ceil(cols / MAX_COLS)):
        for rb in range(math.ceil(rows / MAX_ROWS)):
            plan.tiles.append(
                Tile(
                    id=len(plan.tiles),
                    row_start=rb * MAX_ROWS,
                    row_stop=min((rb + 1) * MAX_ROWS, rows),
                    col_start=cb * MAX_COLS,
                    col_stop=min((cb + 1) * MAX_COLS, cols),
                )
            )
    return plan


def map_conv(layer: LayerSpec) -> TilePlan:
    if layer.kind != "conv":
        raise ContractError("map_conv requires a conv layer")
    return map_matrix(*layer.matrix_shape)


def map_fc(layer: LayerSpec) -> TilePlan:
    if layer.kind != "fc":
        raise ContractError("map_fc requires an fc layer")
    return map_matrix(*layer.matrix_shape)


def conv_output_shape(layer: LayerSpec, h: int, w: int) -> tuple[int, int]:
    oh = (h + 2 * layer.padding - layer.kernel) // layer.stride + 1
    ow = (w + 2 * layer.padding - layer.kernel) // layer.stride + 1
    if oh < 1 or ow < 1:
        raise ContractError(f"kernel {layer.kernel} does not fit a {h}x{w} input")
    return oh, ow


def im2col(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """Unfold conv input patches into columns.

    ``x`` is (c, h, w) or a batch (n, c, h, w); the result has shape
    (c*k*k, n*out_h*out_w) with rows ordered (channel, ki, kj) so that
    ``weights_matrix.T @ im2col(x)`` equals the direct convolution.  The
    columns are one strided copy of the padded input's k x k windows.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 3:
        x = x[None]
    if x.ndim != 4 or x.shape[1] != layer.in_channels:
        raise ContractError(f"expected (n, {layer.in_channels}, h, w) input, got {x.shape}")
    n, c, h, w = x.shape
    k, s, p = layer.kernel, layer.stride, layer.padding
    oh, ow = conv_output_shape(layer, h, w)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    windows = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    cols = np.empty((c, k, k, n, oh, ow))
    np.copyto(cols, windows.transpose(1, 4, 5, 0, 2, 3))
    return cols.reshape(c * k * k, n * oh * ow)


@dataclass
class ProgrammedTile:
    pair: ConductancePair
    weight_scale: float


class MacroBank:
    """Programmed macros for one plan, keyed by tile id, sharing one config."""

    def __init__(self, plan: TilePlan, config: MacroConfig):
        self.plan = plan
        self.config = config
        self.tiles: dict[int, ProgrammedTile] = {}

    @classmethod
    def build(cls, plan: TilePlan, weights: np.ndarray, config: MacroConfig,
              weight_scale: float | None = None, seed: int = 0) -> "MacroBank":
        """Normalize and program every tile of the weight matrix.

        Each column block is divided by one scale, so the raw digital
        outputs of its row tiles are summable: ``weight_scale`` if given,
        else the block's max-abs weight, ``max(block.max(), -block.min())``
        read without an ``|w|`` copy (1 for an all-zero block).  A given
        scale must be finite and positive.  Tile ``t`` is programmed with
        seed ``seed + t.id``.
        """
        if weight_scale is not None and not 0 < weight_scale < np.inf:
            raise ContractError(f"weight_scale must be finite and positive, got {weight_scale}")
        w = np.asarray(weights, dtype=float)
        if w.shape != (plan.rows, plan.cols):
            raise ContractError(f"weight matrix {w.shape} does not match plan "
                                f"({plan.rows}, {plan.cols})")
        bank = cls(plan, config)
        for block in plan.col_blocks():
            lo, hi = block[0].col_start, block[0].col_stop
            if weight_scale is not None:
                beta = float(weight_scale)
            else:
                cols = w[:, lo:hi]
                beta = float(max(cols.max(), -cols.min())) or 1.0
                if not beta < np.inf:  # inf or NaN: fail before w / beta warns on inf / inf
                    raise ContractError("weights must be finite")
            for t in block:
                pair = program_weights(w[t.row_start : t.row_stop, lo:hi] / beta,
                                       config.device, seed=seed + t.id)
                bank.tiles[t.id] = ProgrammedTile(pair, beta)
        return bank

    def __getitem__(self, tile_id: int) -> ProgrammedTile:
        try:
            return self.tiles[tile_id]
        except KeyError:
            raise ContractError(f"no macro programmed for tile {tile_id}") from None


class PlanResult(NamedTuple):
    values: np.ndarray  # real weight units: sum_i decode(x_i) * W[i, j]
    underflow: np.ndarray
    saturated: np.ndarray


def execute_plan(plan: TilePlan, input_bits: np.ndarray, bank: MacroBank,
                 signs: np.ndarray | None = None, readout: str = "adc") -> PlanResult:
    """Run every tile and reduce partial sums digitally.

    ``input_bits`` covers all matrix rows, (rows,) or (rows, n), and
    ``signs``, if given, is an array-like of the same shape.  Raw per-tile
    dot products of one column block are summed in double precision and
    scaled back by the block's weight scale once.  ``bank`` must have been
    built for ``plan``: the same object or an equal plan.

    Every block sums from its first tile's result, so a block of one tile
    is written straight into the outputs.  That is bit for bit the sum
    from zero, ``0.0 + d``, for every ``d`` but -0.0, and no readout
    returns -0.0: the ``adc`` and ``int8`` values are differences of
    non-negative x values, and the ``identity`` matmul accumulates from
    +0.0.
    """
    if bank.plan != plan:
        raise ContractError("bank was programmed for another plan")
    bits, signs, single = batch_inputs(input_bits, signs)
    if bits.shape[0] != plan.rows:
        raise ContractError(f"plan expects {plan.rows} input rows, got {bits.shape[0]}")

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
        raw = first.digital_values.reshape(n, -1)  # a fresh array: safe to add into
        under[:, lo:hi] = first.underflow.reshape(n, -1)
        sat[:, lo:hi] = first.saturated.reshape(n, -1)
        for res in results:
            raw += res.digital_values.reshape(n, -1)
            under[:, lo:hi] &= res.underflow.reshape(n, -1)
            sat[:, lo:hi] |= res.saturated.reshape(n, -1)
        np.multiply(raw, scale, out=out[:, lo:hi])
    if single:
        return PlanResult(out.reshape(-1), under.reshape(-1), sat.reshape(-1))
    return PlanResult(out, under, sat)
