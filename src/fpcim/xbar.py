"""RRAM crossbar analog MAC model.

Signed weights are stored as differential conductance pairs: the positive
column carries ``g_min + |w| * (g_max - g_min)`` for w >= 0 (the negative
column stays at g_min) and symmetrically for w < 0.  Multi-level cells
quantize the weight onto ``levels`` (an integer >= 2) uniform conductance
steps per sign.

Programming works on the signed weight throughout: the level is
``rint(w * (levels - 1))``, scaled to a signed conductance step ``a``, and
the planes are ``max(a, 0) + g_min`` and ``max(-a, 0) + g_min``.  Every
step is odd in w, so this is bit for bit the ``|w|`` form split by sign.
A noisy device is programmed in row blocks through one block-sized
scratch array, so a Monte Carlo trial allocates nothing tile-sized beside
the returned conductances; a noiseless one in whole-tile passes (see
``program_weights``).

Column currents follow Ohm's law and Kirchhoff's current law with the
source line clamped: the model works with the current magnitude entering
the integrator, so the inverting-integrator sign flip is absorbed here.
Wire parasitics are not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, is_int, is_real
from .fpcodec import _BLOCK

__all__ = [
    "DeviceModel",
    "ConductancePair",
    "program_weights",
    "weight_levels",
]

# Macro geometry: rows (wordlines) by differential column pairs.
MAX_ROWS = 576
MAX_COLS = 256


@dataclass(frozen=True)
class DeviceModel:
    """Programmable-conductance device parameters (siemens)."""

    g_min: float = 0.5e-6
    g_max: float = 20e-6
    levels: int = 16
    sigma_rel: float = 0.0

    def __post_init__(self):
        if not (is_real(self.g_min) and is_real(self.g_max)
                and 0 <= self.g_min < self.g_max < np.inf):
            raise ContractError("need 0 <= g_min < g_max < inf")
        if not (is_int(self.levels) and self.levels >= 2):
            raise ContractError(f"levels must be an integer >= 2, got {self.levels!r}")
        if not (is_real(self.sigma_rel) and 0 <= self.sigma_rel < np.inf):
            raise ContractError("sigma_rel must be finite and non-negative")

    @property
    def g_lsb(self) -> float:
        """Conductance step per weight level."""
        return (self.g_max - self.g_min) / (self.levels - 1)

    @property
    def level_scale(self) -> float:
        """Weight-level units per unit normalized weight."""
        return float(self.levels - 1)


@dataclass(frozen=True)
class ConductancePair:
    """Differential conductance matrices holding one tile of signed weights."""

    g_pos: np.ndarray
    g_neg: np.ndarray

    def __post_init__(self):
        if self.g_pos.shape != self.g_neg.shape or self.g_pos.ndim != 2:
            raise ContractError("g_pos and g_neg must be equal-shape 2D matrices")
        rows, cols = self.g_pos.shape
        if not (1 <= rows <= MAX_ROWS and 1 <= cols <= MAX_COLS):
            raise ContractError(f"tile {rows}x{cols} does not fit the {MAX_ROWS}x{MAX_COLS} macro")
        if not (self.g_pos.min() >= 0 and self.g_neg.min() >= 0):  # min propagates NaN
            raise ContractError("conductances must be non-negative and not NaN")
        self.g_pos.flags.writeable = False
        self.g_neg.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.g_pos.shape


def weight_levels(weights: np.ndarray, model: DeviceModel, out: np.ndarray | None = None) -> np.ndarray:
    """Signed level numbers the device programming rounds the weights to.

    ``np.rint(w * (levels - 1))``: integers in [-(levels-1), levels-1], in
    ``out`` or one fresh array.  Round-half-even is odd, so this equals
    ``np.sign(w) * np.rint(np.abs(w) * (levels - 1))`` in value, and bit
    for bit except at w = -0.0, where it gives -0.0 (the |w| form +0.0).
    """
    a = np.multiply(np.asarray(weights, dtype=float), model.levels - 1, out=out)
    return np.rint(a, out=a)


def program_weights(weights: np.ndarray, model: DeviceModel, seed: int = 0) -> ConductancePair:
    """Program a (rows, cols) block of weights, |w| <= 1, into a differential pair.

    Weights are rounded to the device's conductance levels; programming
    variation is a multiplicative Gaussian ``(1 + sigma_rel * N(0,1))``
    drawn from the given seed, clamped back into [g_min, g_max].  The seed
    must be a non-negative integer at every ``sigma_rel``.

    Both matrices are planes of one ``(2, rows, cols)`` buffer: plane 0 is
    ``g_pos``, plane 1 ``g_neg``.  The signed conductance step ``a`` is the
    ``weight_levels`` array, divided by ``level_scale`` and multiplied by
    the span in place; the planes are ``max(a, 0) + g_min`` and
    ``max(-a, 0) + g_min`` (``a`` is negated in place for the second).

    With noise, ``a`` and each noise factor live in one scratch array of
    ``max(1, _BLOCK // cols)`` rows, filled block by block: plane 0's noise
    in row order, then plane 1's.  That is the same stream as one
    ``standard_normal`` draw into the whole buffer, and a float product
    commutes, so every bit matches the whole-array form, which allocated
    two tile-sized temporaries per call.  The noiseless path keeps
    whole-array passes with one tile-sized ``a``: it programs each tile
    once per set-up, where blocked passes measured slower (mlp set-up
    58-68 ms went to 79-90 ms on a 2-vCPU VM, with about five times the
    page faults).
    """
    if not (is_int(seed) and seed >= 0):
        raise ContractError(f"seed must be a non-negative integer, got {seed!r}")
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or not w.size:
        raise ContractError(f"weights must be a non-empty (rows, cols) block, not {w.shape}")
    if not (-1.0 <= w.min() and w.max() <= 1.0):  # NaN fails both
        if not np.all(np.isfinite(w)):
            raise ContractError("weights must be finite")
        raise ContractError("weight magnitudes must be pre-scaled to [0, 1]")

    if model.sigma_rel == 0:
        a = weight_levels(w, model)
        a /= model.level_scale
        a *= model.g_max - model.g_min
        g = np.empty((2,) + w.shape)
        np.maximum(a, 0.0, out=g[0])
        np.maximum(np.negative(a, out=a), 0.0, out=g[1])
        g += model.g_min
        return ConductancePair(g[0], g[1])

    rows, cols = w.shape
    step = max(1, _BLOCK // cols)
    g = np.empty((2, rows, cols))
    scratch = np.empty((min(step, rows), cols))
    blocks = [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
    for lo, hi in blocks:
        a = weight_levels(w[lo:hi], model, out=scratch[: hi - lo])
        a /= model.level_scale
        a *= model.g_max - model.g_min
        np.maximum(a, 0.0, out=g[0, lo:hi])
        np.maximum(np.negative(a, out=a), 0.0, out=g[1, lo:hi])
    g += model.g_min
    rng = np.random.default_rng(seed)
    for plane in g:
        for lo, hi in blocks:
            noise = rng.standard_normal(out=scratch[: hi - lo])
            noise *= model.sigma_rel
            noise += 1.0
            plane[lo:hi] *= noise
    np.clip(g, model.g_min, model.g_max, out=g)
    return ConductancePair(g[0], g[1])
