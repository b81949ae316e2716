"""RRAM crossbar analog MAC model.

Signed weights are stored as differential conductance pairs: the positive
column carries ``g_min + |w| * (g_max - g_min)`` for w >= 0 (the negative
column stays at g_min) and symmetrically for w < 0.  Multi-level cells
quantize the weight onto ``levels`` (an integer >= 2) uniform conductance
steps per sign.

Programming works on the signed weight throughout: the level is
``rint(w * (levels - 1))``, and the two columns hold its positive part
``kp`` and its negative part ``kn``.  Every tile is one ``(2, rows, cols)``
array, plane 0 the positive columns and plane 1 the negative ones.  A
noiseless cell's conductance is ``g_min + k * g_lsb`` with an integer
``k``, so a noiseless tile stores its integer levels in float32 planes,
and its conductance planes are derived from them on every read; the macro
sums with the integers themselves (``cimmacro``).  A noisy tile stores its
float64 conductance planes.  Both are programmed in row blocks through one
block-sized scratch array, so programming allocates nothing tile-sized
beside what it returns (see ``program_weights``).

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

    @property
    def tile_dtype(self) -> np.dtype:
        """What a programmed tile stores: float32 levels when noiseless, float64 conductances."""
        return np.dtype(np.float32 if self.sigma_rel == 0 else np.float64)


class ConductancePair:
    """Differential conductance matrices holding one tile of signed weights.

    ``ConductancePair(g_pos, g_neg)`` holds the two (rows, cols) planes, as
    a noisy device programs them; ``levels`` and ``device`` are None.  A
    noiseless tile (``program_weights``) holds only its integer levels:
    ``levels`` is one C-contiguous float32 (2, rows, cols) array, plane 0
    the levels ``kp`` of the positive columns and plane 1 those ``kn`` of
    the negative ones, in 0..levels-1, and ``device`` the model they are
    levels of.  Its ``g_pos`` and ``g_neg`` are derived on every read,
    fresh, as ``k / level_scale * span + g_min``: the bits the planes of a
    noiseless programming always had.  Every stored array is read-only, and
    so is the pair: setting an attribute raises, as it did on a frozen
    dataclass.
    """

    def __init__(self, g_pos: np.ndarray, g_neg: np.ndarray):
        if not (isinstance(g_pos, np.ndarray) and isinstance(g_neg, np.ndarray)):
            raise ContractError(f"g_pos and g_neg must be arrays, got {type(g_pos)}, {type(g_neg)}")
        if g_pos.shape != g_neg.shape or g_pos.ndim != 2:
            raise ContractError("g_pos and g_neg must be equal-shape 2D matrices")
        _check_tile(*g_pos.shape)
        if not (g_pos.min() >= 0 and g_neg.min() >= 0):  # min propagates NaN
            raise ContractError("conductances must be non-negative and not NaN")
        g_pos.flags.writeable = False
        g_neg.flags.writeable = False
        vars(self).update(_planes=(g_pos, g_neg), levels=None, device=None)

    @classmethod
    def _of_levels(cls, levels: np.ndarray, device: "DeviceModel") -> "ConductancePair":
        _check_tile(*levels.shape[1:])
        pair = cls.__new__(cls)
        levels.flags.writeable = False
        vars(pair).update(_planes=None, levels=levels, device=device)
        return pair

    def __setattr__(self, name, value):
        raise AttributeError(f"a ConductancePair is read-only: cannot set {name!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return self._planes[0].shape if self.levels is None else self.levels.shape[1:]

    @property
    def g_pos(self) -> np.ndarray:
        return self._plane(0)

    @property
    def g_neg(self) -> np.ndarray:
        return self._plane(1)

    def _plane(self, index: int) -> np.ndarray:
        if self.levels is None:
            return self._planes[index]
        g = self.levels[index].astype(float)
        g /= self.device.level_scale
        g *= self.device.g_max - self.device.g_min
        g += self.device.g_min
        g.flags.writeable = False
        return g


def _check_tile(rows: int, cols: int) -> None:
    if not (1 <= rows <= MAX_ROWS and 1 <= cols <= MAX_COLS):
        raise ContractError(f"tile {rows}x{cols} does not fit the {MAX_ROWS}x{MAX_COLS} macro")


def weight_levels(weights: np.ndarray, model: DeviceModel, out: np.ndarray | None = None) -> np.ndarray:
    """Signed level numbers the device programming rounds the weights to.

    ``np.rint(w * (levels - 1))``: integers in [-(levels-1), levels-1], in
    ``out`` or one fresh array.  Round-half-even is odd, so this equals
    ``np.sign(w) * np.rint(np.abs(w) * (levels - 1))`` in value, and bit
    for bit except at w = -0.0, where it gives -0.0 (the |w| form +0.0).
    """
    if not isinstance(model, DeviceModel):
        raise ContractError(f"model must be a DeviceModel, got {model!r}")
    w = np.asarray(weights, dtype=float)
    if w.ndim == 0:
        raise ContractError(f"weights must be an array, got {weights!r}")
    a = np.multiply(w, model.levels - 1, out=out)
    return np.rint(a, out=a)


def program_weights(weights: np.ndarray, model: DeviceModel, seed: int = 0,
                    out: np.ndarray | None = None) -> ConductancePair:
    """Program a (rows, cols) block of weights, |w| <= 1, into a differential pair.

    Weights are rounded to the device's conductance levels; programming
    variation is a multiplicative Gaussian ``(1 + sigma_rel * N(0,1))``
    drawn from the given seed, clamped back into [g_min, g_max].  The seed
    must be a non-negative integer at every ``sigma_rel``.

    The tile is one (2, rows, cols) array of the device's ``tile_dtype``:
    ``out``, a writeable C-contiguous array of that dtype and shape, if
    given, else a fresh one.  The ``weight_levels`` array ``k`` is rounded
    in row blocks into one scratch array of ``max(1, _BLOCK // cols)``
    rows, and each block is written into the two planes as ``max(a, 0)``
    and ``max(-a, 0)`` (``a`` negated in place).  A noiseless pair holds
    these planes as its integer levels (``ConductancePair``), with ``a =
    k``: float32 is exact for integers up to 2^24, so a noiseless device
    must have at most 2^24 levels.

    A noisy pair's planes are its conductances: ``a`` is ``k`` divided by
    ``level_scale`` and multiplied by the span in place, the signed
    conductance step, and ``g_min`` is added to both planes.  Each noise
    factor lives in the same scratch array, filled block by block: plane
    0's noise in row order, then plane 1's.  That is the same stream as one
    ``standard_normal`` draw into the whole array, and a float product
    commutes, so every bit matches the whole-array form, which allocated
    two tile-sized temporaries per call.
    """
    if not isinstance(model, DeviceModel):
        raise ContractError(f"model must be a DeviceModel, got {model!r}")
    if not (is_int(seed) and seed >= 0):
        raise ContractError(f"seed must be a non-negative integer, got {seed!r}")
    noiseless = model.sigma_rel == 0
    if noiseless and model.levels > 2**24:
        raise ContractError(f"a noiseless device stores float32 levels: levels must be "
                            f"at most 2^24, got {model.levels}")
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or not w.size:
        raise ContractError(f"weights must be a non-empty (rows, cols) block, not {w.shape}")
    if not (-1.0 <= w.min() and w.max() <= 1.0):  # NaN fails both
        if not np.all(np.isfinite(w)):
            raise ContractError("weights must be finite")
        raise ContractError("weight magnitudes must be pre-scaled to [0, 1]")

    rows, cols = w.shape
    dtype = model.tile_dtype
    if out is None:
        out = np.empty((2, rows, cols), dtype)
    elif not (isinstance(out, np.ndarray) and out.dtype == dtype and out.shape == (2, rows, cols)
              and out.flags.c_contiguous and out.flags.writeable):
        raise ContractError(f"out must be a writeable C-contiguous {dtype} {(2, rows, cols)} array")
    pos, neg = out
    step = max(1, _BLOCK // cols)
    scratch = np.empty((min(step, rows), cols))
    blocks = [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
    for lo, hi in blocks:
        a = weight_levels(w[lo:hi], model, out=scratch[: hi - lo])
        if not noiseless:
            a /= model.level_scale
            a *= model.g_max - model.g_min
        np.maximum(a, 0.0, out=pos[lo:hi])
        np.maximum(np.negative(a, out=a), 0.0, out=neg[lo:hi])
    if noiseless:
        return ConductancePair._of_levels(out, model)

    out += model.g_min
    rng = np.random.default_rng(seed)
    for plane in out:
        for lo, hi in blocks:
            noise = rng.standard_normal(out=scratch[: hi - lo])
            noise *= model.sigma_rel
            noise += 1.0
            plane[lo:hi] *= noise
    np.clip(out, model.g_min, model.g_max, out=out)
    return ConductancePair(pos, neg)
