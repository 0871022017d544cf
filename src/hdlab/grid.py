"""Sampled planar functions on a square window.

A :class:`PlanarGrid` holds samples of a function on ``[0, R]^2`` taken at
node centres ``((i + 1/2) h, (j + 1/2) h)``.  Values are stored row-major,
first index along the x1 axis.  Values are immutable after construction.

The discrete convolution of two grids is the plain scaled double sum
``c[m] = h^2 sum_k a[k] b[m - k]``; sample ``m`` of the result therefore
approximates the continuous convolution at position ``(m + 1) h`` per axis,
half a cell past the node centre.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from ._kernels import read_bilinear

ZERO = "zero_extended"
PERIODIC = "periodic"

_MAGIC = b"HDLGRID1"
_HEADER = struct.Struct("<8sId")  # magic, N, R; boundary byte + padding follow


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PlanarGrid:
    """Real samples of a function on [0, side]^2 at resolution ``step``.

    ``cache`` keeps what the smoothed forms derive from the values, for as
    long as the grid lives (a new grid starts empty): the pair-correlation
    torus (key ``"pair_torus"``), the four-point table (``"four_point_table"``),
    the folded tent profiles (keyed as in ``spectral.ring_tents``) and the
    ``L_form`` values (``("L_form", n, ...)``).  Clearing it frees them.
    """

    side: float
    step: float
    values: np.ndarray
    boundary: str = ZERO
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.boundary not in (ZERO, PERIODIC):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")
        if not 0 < self.step < np.inf:
            raise ValueError(f"grid step must be finite and positive, got {self.step!r}")
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        n = vals.shape[0]
        if vals.ndim != 2 or vals.shape[1] != n:
            raise ValueError("values must be a square 2-d array")
        if n < 2:
            raise ValueError("need at least 2 nodes per axis")
        if abs(n * self.step - self.side) > self.step / 2:
            raise ValueError(
                f"inconsistent geometry: N*h = {n * self.step} vs R = {self.side}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def node_count(self) -> int:
        return self.values.shape[0]

    @property
    def periodic(self) -> bool:
        return self.boundary == PERIODIC

    def node_coords(self) -> np.ndarray:
        """Node centre coordinates along one axis."""
        return (np.arange(self.node_count) + 0.5) * self.step

    def value_at(self, p1, p2):
        """Bilinear read at arbitrary points (0 outside in zero mode)."""
        return read_bilinear(self.values, self.step, p1, p2, self.periodic)

    def with_values(self, values: np.ndarray) -> "PlanarGrid":
        return PlanarGrid(self.side, self.step, values, self.boundary)


@dataclass(frozen=True)
class SpectrumGrid:
    """DFT coefficients; entry k approximates the transform at k/side."""

    side: float
    step: float
    coefficients: np.ndarray
    boundary: str = ZERO

    @property
    def frequency_step(self) -> float:
        return 1.0 / self.side

    def frequencies(self) -> np.ndarray:
        n = self.coefficients.shape[0]
        return np.fft.fftfreq(n, d=1.0 / n) / self.side


# ---------------------------------------------------------------------------
# indicator construction


def _require_inside(lo1, lo2, hi1, hi2, side, what):
    if lo1 < 0 or lo2 < 0 or hi1 > side or hi2 > side:
        raise ValueError(
            f"{what} [{lo1},{hi1}]x[{lo2},{hi2}] extends outside the window [0,{side}]^2"
        )


# the fields each shape type reads, besides ``type`` (stripes1d also reads
# an optional ``axis``, 0 by default)
SHAPE_FIELDS = {"rect": ["x0", "y0", "x1", "y1"], "disk": ["cx", "cy", "r"],
                "stripes1d": ["intervals"]}


def shape_mask(shapes, p1, p2) -> np.ndarray:
    """Membership of the points (p1, p2) in a union of shapes, boundaries
    included, broadcast over p1 and p2.  The shapes are not validated."""
    hit = np.zeros(np.broadcast(p1, p2).shape, dtype=bool)
    for s in shapes:
        kind = s.get("type")
        if kind == "rect":
            hit |= (p1 >= s["x0"]) & (p1 <= s["x1"]) & (p2 >= s["y0"]) & (p2 <= s["y1"])
        elif kind == "disk":
            r = s["r"]
            hit |= (p1 - s["cx"]) ** 2 + (p2 - s["cy"]) ** 2 <= r * r
        elif kind == "stripes1d":
            coord = p1 if int(s.get("axis", 0)) == 0 else p2
            for a, b in s["intervals"]:
                hit |= (coord >= a) & (coord <= b)
        else:
            raise ValueError(f"unknown shape type {kind!r}")
    return hit


def make_indicator(shapes, side, step, boundary=ZERO) -> PlanarGrid:
    """Rasterise a union of shapes; ``shape_mask`` at the node centres.

    ``shapes`` is a list of dicts: ``{"type": "rect", "x0", "y0", "x1", "y1"}``,
    ``{"type": "disk", "cx", "cy", "r"}``, or
    ``{"type": "stripes1d", "axis": 0|1, "intervals": [[a, b], ...]}``.
    """
    if side <= 0:
        raise ValueError("window side must be positive")
    if not 0 < step <= side / 2:
        raise ValueError(f"resolution h={step} must satisfy 0 < h <= R/2")
    n = int(round(side / step))
    if abs(n * step - side) > step / 2:
        raise ValueError("side must be an integer multiple of step")
    for s in shapes:
        kind = s.get("type")
        if kind == "rect":
            x0, y0, x1, y1 = s["x0"], s["y0"], s["x1"], s["y1"]
            if x1 < x0 or y1 < y0:
                raise ValueError("rect with negative extent")
            _require_inside(x0, y0, x1, y1, side, "rect")
        elif kind == "disk":
            cx, cy, r = s["cx"], s["cy"], s["r"]
            if r < 0:
                raise ValueError("disk with negative radius")
            _require_inside(cx - r, cy - r, cx + r, cy + r, side, "disk")
        elif kind == "stripes1d":
            if int(s.get("axis", 0)) not in (0, 1):
                raise ValueError("stripes1d axis must be 0 or 1")
            for a, b in s["intervals"]:
                if b < a:
                    raise ValueError("stripe interval with negative length")
                if a < 0 or b > side:
                    raise ValueError(f"stripe [{a},{b}] outside [0,{side}]")
    x = (np.arange(n) + 0.5) * step
    mask = shape_mask(shapes, x[:, None], x[None, :])
    return PlanarGrid(side, step, mask.astype(np.float64), boundary)


def from_shape_json(doc) -> PlanarGrid:
    """Build an indicator grid from the JSON shape document."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    boundary = {"zero": ZERO, "periodic": PERIODIC}.get(doc.get("boundary", "zero"))
    if boundary is None:
        raise ValueError("boundary must be 'zero' or 'periodic'")
    return make_indicator(doc.get("shapes", []), doc["R"], doc["h"], boundary)


# ---------------------------------------------------------------------------
# measure, transforms, convolution


def measure(g: PlanarGrid) -> float:
    """h^2 times the sum of samples (np.sum is fixed-order pairwise)."""
    return float(g.values.sum() * g.step * g.step)


def _check_pow2(g: PlanarGrid, what: str):
    if not _is_pow2(g.node_count):
        raise ValueError(f"{what} requires a power-of-two node count, got {g.node_count}")


def _phase(n: int) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.exp(-1j * np.pi * k / n)


def dft(g: PlanarGrid) -> SpectrumGrid:
    """Forward transform; coefficient k approximates f-hat at frequency k/R.

    The half-sample phase accounts for node centres at (i + 1/2) h, so the
    zero coefficient equals the integral of the function exactly.
    """
    _check_pow2(g, "dft")
    n = g.node_count
    ph = _phase(n)
    coef = (g.step * g.step) * np.fft.fft2(g.values) * ph[:, None] * ph[None, :]
    return SpectrumGrid(g.side, g.step, coef, g.boundary)


def idft(s: SpectrumGrid) -> PlanarGrid:
    n = s.coefficients.shape[0]
    ph = _phase(n)
    vals = np.fft.ifft2(s.coefficients / (ph[:, None] * ph[None, :])) / (s.step * s.step)
    return PlanarGrid(s.side, s.step, vals.real, s.boundary)


def convolve(a: PlanarGrid, b: PlanarGrid) -> PlanarGrid:
    """Discrete convolution c[m] = h^2 sum_k a[k] b[m-k], computed spectrally.

    Periodic grids wrap; zero-extended grids use linear convolution cropped
    to the window.  Matches the direct double sum to round-off.
    """
    if (a.side, a.step, a.boundary) != (b.side, b.step, b.boundary):
        raise ValueError("convolve requires identical window, resolution and boundary")
    _check_pow2(a, "convolve")
    n = a.node_count
    if a.periodic:
        conv = np.fft.irfft2(np.fft.rfft2(a.values) * np.fft.rfft2(b.values), s=(n, n))
    else:
        m = 2 * n
        fa = np.fft.rfft2(a.values, s=(m, m))
        fb = np.fft.rfft2(b.values, s=(m, m))
        conv = np.fft.irfft2(fa * fb, s=(m, m))[:n, :n]
    return a.with_values(conv * a.step * a.step)


# ---------------------------------------------------------------------------
# binary persistence: 32-byte header, then row-major little-endian float64


def save_grid(g: PlanarGrid, path):
    header = _HEADER.pack(_MAGIC, g.node_count, g.side)
    header += bytes([1 if g.periodic else 0])
    header += b"\x00" * (32 - len(header))
    data = g.values.astype("<f8").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def load_grid(path) -> PlanarGrid:
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) < 32 or header[:8] != _MAGIC:
            raise ValueError(f"{path}: not a grid file (bad magic)")
        _, n, side = _HEADER.unpack(header[: _HEADER.size])
        boundary = PERIODIC if header[_HEADER.size] == 1 else ZERO
        data = np.frombuffer(fh.read(n * n * 8), dtype="<f8").reshape(n, n)
    return PlanarGrid(side, side / n, data, boundary)
