"""References computed apart from hdlab.

Everything here uses NumPy/SciPy only: closed forms for the n = 1 sharp
form on disks and rectangles, a rasteriser that applies the documented
node-centre rule, a PGM writer, and the rebuild of a witness copy from its
reported base point and edge vectors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def lens_area(r: float, lam: float) -> float:
    """Area of D(0, r) intersected with D(lam e, r) for a unit vector e.

    For a disk this is the n = 1 sharp form at every angle, so it is also
    the angle average the program computes.
    """
    if lam >= 2.0 * r:
        return 0.0
    return 2.0 * r * r * math.acos(lam / (2.0 * r)) - 0.5 * lam * math.sqrt(4.0 * r * r - lam * lam)


def rect_pair_area(a: float, b: float, lam: float) -> float:
    """Angle average of |R intersected with (R - lam w)| for an a x b rectangle.

    The overlap at direction (cos t, sin t) is (a - lam|cos t|)+ (b - lam|sin t|)+;
    the average over the circle is four times the quarter-turn integral.
    """

    def overlap(t):
        return max(a - lam * abs(math.cos(t)), 0.0) * max(b - lam * abs(math.sin(t)), 0.0)

    kinks = [t for t in (math.acos(min(a / lam, 1.0)), math.asin(min(b / lam, 1.0)))
             if 0.0 < t < math.pi / 2]
    value, _ = quad(overlap, 0.0, math.pi / 2, points=kinks or None, epsabs=0.0,
                    epsrel=1e-12, limit=200)
    return value * 2.0 / math.pi


def raster(shapes, side: float, step: float) -> np.ndarray:
    """0/1 mask of a union of rects and disks, tested at node centres (i + 1/2) h."""
    n = int(round(side / step))
    x = (np.arange(n) + 0.5) * step
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    mask = np.zeros((n, n), dtype=bool)
    for s in shapes:
        if s["type"] == "rect":
            mask |= (x1 >= s["x0"]) & (x1 <= s["x1"]) & (x2 >= s["y0"]) & (x2 <= s["y1"])
        elif s["type"] == "disk":
            mask |= (x1 - s["cx"]) ** 2 + (x2 - s["cy"]) ** 2 <= s["r"] ** 2
        else:
            raise ValueError(f"unsupported shape {s['type']!r}")
    return mask


def shape_area(shape) -> float:
    if shape["type"] == "rect":
        return (shape["x1"] - shape["x0"]) * (shape["y1"] - shape["y0"])
    if shape["type"] == "disk":
        return math.pi * shape["r"] ** 2
    raise ValueError(f"unsupported shape {shape['type']!r}")


def write_pgm(path, mask: np.ndarray):
    """Binary P5 file whose pixels read back as ``mask``.

    ``mask[i, j]`` is the cell at x1 index i, x2 index j with row 0 at the
    bottom, so the image is the transposed mask flipped top to bottom.
    """
    n = mask.shape[0]
    img = np.where(mask.T[::-1, :], 255, 0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n# hdbench\n%d %d\n255\n" % (n, n))
        fh.write(img.tobytes())


def member(mask: np.ndarray, cell: float, side: float, p1, p2) -> np.ndarray:
    """Cell membership of points in the window, 0 outside."""
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    inside = (p1 >= 0) & (p1 < side) & (p2 >= 0) & (p2 < side)
    n = mask.shape[0]
    i = np.clip(np.floor(p1 / cell).astype(np.int64), 0, n - 1)
    j = np.clip(np.floor(p2 / cell).astype(np.int64), 0, n - 1)
    return inside & mask[i, j]


def cube_vertices(base, edges) -> np.ndarray:
    """The 2^n points base + sum over r in {0,1}^n of r_k e_k, bit k selects e_k."""
    edges = np.asarray(edges, dtype=np.float64).reshape(-1, 2)
    n = len(edges)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    return np.asarray(base, dtype=np.float64) + bits @ edges


def lattice_count(side: float, step: float) -> int:
    """Base points (k + 1/2) step < side per axis."""
    return int(math.ceil(side / step - 0.5 - 1e-9))


def scan_cursor(base, edges, side: float, x_step: float, angles: int) -> int:
    """Lexicographic cursor of a copy: row-major base index, then angle digits
    most-significant-first (the order ``find_copy`` documents)."""
    pts = lattice_count(side, x_step)
    i1 = int(round(base[0] / x_step - 0.5))
    i2 = int(round(base[1] / x_step - 0.5))
    cursor = i1 * pts + i2
    for e1, e2 in edges:
        digit = int(round(math.atan2(e2, e1) / (2.0 * math.pi / angles))) % angles
        cursor = cursor * angles + digit
    return cursor
