"""Quadrature model of the normalised circle measure and its smoothings.

The measure is discretised by M equispaced unit vectors with equal weights
1/M (trapezoid rule on the circle, spectrally accurate for smooth
integrands).  Dilation by ``lam`` scales the nodes, not the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import circle_angles
from .gaussian import KernelSpec, _axis_terms, eval_kernel
from .grid import ZERO, PlanarGrid

DEFAULT_NODES = 256


@dataclass(frozen=True)
class CircleQuadrature:
    node_count: int = DEFAULT_NODES
    dilation: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.node_count < 4:
            raise ValueError("need at least 4 quadrature nodes")
        if not self.dilation > 0:
            raise ValueError("dilation must be positive")

    def angles(self) -> np.ndarray:
        return circle_angles(self.node_count) + self.phase

    def nodes(self) -> np.ndarray:
        """(M, 2) array of points on the dilated circle."""
        th = self.angles()
        return self.dilation * np.stack([np.cos(th), np.sin(th)], axis=-1)


@dataclass(frozen=True)
class SmoothedSphere:
    grid: PlanarGrid
    under_resolved: bool


def smooth_sphere_value(q: CircleQuadrature, kernel: KernelSpec, x) -> np.ndarray:
    """(sigma_lam * kernel)(x) by the exact node sum; x has shape (..., 2)."""
    x = np.asarray(x, dtype=np.float64)
    nodes = q.nodes()
    diffs = x[..., None, :] - nodes
    return eval_kernel(kernel, diffs).mean(axis=-1)


def smooth_sphere(q: CircleQuadrature, kernel: KernelSpec, side: float,
                  step: float) -> SmoothedSphere:
    """Sample (sigma_lam * kernel) on a zero-extended grid, centred in the window.

    Per kernel term a (x) b the node sum is one (n x M) @ (M x n) product
    A B^T / M, with A[i, j] = a((x_i - w_j1) / t) and B[i, j] = b((x_i - w_j2) / t)
    for the nodes w_j.  The result is flagged under-resolved when the node
    spacing on the circle exceeds four kernel widths.
    """
    n = int(round(side / step))
    t = kernel.scale
    under = t < 2.0 * math.pi * q.dilation / (4.0 * q.node_count)
    x = (np.arange(n) + 0.5) * step - side / 2
    nodes = q.nodes()
    terms = _axis_terms(kernel.family, (x[:, None] - nodes[:, 0]) / t,
                        (x[:, None] - nodes[:, 1]) / t)
    vals = sum(a @ b.T for a, b in terms) / (q.node_count * t * t)
    return SmoothedSphere(PlanarGrid(side, step, vals, ZERO), under)


def sphere_fourier(q: CircleQuadrature, xi) -> np.ndarray:
    """Transform of the dilated measure: (1/M) sum_j exp(-2 pi i lam w_j . xi)."""
    xi = np.asarray(xi, dtype=np.float64)
    nodes = q.nodes()
    phases = xi[..., None, :] * nodes
    return np.exp(-2.0j * np.pi * phases.sum(axis=-1)).mean(axis=-1)


def sphere_fourier_radial(q: CircleQuadrature, u) -> np.ndarray:
    """Radial profile of the transform, evaluated along the first axis.

    Valid as a radial object while ``2 pi lam u`` stays safely below the
    node count; chunked so large tables do not allocate M copies at once.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    cosang = np.cos(q.angles())
    out = np.zeros_like(u)
    for lo in range(0, len(cosang), 64):
        block = cosang[lo:lo + 64]
        out += np.cos(2.0 * np.pi * q.dilation * u[..., None] * block).sum(axis=-1)
    return out / q.node_count


def decay_envelope(q: CircleQuadrature, radii) -> float:
    """max over the radii of |sigma-hat| sqrt(|xi|) (dilation fixed at 1)."""
    vals = np.abs(sphere_fourier_radial(q, np.asarray(radii, dtype=np.float64)))
    return float(np.max(vals * np.sqrt(np.asarray(radii))))


def lower_bound_constant(node_count: int = DEFAULT_NODES, radial_steps: int = 801,
                         angle_steps: int = 8):
    """Empirical minimum of (sigma * g) over the closed ball of radius 2.

    Returns (minimum, radius attaining it).  The smoothed measure is
    radially symmetric up to quadrature error, so a polar sweep suffices.
    """
    q = CircleQuadrature(node_count, 1.0)
    g = KernelSpec("g", 1.0)
    radii = np.linspace(0.0, 2.0, radial_steps)
    angles = np.linspace(0.0, 2.0 * np.pi, angle_steps, endpoint=False)
    best = math.inf
    best_r = 0.0
    for ang in angles:
        pts = np.stack([radii * math.cos(ang), radii * math.sin(ang)], axis=-1)
        vals = smooth_sphere_value(q, g, pts)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_r = float(radii[i])
    return best, best_r


# ---------------------------------------------------------------------------
# Gaussian domination: (sigma_lam * g_{t lam})(x) <= C eps^-3 I(x) with
# I(x) = integral over gamma >= 1 of g_{s gamma}(x) dgamma / gamma^2 and
# s tied to the scale band [theta t lam, e theta t lam], theta = 1/(10 e)

THETA = 0.1 / math.e
_GAMMA_MAX = 2e5  # upper end of the gamma integral


def domination_integral(x, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced Simpson sums of the dominating scale integral on 385 and
    769 nodes, from one evaluation: the 385-node rule reads every other node."""
    x = np.asarray(x, dtype=np.float64)
    u = np.linspace(0.0, math.log(_GAMMA_MAX), 769)
    r2 = (x**2).sum(axis=-1)[..., None]
    sg = s * np.exp(u)
    vals = np.exp(-np.pi * np.minimum(r2 / sg**2, 700.0)) / sg**2
    sums = []
    for us, vs in ((u[::2], vals[..., ::2]), (u, vals)):
        w = np.full(len(us), 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= (us[1] - us[0]) / 3.0
        # dgamma/gamma^2 = exp(-u) du in log coordinates
        sums.append((vs * (w * np.exp(-us))).sum(axis=-1))
    return tuple(sums)


@dataclass(frozen=True)
class DominationResult:
    holds: bool
    margin: float
    status: str  # "ok" | "inconclusive"


def gaussian_domination_check(lam: float, t: float, eps: float, points,
                              constant: float, node_count: int = DEFAULT_NODES) -> DominationResult:
    """Check the pointwise Gaussian domination at the sample points."""
    if not 0 < eps <= t <= 1:
        raise ValueError("need 0 < eps <= t <= 1")
    pts = np.asarray(points, dtype=np.float64)
    q = CircleQuadrature(node_count, lam)
    lhs = smooth_sphere_value(q, KernelSpec("g", t * lam), pts)
    s = THETA * t * lam
    coarse, fine = domination_integral(pts, s)
    scale = np.maximum(np.abs(fine), 1e-300)
    if np.max(np.abs(fine - coarse) / scale) > 1e-4:
        return DominationResult(False, 0.0, "inconclusive")
    rhs = constant * eps**-3 * fine
    margin = float(np.min(rhs / np.maximum(lhs, 1e-300)))
    return DominationResult(margin >= 1.0, margin, "ok")
