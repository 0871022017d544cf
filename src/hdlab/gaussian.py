"""Closed forms for the planar Gaussian kernel family and its identities.

Four kernels: ``g`` (the Gaussian exp(-pi |x|^2)), its two partial
derivatives ``h1``/``h2``, and its Laplacian ``k``.  Dilation follows
``kernel_t(x) = t^{-2} kernel(x/t)``; Fourier transforms follow
``hat(kernel_t)(xi) = hat(kernel)(t xi)``.

Closed forms are the source of truth; grids only enter the numerical
verification of the two convolution identities

    sum_l h^l_a * h^l_b = a b / (a^2 + b^2) k_s,   s = sqrt(a^2 + b^2)
    k_a * g_b           = a^2 / (a^2 + b^2) k_s,

which are checked on a torus against the periodised right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import PERIODIC, PlanarGrid, convolve

FAMILIES = ("g", "h1", "h2", "k")
_RING = 2  # sample_wrapped sums the 5 x 5 images that _check_probe's tail test assumes


@dataclass(frozen=True)
class KernelSpec:
    family: str
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not self.scale > 0:
            raise ValueError("kernel scale must be positive")


def eval_kernel(spec: KernelSpec, x) -> np.ndarray:
    """Pointwise value of the dilated kernel; ``x`` has shape (..., 2)."""
    x = np.asarray(x, dtype=np.float64)
    t = spec.scale
    v1 = x[..., 0] / t
    v2 = x[..., 1] / t
    r2 = v1 * v1 + v2 * v2
    e = np.exp(-np.pi * np.minimum(r2, 700.0 / np.pi))
    if spec.family == "g":
        base = e
    elif spec.family == "h1":
        base = -2.0 * np.pi * v1 * e
    elif spec.family == "h2":
        base = -2.0 * np.pi * v2 * e
    else:
        base = (4.0 * np.pi**2 * r2 - 4.0 * np.pi) * e
    return base / (t * t)


def fourier_kernel(spec: KernelSpec, xi) -> np.ndarray:
    """Fourier transform of the dilated kernel at frequencies ``xi``."""
    xi = np.asarray(xi, dtype=np.float64)
    t = spec.scale
    u1 = t * xi[..., 0]
    u2 = t * xi[..., 1]
    r2 = u1 * u1 + u2 * u2
    e = np.exp(-np.pi * r2)
    if spec.family == "g":
        return e.astype(np.complex128)
    if spec.family == "h1":
        return 2.0j * np.pi * u1 * e
    if spec.family == "h2":
        return 2.0j * np.pi * u2 * e
    return (-4.0 * np.pi**2 * r2 * e).astype(np.complex128)


def kernel_integral(spec: KernelSpec, node_count: int = 512) -> float:
    """Plane integral by midpoint quadrature on an auto-sized window.

    The window is sized so the kernel magnitude at its boundary is
    below 1e-12; g integrates to 1, the others to 0.
    """
    t = spec.scale
    side = 24.0 * t
    h = side / node_count
    x = (np.arange(node_count) + 0.5) * h - side / 2
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([X1, X2], axis=-1)
    return float(eval_kernel(spec, pts).sum() * h * h)


# ---------------------------------------------------------------------------
# convolution identities


def conv_hh_identity(alpha: float, beta: float):
    """(coefficient, scale) with sum_l h^l_a * h^l_b = coef * k_scale."""
    s2 = alpha * alpha + beta * beta
    return alpha * beta / s2, math.sqrt(s2)


def conv_kg_identity(alpha: float, beta: float):
    """(coefficient, scale) with k_a * g_b = coef * k_scale."""
    s2 = alpha * alpha + beta * beta
    return alpha * alpha / s2, math.sqrt(s2)


def _wrapped_coords(side: float, n: int, offset: float) -> np.ndarray:
    x = (np.arange(n) + offset) * (side / n)
    return (x + side / 2) % side - side / 2


def sample_wrapped(spec: KernelSpec, side: float, step: float,
                   offset: float = 0.5) -> PlanarGrid:
    """Kernel periodised over the torus [0, side)^2, centred at the origin.

    ``offset`` selects the sampling lattice: 0.5 for node centres, 1.0 for
    the lattice on which convolution outputs live.
    """
    n = int(round(side / step))
    w = _wrapped_coords(side, n, offset)
    W1, W2 = np.meshgrid(w, w, indexing="ij")
    out = np.zeros((n, n))
    for a in range(-_RING, _RING + 1):
        for b in range(-_RING, _RING + 1):
            pts = np.stack([W1 + a * side, W2 + b * side], axis=-1)
            out += eval_kernel(spec, pts)
    return PlanarGrid(side, step, out, PERIODIC)


@dataclass(frozen=True)
class IdentityCheck:
    alpha: float
    beta: float
    coefficient: float
    scale: float
    residual: float
    rhs_sup: float


def _check_probe(alpha: float, beta: float, side: float, step: float):
    s = math.hypot(alpha, beta)
    # periodisation truncated at the 5x5 ring: require the dropped images,
    # which sit at distance >= 2*side, to be below 1e-12 in magnitude
    spec = KernelSpec("k", s)
    tail = abs(float(eval_kernel(spec, np.array([2.0 * side, 0.0]))))
    if tail > 1e-12:
        raise ValueError(
            f"window side {side} too small for scales ({alpha}, {beta}): "
            f"periodisation tail {tail:.2e} exceeds 1e-12"
        )
    if min(alpha, beta) < 3.0 * step:
        raise ValueError(
            f"resolution {step} too coarse for scales ({alpha}, {beta}): "
            "sampled kernels alias above 1e-12"
        )


def verify_conv_hh(alpha: float, beta: float, side: float = 16.0,
                   step: float = 1.0 / 32.0) -> IdentityCheck:
    """Sup-norm residual of the gradient-pair convolution identity."""
    _check_probe(alpha, beta, side, step)
    coef, s = conv_hh_identity(alpha, beta)
    lhs = None
    for fam in ("h1", "h2"):
        ga = sample_wrapped(KernelSpec(fam, alpha), side, step)
        gb = sample_wrapped(KernelSpec(fam, beta), side, step)
        c = convolve(ga, gb)
        lhs = c.values if lhs is None else lhs + c.values
    rhs = coef * sample_wrapped(KernelSpec("k", s), side, step, offset=1.0).values
    return IdentityCheck(alpha, beta, coef, s,
                         float(np.max(np.abs(lhs - rhs))),
                         float(np.max(np.abs(rhs))))


def verify_conv_kg(alpha: float, beta: float, side: float = 16.0,
                   step: float = 1.0 / 32.0) -> IdentityCheck:
    """Sup-norm residual of the Laplacian-Gaussian convolution identity."""
    _check_probe(alpha, beta, side, step)
    coef, s = conv_kg_identity(alpha, beta)
    ka = sample_wrapped(KernelSpec("k", alpha), side, step)
    gb = sample_wrapped(KernelSpec("g", beta), side, step)
    c = convolve(ka, gb)
    rhs = coef * sample_wrapped(KernelSpec("k", s), side, step, offset=1.0).values
    return IdentityCheck(alpha, beta, coef, s,
                         float(np.max(np.abs(c.values - rhs))),
                         float(np.max(np.abs(rhs))))


def heat_flow_check(t: float, x, dt: float) -> float:
    """|centred difference of g_t in t minus k_t/(2 pi t)| at the point x."""
    if not 0 < dt < t / 10:
        raise ValueError("need 0 < dt < t/10")
    x = np.asarray(x, dtype=np.float64)
    plus = eval_kernel(KernelSpec("g", t + dt), x)
    minus = eval_kernel(KernelSpec("g", t - dt), x)
    rhs = eval_kernel(KernelSpec("k", t), x) / (2.0 * math.pi * t)
    return float(np.max(np.abs((plus - minus) / (2.0 * dt) - rhs)))
