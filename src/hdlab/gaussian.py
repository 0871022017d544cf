"""Closed forms for the planar Gaussian kernel family and its identities.

Four kernels: ``g`` (the Gaussian exp(-pi |x|^2)), its two partial
derivatives ``h1``/``h2``, and its Laplacian ``k``.  Dilation follows
``kernel_t(x) = t^{-2} kernel(x/t)``; Fourier transforms follow
``hat(kernel_t)(xi) = hat(kernel)(t xi)``.

Each kernel is a sum of products a(v1) b(v2) of per-axis factors of
G(v) = exp(-pi v^2): g = G(x)G, h1 = (-2 pi v G)(x)G, h2 = G(x)(-2 pi v G)
and k = ((4 pi^2 v^2 - 2 pi) G)(x)G + G(x)((4 pi^2 v^2 - 2 pi) G).  So is
each periodisation, midpoint sum or circle-node sum of one (``_axis_terms``).

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
_RING = 2  # 5 images per axis, the 5 x 5 images that _check_probe's tail test assumes
_INTEGRAL_NODES = 512  # per axis, of kernel_integral's midpoint rule


@dataclass(frozen=True)
class KernelSpec:
    family: str
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not self.scale > 0:
            raise ValueError("kernel scale must be positive")


def gauss1(x, a):
    return np.exp(-np.pi * np.minimum((x / a) ** 2, 700.0 / np.pi)) / a


def _axis_terms(family: str, v1, v2) -> list:
    """The unit-scale kernel as [(a(v1), b(v2)), ...]: it is sum a * b."""
    g1 = gauss1(v1, 1.0)
    g2 = gauss1(v2, 1.0)
    if family == "g":
        return [(g1, g2)]
    if family == "h1":
        return [(-2.0 * np.pi * v1 * g1, g2)]
    if family == "h2":
        return [(g1, -2.0 * np.pi * v2 * g2)]
    return [((4.0 * np.pi**2 * v1 * v1 - 2.0 * np.pi) * g1, g2),
            (g1, (4.0 * np.pi**2 * v2 * v2 - 2.0 * np.pi) * g2)]


def eval_kernel(spec: KernelSpec, x) -> np.ndarray:
    """Pointwise value of the dilated kernel; ``x`` has shape (..., 2)."""
    x = np.asarray(x, dtype=np.float64)
    t = spec.scale
    terms = _axis_terms(spec.family, x[..., 0] / t, x[..., 1] / t)
    return sum(a * b for a, b in terms) / (t * t)


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


def kernel_integral(spec: KernelSpec) -> float:
    """Plane integral by midpoint quadrature on an auto-sized window.

    The window is sized so the kernel magnitude at its boundary is
    below 1e-12; g integrates to 1, the others to 0.
    """
    t = spec.scale
    side = 24.0 * t
    h = side / _INTEGRAL_NODES
    v = ((np.arange(_INTEGRAL_NODES) + 0.5) * h - side / 2) / t
    terms = _axis_terms(spec.family, v, v)
    return float(sum(a.sum() * b.sum() for a, b in terms) * h * h / (t * t))


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
    t = spec.scale
    w = _wrapped_coords(side, n, offset)
    v = (w + side * np.arange(-_RING, _RING + 1)[:, None]) / t
    out = sum(np.outer(a.sum(axis=0), b.sum(axis=0))
              for a, b in _axis_terms(spec.family, v, v))
    return PlanarGrid(side, step, out / (t * t), PERIODIC)


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
    # periodisation truncated at 5 images per axis, the 5 x 5 images: require
    # the dropped images, at distance >= 2*side, to be below 1e-12 in magnitude
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
