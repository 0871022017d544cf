"""Spectral evaluation engine for the smoothed pair and box forms.

Smoothed counting-type integrals are assembled from two ingredients:

* a radial weight acting on the frequency lattice of a zero-padded torus
  (the transform of the slot kernel, optionally times the circle-measure
  transform), applied to binned power spectra;
* for two-slot forms, offset spectra ``P[d] = |FFT(f . f(.+dh))|^2`` over
  all lattice offsets d, combined with closed-form tent weights
  ``c_d = integral of slot_kernel(y) tent_d(y) dy`` (erf expressions).

For 0/1 pixel grids the slice profile in the quadrature slot is exactly
piecewise bilinear with lattice knots, so the tent reconstruction is exact
and only the frequency binning, the zero-frequency cell and the outer scale
quadrature carry discretisation error.  The zero-frequency cell is handled
by averaging the weight over a sub-sampled cell: vanishing weights (the
Laplacian family) would otherwise lose the mass their cell carries.

Forms indexed by a smoothing slot come in derivative pairs: the slot
carrying the Laplacian kernel is either the spectral slot (weight
``-khat``) or the tent slot (weights ``-2 pi s dc_d/ds``).  Both express
the scale derivative of one functional, so telescoping sums built from a
matched pair are exact up to the outer quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

_SQPI = math.sqrt(math.pi)
_CELL_SUB = 12


# ---------------------------------------------------------------------------
# 1-d Gaussian/tent building blocks (dilation g1_a(u) = exp(-pi u^2/a^2)/a)


def gauss1(x, a):
    return np.exp(-np.pi * np.minimum((x / a) ** 2, 700.0 / np.pi)) / a


def gauss_tent(x, a, h):
    """(g1_a * tent_h)(x) with tent(u) = max(0, 1 - |u|/h)."""
    k = _SQPI / a

    def anti(u):  # antiderivative of the cdf of g1_a
        ku = k * u
        return 0.5 * u + 0.5 * (u * erf(ku) + np.exp(-np.minimum(ku * ku, 700.0)) / (k * _SQPI))

    return (anti(x + h) - 2.0 * anti(x) + anti(x - h)) / h


def gauss_tent_da(x, a, h):
    """d/da of gauss_tent; second difference of the Gaussian itself."""
    return a * (gauss1(x - h, a) - 2.0 * gauss1(x, a) + gauss1(x + h, a)) / (2.0 * math.pi * h)


# ---------------------------------------------------------------------------
# offset spectra table


def support_extent(values: np.ndarray) -> int:
    """Side in nodes of the bounding square of the support (0 if empty)."""
    rows = np.flatnonzero(values.any(axis=1))
    cols = np.flatnonzero(values.any(axis=0))
    if len(rows) == 0:
        return 0
    return int(max(rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1))


def auto_pad(values: np.ndarray, max_pad: int = 4) -> int:
    """Padding factor adapted to the support extent.

    The padded torus must be at least four support extents wide: twice to
    keep correlations wrap-free, twice more so the frequency lattice
    resolves the spectrum of the support.
    """
    extent = support_extent(values)
    if extent == 0:
        return 1
    return int(min(max_pad, max(1, math.ceil(4.0 * extent / values.shape[0]))))


def frequency_lattice(n2: int, r2: float) -> tuple[np.ndarray, np.ndarray]:
    """|xi| on the rfft2 half-lattice of an n2-node torus of side r2.

    Also returns the multiplicity of each stored frequency: 2 where rfft2
    does not store its mirror image, else 1.
    """
    kx = np.fft.fftfreq(n2, d=1.0 / n2) / r2
    ky = np.fft.rfftfreq(n2, d=1.0 / n2) / r2
    xi = np.sqrt(kx[:, None] ** 2 + ky[None, :] ** 2)
    mult = np.full(xi.shape, 2.0)
    mult[:, 0] = 1.0
    if n2 % 2 == 0:
        mult[:, -1] = 1.0
    return xi, mult


@dataclass
class OffsetTable:
    """Binned power spectra of all offset products of one grid."""

    step: float
    node_count: int
    torus_side: float          # padded side R2
    offsets: np.ndarray        # 1-d offsets in nodes, -(N-1) .. N-1
    xi_bar: np.ndarray         # per-bin centroid of |xi|
    power: np.ndarray          # (nd*nd, nbins) float32, zero mode excluded
    zero_mode: np.ndarray      # (nd*nd,) |FFT(m_d)(0)|^2


def build_offset_table(values: np.ndarray, step: float, pad: int | None = None,
                       nbins: int = 2048) -> OffsetTable:
    """One rfft2 per lattice offset; O((2N)^2) transforms of the padded grid.

    Padding keeps the frequency lattice fine enough to resolve the spectrum
    of the support (factor 4 for sets as large as the window itself).
    """
    n = values.shape[0]
    if pad is None:
        pad = auto_pad(values)
    n2 = pad * n
    r2 = n2 * step
    xi, mult = frequency_lattice(n2, r2)
    ximax = float(xi.max()) * (1.0 + 1e-12)
    binidx = np.minimum((xi / ximax * nbins).astype(np.int64), nbins - 1).ravel()
    wmult = mult.ravel()
    cnt = np.bincount(binidx, weights=wmult, minlength=nbins)
    xi_bar = np.bincount(binidx, weights=(xi * mult).ravel(), minlength=nbins)
    xi_bar = np.where(cnt > 0, xi_bar / np.maximum(cnt, 1e-300), 0.0)
    offs = np.arange(-(n - 1), n)
    nd = len(offs)
    power = np.zeros((nd * nd, nbins), dtype=np.float32)
    zero = np.zeros(nd * nd)
    buf = np.zeros((n2, n2))
    hh = step * step
    for a, da in enumerate(offs):
        sa = slice(max(0, -da), min(n, n - da))
        sa2 = slice(max(0, da), min(n, n + da))
        for b, db in enumerate(offs):
            sb = slice(max(0, -db), min(n, n - db))
            sb2 = slice(max(0, db), min(n, n + db))
            m = values[sa, sb] * values[sa2, sb2]
            if not m.any():
                continue
            buf[sa, sb] = m
            fm = np.fft.rfft2(buf) * hh
            buf[sa, sb] = 0.0
            pm = (fm.real**2 + fm.imag**2).ravel()
            zero[a * nd + b] = pm[0]
            pm *= wmult
            pm[0] = 0.0
            power[a * nd + b] = np.bincount(binidx, weights=pm, minlength=nbins)
    return OffsetTable(step, n, r2, offs, xi_bar, power, zero)


# ---------------------------------------------------------------------------
# tent weights for the quadrature slot


def ball_tents(tab: OffsetTable, scale: float, deriv: bool = False):
    """Tent weights of the plain Gaussian g_scale centred at the origin."""
    x = tab.offsets * tab.step
    g = gauss_tent(x, scale, tab.step)
    c = np.outer(g, g).ravel()
    if not deriv:
        return c, None
    dg = gauss_tent_da(x, scale, tab.step)
    dc = (np.outer(dg, g) + np.outer(g, dg)).ravel()
    return c, dc


def ring_tents(tab: OffsetTable, lam: float, scale: float, angles: int,
               deriv: bool = False):
    """Tent weights of sigma_lam * g_scale (equal-weight circle nodes)."""
    x = tab.offsets * tab.step
    th = 2.0 * np.pi * np.arange(angles) / angles
    cx = lam * np.cos(th)
    cy = lam * np.sin(th)
    gx = gauss_tent(x[:, None] - cx[None, :], scale, tab.step)
    gy = gauss_tent(x[:, None] - cy[None, :], scale, tab.step)
    c = np.einsum("am,bm->ab", gx, gy) / angles
    if not deriv:
        return c.ravel(), None
    dgx = gauss_tent_da(x[:, None] - cx[None, :], scale, tab.step)
    dgy = gauss_tent_da(x[:, None] - cy[None, :], scale, tab.step)
    dc = (np.einsum("am,bm->ab", dgx, gy) + np.einsum("am,bm->ab", gx, dgy)) / angles
    return c.ravel(), dc.ravel()


# ---------------------------------------------------------------------------
# assembly


def assemble(tab: OffsetTable, tent_weights: np.ndarray, bin_weights: np.ndarray,
             zero_weight: float) -> float:
    """sum_d c_d [ sum_b P(d,b) W(b) + P0(d) W0 ] / R2^2."""
    vals = tab.power @ bin_weights.astype(np.float32)
    vals = vals + tab.zero_mode * zero_weight
    return float(tent_weights @ vals) / tab.torus_side**2


def pair_spectrum(values: np.ndarray, step: float, pad: int | None = None):
    """|FFT(f)|^2 on the padded torus with the padded |xi| lattice.

    Used by single-slot forms, which need no offset table.
    """
    n = values.shape[0]
    if pad is None:
        pad = auto_pad(values)
    n2 = pad * n
    r2 = n2 * step
    buf = np.zeros((n2, n2))
    buf[:n, :n] = values
    fm = np.fft.rfft2(buf) * (step * step)
    power = fm.real**2 + fm.imag**2
    xi, mult = frequency_lattice(n2, r2)
    return power, xi, mult, r2


def pair_value(power, xi, mult, r2, weight_fn, zero_weight: float) -> float:
    """sum over the padded lattice of |F|^2 W(|xi|), zero cell averaged."""
    w = weight_fn(xi)
    total = float((power * w * mult).sum()) - power[0, 0] * w[0, 0]
    total += power[0, 0] * zero_weight
    return float(total / r2**2)


def cell_radii(r2: float, sub: int = _CELL_SUB) -> np.ndarray:
    """Sub-sampled radii of the zero-frequency cell of a torus of side r2."""
    q = ((np.arange(sub) + 0.5) / sub - 0.5) / r2
    qx, qy = np.meshgrid(q, q, indexing="ij")
    return np.sqrt(qx * qx + qy * qy).ravel()
