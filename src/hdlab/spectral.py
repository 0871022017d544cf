"""Spectral evaluation engine for the smoothed pair and box forms.

Smoothed counting-type integrals are assembled from two ingredients:

* a radial weight acting on the frequency lattice of a zero-padded torus
  (the transform of the slot kernel, optionally times the circle-measure
  transform), applied to binned power spectra;
* for two-slot forms, offset spectra ``P[d] = |FFT(f . f(.+dh))|^2`` over
  the lattice offsets d, stored for half of them because P[-d] = P[d]
  (``OffsetTable``), combined with closed-form tent weights
  ``c_d = integral of slot_kernel(y) tent_d(y) dy`` (erf expressions).
  The slot kernel is a Gaussian on a ring of circle nodes; the plain
  Gaussian of the box form is the ring of radius 0 with one node.

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

``counting._form_values`` pairs these ingredients.  Every
function here takes a batch of T outer scale nodes on its last (tent and
bin weights) or first (lattice weights) axis and returns T values: one
matrix product ``P @ W`` reads the offset table once per batch instead of
once per node.  A single smoothed value is the T = 1 case.  Callers cut T
so that each (offsets^2 x T), (offsets x angles x T), (bins x T) or
(lattice x T) block stays within ``_kernels.STACK_ELEMENTS`` elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from ._kernels import support_box

_SQPI = math.sqrt(math.pi)
_CELL_SUB = 12
_NBINS = 2048  # |xi| bins of the offset table's power spectra


# ---------------------------------------------------------------------------
# 1-d Gaussian/tent building blocks (dilation g1_a(u) = exp(-pi u^2/a^2)/a)


def gauss1(x, a):
    return np.exp(-np.pi * np.minimum((x / a) ** 2, 700.0 / np.pi)) / a


def _lattice_second_difference(fn, x, h):
    """v(x + h) - 2 v(x) + v(x - h) with v = fn(u), u on the lattice x.

    The last axis of ``x`` steps by h, so x - h and x + h are neighbouring
    lattice points: fn is evaluated once per point of the lattice extended
    by one node at each end.
    """
    v = fn(np.concatenate([x[..., :1] - h, x, x[..., -1:] + h], axis=-1))
    return v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]


def gauss_tent(x, a, h):
    """(g1_a * tent_h)(x) with tent(u) = max(0, 1 - |u|/h).

    ``x`` steps by h along its last axis; ``a`` broadcasts against it.
    """
    k = _SQPI / a

    def anti(u):  # antiderivative of the cdf of g1_a
        ku = k * u
        return 0.5 * u + 0.5 * (u * erf(ku) + np.exp(-np.minimum(ku * ku, 700.0)) / (k * _SQPI))

    return _lattice_second_difference(anti, x, h) / h


def gauss_tent_da(x, a, h):
    """d/da of gauss_tent; second difference of the Gaussian itself."""
    return a * _lattice_second_difference(lambda u: gauss1(u, a), x, h) / (2.0 * math.pi * h)


# ---------------------------------------------------------------------------
# offset spectra table


def support_extent(values: np.ndarray) -> int:
    """Side in nodes of the bounding square of the support (0 if empty)."""
    box = support_box(values)
    if box is None:
        return 0
    i0, i1, j0, j1 = box
    return max(i1 - i0, j1 - j0)


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
    """Binned power spectra of the offset products of one grid.

    Offsets d = (offsets[a], offsets[b]) have the flat index k = a nd + b,
    nd = len(offsets).  The offsets run over -(e-1) .. e-1 for a support
    extent of e nodes: beyond, m_d = f . f(. + d) vanishes.  Since m_-d is
    m_d translated by -d, P[-d] = P[d], and -d has the mirror index
    nd^2 - 1 - k.  Only the rows up to the middle one (d = 0,
    k = (nd^2 - 1) / 2) are stored.
    """

    step: float
    torus_side: float          # padded side R2
    offsets: np.ndarray        # 1-d offsets in nodes, -(e-1) .. e-1
    xi_bar: np.ndarray         # per-bin centroid of |xi|
    power: np.ndarray          # ((nd*nd + 1) / 2, _NBINS) float32, nd = 2e - 1, zero mode excluded
    zero_mode: np.ndarray      # ((nd*nd + 1) / 2,) |FFT(m_d)(0)|^2


def build_offset_table(values: np.ndarray, step: float, pad: int) -> OffsetTable:
    """One rfft2 per stored non-empty lattice offset: at most (nd^2 + 1) / 2
    transforms of the padded grid, nd = 2e - 1 for a support extent of e
    nodes (the other half are mirror images).

    The grid is zero-extended to ``pad`` times its side; ``counting.ring_pad``
    picks the factor that resolves the spectrum of the support and keeps
    the smoothed correlations free of wrap-around.
    """
    n = values.shape[0]
    n2 = pad * n
    r2 = n2 * step
    xi, mult = frequency_lattice(n2, r2)
    ximax = float(xi.max()) * (1.0 + 1e-12)
    binidx = np.minimum((xi / ximax * _NBINS).astype(np.int64), _NBINS - 1).ravel()
    wmult = mult.ravel()
    cnt = np.bincount(binidx, weights=wmult, minlength=_NBINS)
    xi_bar = np.bincount(binidx, weights=(xi * mult).ravel(), minlength=_NBINS)
    xi_bar = np.where(cnt > 0, xi_bar / np.maximum(cnt, 1e-300), 0.0)
    e = max(support_extent(values), 1)
    offs = np.arange(-(e - 1), e)
    nd = len(offs)
    rows = (nd * nd + 1) // 2
    power = np.zeros((rows, _NBINS), dtype=np.float32)
    zero = np.zeros(rows)
    buf = np.zeros((n2, n2))
    hh = step * step
    for k in range(rows):
        da, db = offs[k // nd], offs[k % nd]
        sa = slice(max(0, -da), min(n, n - da))
        sa2 = slice(max(0, da), min(n, n + da))
        sb = slice(max(0, -db), min(n, n - db))
        sb2 = slice(max(0, db), min(n, n + db))
        m = values[sa, sb] * values[sa2, sb2]
        if not m.any():
            continue
        buf[sa, sb] = m
        fm = np.fft.rfft2(buf) * hh
        buf[sa, sb] = 0.0
        pm = (fm.real**2 + fm.imag**2).ravel()
        zero[k] = pm[0]
        pm *= wmult
        pm[0] = 0.0
        power[k] = np.bincount(binidx, weights=pm, minlength=_NBINS)
    return OffsetTable(step, r2, offs, xi_bar, power, zero)


# ---------------------------------------------------------------------------
# tent weights for the quadrature slot, T scales at a time


def ring_tents(tab: OffsetTable, lam: float, scales, angles: int,
               deriv: bool = False) -> np.ndarray:
    """Tent weights of sigma_lam * g_s (equal-weight circle nodes).

    Returns an (offsets^2, T) array for the T scales s, or with ``deriv``
    their derivatives d/ds.  The Gaussian-tent profiles form
    (T, angles, offsets + 2) blocks.
    """
    x = tab.offsets * tab.step
    s = np.asarray(scales, dtype=np.float64)[:, None, None]
    th = 2.0 * np.pi * np.arange(angles) / angles
    ux = x[None, :] - lam * np.cos(th)[:, None]

    def profiles(fn):
        """Profiles at the cos and at the sin offsets; for 4 | angles,
        sin theta_j = cos theta_(j - angles/4), so the second are the first
        a quarter turn on."""
        p = half_turn(fn, ux)
        if angles % 4:
            return p, half_turn(fn, x[None, :] - lam * np.sin(th)[:, None])
        return p, np.roll(p, angles // 4, axis=1)

    def half_turn(fn, u):
        """fn on the rows of u; for even angles, theta_(j + angles/2) is
        theta_j + pi, which flips the sign of the ring shift.  The offsets
        are symmetric and fn is even, so those rows are the first half
        reversed along the offset axis."""
        if angles % 2:
            return fn(u, s, tab.step)
        p = fn(u[:angles // 2], s, tab.step)
        return np.concatenate([p, p[..., ::-1]], axis=1)

    gx, gy = profiles(gauss_tent)
    if not deriv:
        c = np.matmul(gx.transpose(0, 2, 1), gy)
    else:
        dgx, dgy = profiles(gauss_tent_da)
        c = np.matmul(dgx.transpose(0, 2, 1), gy) + np.matmul(gx.transpose(0, 2, 1), dgy)
    return (c / angles).reshape(len(s), -1).T


def ball_tents(tab: OffsetTable, scales, deriv: bool = False) -> np.ndarray:
    """Tent weights of the plain Gaussians g_s centred at the origin.

    The ring of radius 0 with one node; same layout as ``ring_tents``.
    """
    return ring_tents(tab, 0.0, scales, 1, deriv)


# ---------------------------------------------------------------------------
# assembly


def assemble(tab: OffsetTable, tent_weights: np.ndarray, bin_weights: np.ndarray,
             zero_weights: np.ndarray) -> np.ndarray:
    """sum_d C[d, t] [ sum_b P(d, b) W[b, t] + P0(d) w0[t] ] / R2^2 for each t.

    ``tent_weights`` C is (offsets^2, T), ``bin_weights`` W is (bins, T)
    and ``zero_weights`` w0 has T entries.  The table stores each pair
    P[d] = P[-d] once, so C[k] + C[nd^2 - 1 - k] multiplies stored row k,
    and the middle row (d = 0) takes its own weight once.  One float32
    product ``P @ W`` reads the table once for all T columns.
    """
    half = len(tab.power)
    folded = tent_weights[:half].copy()
    folded[:-1] += tent_weights[:half - 1:-1]
    vals = tab.power @ bin_weights.astype(np.float32)
    vals = vals + tab.zero_mode[:, None] * zero_weights
    return np.einsum("dt,dt->t", folded, vals) / tab.torus_side**2


def pair_spectrum(values: np.ndarray, step: float, pad: int):
    """|FFT(f)|^2 on the padded torus with the padded |xi| lattice.

    Used by single-slot forms, which need no offset table.
    """
    n = values.shape[0]
    n2 = pad * n
    r2 = n2 * step
    buf = np.zeros((n2, n2))
    buf[:n, :n] = values
    fm = np.fft.rfft2(buf) * (step * step)
    power = fm.real**2 + fm.imag**2
    xi, mult = frequency_lattice(n2, r2)
    return power, xi, mult, r2


def pair_value(power, mult, r2, weights, zero_weights) -> np.ndarray:
    """sum over the padded lattice of |F|^2 W_t(|xi|), zero cell averaged.

    ``weights`` stacks T lattice weights (T, *power.shape); ``zero_weights``
    holds the T zero-cell averages that replace W_t(0).
    """
    total = (power * weights * mult).sum(axis=(1, 2)) - power[0, 0] * weights[:, 0, 0]
    total += power[0, 0] * zero_weights
    return total / r2**2


def cell_radii(r2: float) -> np.ndarray:
    """Sub-sampled radii of the zero-frequency cell of a torus of side r2."""
    q = ((np.arange(_CELL_SUB) + 0.5) / _CELL_SUB - 0.5) / r2
    qx, qy = np.meshgrid(q, q, indexing="ij")
    return np.sqrt(qx * qx + qy * qy).ravel()
