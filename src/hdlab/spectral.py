"""Spectral evaluation engine for the smoothed pair and box forms.

The sharp and Monte Carlo kernels read f bilinearly, so on the lattice a
smoothed form sums over offsets d with closed-form tent weights
``c_d = integral of slot_kernel(y) tent_d(y) dy`` (erf expressions; ``_erf``
is a NumPy port of Cephes, so the package needs no SciPy).  The slot kernel
is a Gaussian on a ring of circle nodes (``ring_tents``); the box form's
plain Gaussian is the ring of radius 0 with one node (``ball_tents``).

One-slot forms are the pair correlation a(d) = h^2 sum_x f(x) f(x + dh)
(``pair_spectrum``) times the tent weights, exact for 0/1 pixel grids up to
round-off.  Two-slot forms read offset spectra ``P[d] = |FFT(f . f(.+dh))|^2``,
stored for half the offsets as P[-d] = P[d] (``OffsetTable``), paired with
the tent weights in one slot and with a radial weight (the kernel transform
times sigma-hat) in the other.  That spectral slot is a midpoint rule: it
leaves out the tent's transfer factor prod_i sinc^2(xi_i h), the leading
error at small lambda / h.  The binning, the zero-frequency cell (its weight
averaged over a sub-sampled cell, so vanishing Laplacian weights keep its
mass) and the outer scale quadrature add smaller ones.  The table stores
only the |xi| bins that hold a lattice point, so it has no zero column.
Radial weights below the smallest normal float32 enter its product as 0:
subnormals slow a float32 product and add less than its round-off.  The
product runs in blocks of a fixed row count, so a row rounds alike in a
table cropped to the support and in one over the whole window.

Forms come in derivative pairs: the Laplacian slot is the spectral slot
(weight ``-khat``) or a tent slot (weights ``-2 pi s dc_d/ds``), both the
scale derivative of one functional, so telescoping sums over a matched pair
are exact up to the outer quadrature.  Weights carry T outer scale nodes on
their last axis and one product ``P @ W`` reads the table once per batch;
``counting._form_values`` cuts T so that each (offsets^2 x T),
(offsets x angles x T) or (bins x T) block stays within
``_kernels.STACK_ELEMENTS`` elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import support_box

_SQPI = math.sqrt(math.pi)
_CELL_SUB = 12
_NBINS = 2048  # |xi| bins of the offset table's power spectra, occupied ones stored
_ROW_BLOCK = 128  # table rows per float32 product in ``assemble``


# ---------------------------------------------------------------------------
# erf: the rational approximations of Cephes ndtr.c (S. L. Moshier, "Methods
# and Programs for Mathematical Functions", 1989), which scipy.special.erf
# also evaluates.  Coefficients highest degree first; the leading 1 of U and
# Q is implicit.

_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(x, coef, monic):
    """Cephes polevl (``monic`` False) or p1evl (True) at x: one new array,
    then Horner steps in place."""
    acc = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def _erf(x):
    """erf(x) elementwise, as Cephes evaluates it.

    |x| <= 1: x T(x^2) / U(x^2).  1 < |x| < 6: 1 - exp(-x^2) P(|x|) / Q(|x|)
    with the sign of x.  |x| >= 6: +-1, since erfc(6) = 2.2e-17 is below half
    an ulp of 1.  Each branch sees only its own elements, so huge, infinite
    and NaN inputs raise no floating-point warning; NaN maps to NaN and
    the sign of zero is kept.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.copysign(np.ones_like(flat), flat)
    ax = np.abs(flat)
    small = ax <= 1.0
    xs = flat[small]
    z = xs * xs
    y = _horner(z, _ERF_T, False)
    y *= xs
    y /= _horner(z, _ERF_U, True)
    out[small] = y
    mid = ~(small | (ax >= 6.0))  # NaN goes here and stays NaN
    a = ax[mid]
    z = a * a
    np.negative(z, out=z)
    np.exp(z, out=z)
    y = _horner(a, _ERFC_P, False)
    y *= z
    y /= _horner(a, _ERFC_Q, True)
    np.subtract(1.0, y, out=y)
    out[mid] = np.copysign(y, flat[mid], out=y)
    return out.reshape(x.shape)


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

    The second difference of an antiderivative of the cdf of g1_a, which
    takes ``_erf``.  ``x`` steps by h along its last axis; ``a`` broadcasts
    against it.
    """
    k = _SQPI / a

    def anti(u):  # antiderivative of the cdf of g1_a
        ku = k * u
        return 0.5 * u + 0.5 * (u * _erf(ku) + np.exp(-np.minimum(ku * ku, 700.0)) / (k * _SQPI))

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

    |xi| runs over ``_NBINS`` equal bins up to its largest value on the
    torus, and only the B bins that hold a lattice point are stored, in
    increasing order: ``xi_bar`` has no empty bin and ``power`` no zero
    column.
    """

    step: float
    torus_side: float          # padded side R2
    offsets: np.ndarray        # 1-d offsets in nodes, -(e-1) .. e-1
    xi_bar: np.ndarray         # (B,) centroid of |xi| in each occupied bin
    power: np.ndarray          # ((nd*nd + 1) / 2, B) float32, nd = 2e - 1, zero mode excluded
    zero_mode: np.ndarray      # ((nd*nd + 1) / 2,) |FFT(m_d)(0)|^2


def build_offset_table(values: np.ndarray, step: float, pad: int) -> OffsetTable:
    """One 2-d transform of the padded grid per stored non-empty lattice
    offset: at most (nd^2 + 1) / 2, nd = 2e - 1 for a support extent of e
    nodes (the other half are mirror images).  Each is the rfft2 sequence,
    a row rfft then a column fft, with the row pass run on the live rows of
    the offset product only; the result is rfft2's bit for bit.

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
    # keep the occupied bins only, in their order: each stored column sums
    # the same lattice points in the same order as a full-width bincount
    occupied, binidx = np.unique(binidx, return_inverse=True)
    nbins = len(occupied)
    wmult = mult.ravel()
    xi_bar = np.bincount(binidx, weights=(xi * mult).ravel(), minlength=nbins)
    xi_bar /= np.bincount(binidx, weights=wmult, minlength=nbins)
    e = max(support_extent(values), 1)
    offs = np.arange(-(e - 1), e)
    nd = len(offs)
    rows = (nd * nd + 1) // 2
    power = np.zeros((rows, nbins), dtype=np.float32)
    zero = np.zeros(rows)
    buf = np.zeros((n, n2))
    col = np.zeros((n2, n2 // 2 + 1), dtype=np.complex128)
    hh = step * step
    for k in range(rows):
        da, db = offs[k // nd], offs[k % nd]
        sa = slice(max(0, -da), min(n, n - da))
        sa2 = slice(max(0, da), min(n, n + da))
        sb = slice(max(0, -db), min(n, n - db))
        sb2 = slice(max(0, db), min(n, n + db))
        m = values[sa, sb] * values[sa2, sb2]
        live = np.flatnonzero(m.any(axis=1))
        if not len(live):
            continue
        # rfft2 is a row rfft then a column fft; rows of zeros transform
        # to zeros, so the row pass runs on the live rows only
        r0, r1 = sa.start + live[0], sa.start + live[-1] + 1
        buf[sa, sb] = m
        col[r0:r1] = np.fft.rfft(buf[r0:r1], axis=1)
        buf[sa, sb] = 0.0
        fm = np.fft.fft(col, axis=0) * hh
        col[r0:r1] = 0.0
        pm = (fm.real**2 + fm.imag**2).ravel()
        zero[k] = pm[0]
        pm *= wmult
        pm[0] = 0.0
        power[k] = np.bincount(binidx, weights=pm, minlength=nbins)
    return OffsetTable(step, r2, offs, xi_bar, power, zero)


# ---------------------------------------------------------------------------
# tent weights for the quadrature slot, T scales at a time


def ring_tents(offsets: np.ndarray, step: float, lam: float, scales, angles: int,
               deriv: bool = False) -> np.ndarray:
    """Tent weights of sigma_lam * g_s (equal-weight circle nodes) at the
    offsets d = (offsets[a], offsets[b]) * step, flat index a nd + b.

    Returns an (offsets^2, T) array for the T scales s, or with ``deriv``
    their derivatives d/ds.  The offsets are symmetric about 0.  The
    Gaussian-tent profiles form (T, angles, offsets + 2) blocks; for an
    even angle count only the nodes on a quarter turn are evaluated, and
    the others are their mirror images.
    """
    x = offsets * step
    s = np.asarray(scales, dtype=np.float64)[:, None, None]
    th = 2.0 * np.pi * np.arange(angles) / angles
    ux = x[None, :] - lam * np.cos(th)[:, None]

    def profiles(fn):
        """Profiles at the cos and at the sin offsets; for 4 | angles,
        sin theta_j = cos theta_(j - angles/4), so the second are the first
        a quarter turn on."""
        p = half_turn(fn, ux, True)
        if angles % 4:
            return p, half_turn(fn, x[None, :] - lam * np.sin(th)[:, None], False)
        return p, np.roll(p, angles // 4, axis=1)

    def half_turn(fn, u, flips):
        """fn on the rows of u, evaluated for theta in [0, pi/2] only when
        angles is even.  The offsets are symmetric and fn is even, so a row
        whose ring shift changes sign is an earlier row reversed along the
        offset axis.  theta_(j + angles/2) = theta_j + pi flips the sign of
        cos and sin; theta_(angles/2 - j) = pi - theta_j flips cos only
        (``flips``) and leaves sin."""
        if angles % 2:
            return fn(u, s, step)
        half, quarter = angles // 2, angles // 4
        p = fn(u[:quarter + 1], s, step)
        mirror = p[:, half - quarter - 1:0:-1]
        p = np.concatenate([p, mirror[..., ::-1] if flips else mirror], axis=1)
        return np.concatenate([p, p[..., ::-1]], axis=1)

    gx, gy = profiles(gauss_tent)
    if not deriv:
        c = np.matmul(gx.transpose(0, 2, 1), gy)
    else:
        dgx, dgy = profiles(gauss_tent_da)
        c = np.matmul(dgx.transpose(0, 2, 1), gy) + np.matmul(gx.transpose(0, 2, 1), dgy)
    return (c / angles).reshape(len(s), -1).T


def ball_tents(offsets: np.ndarray, step: float, scales, deriv: bool = False) -> np.ndarray:
    """Tent weights of the plain Gaussians g_s centred at the origin.

    The ring of radius 0 with one node; same layout as ``ring_tents``.
    """
    return ring_tents(offsets, step, 0.0, scales, 1, deriv)


# ---------------------------------------------------------------------------
# assembly


def assemble(tab: OffsetTable, tent_weights: np.ndarray, bin_weights: np.ndarray,
             zero_weights: np.ndarray) -> np.ndarray:
    """sum_d C[d, t] [ sum_b P(d, b) W[b, t] + P0(d) w0[t] ] / R2^2 for each t.

    ``tent_weights`` C is (offsets^2, T), ``bin_weights`` W is (bins, T)
    and ``zero_weights`` w0 has T entries.  The table stores each pair
    P[d] = P[-d] once, so C[k] + C[nd^2 - 1 - k] multiplies stored row k,
    and the middle row (d = 0) takes its own weight once.  One float32
    product ``P @ W``, in blocks of ``_ROW_BLOCK`` rows, reads the table once
    for all T columns; weights below the smallest normal float32 enter it
    as 0.
    """
    half = len(tab.power)
    folded = tent_weights[:half].copy()
    folded[:-1] += tent_weights[:half - 1:-1]
    # subnormals slow a float32 product and add less than its round-off
    w = bin_weights.astype(np.float32, order="C")
    w[np.abs(w) < np.finfo(np.float32).tiny] = 0.0
    # BLAS picks its kernel, and so its rounding, by the shape of the whole
    # product: blocks of a fixed row count, the last one zero-filled, give
    # a row the same bits whatever the table's row count and the row's place
    vals = np.empty((-(-half // _ROW_BLOCK) * _ROW_BLOCK, w.shape[1]), dtype=np.float32)
    for r0 in range(0, half, _ROW_BLOCK):
        block = tab.power[r0:r0 + _ROW_BLOCK]
        if len(block) < _ROW_BLOCK:
            block = np.concatenate([block, np.zeros((_ROW_BLOCK - len(block), block.shape[1]),
                                                    dtype=np.float32)])
        np.matmul(block, w, out=vals[r0:r0 + _ROW_BLOCK])
    vals = vals[:half] + tab.zero_mode[:, None] * zero_weights
    return np.einsum("dt,dt->t", folded, vals) / tab.torus_side**2


def pair_spectrum(values: np.ndarray, step: float, periodic: bool) -> np.ndarray:
    """Pair correlation a(d) = h^2 sum_x f(x) f(x + dh) at index d mod M of an
    M x M torus, by Wiener-Khinchin (irfft2 of |rfft2|^2); the name dates
    from when this returned |FFT f|^2.

    A periodic grid is its own torus.  A zero-extended grid's support box
    goes on a 2e-node torus, e its extent: no wrap at offsets |d_i| < e.
    """
    buf = values
    if not periodic:
        i0, i1, j0, j1 = support_box(values) or (0, 0, 0, 0)
        e = max(i1 - i0, j1 - j0, 1)
        buf = np.zeros((2 * e, 2 * e))
        buf[:i1 - i0, :j1 - j0] = values[i0:i1, j0:j1]
    fm = np.fft.rfft2(buf)
    return np.fft.irfft2(fm.real**2 + fm.imag**2, s=buf.shape) * (step * step)


def cell_radii(r2: float) -> np.ndarray:
    """Sub-sampled radii of the zero-frequency cell of a torus of side r2."""
    q = ((np.arange(_CELL_SUB) + 0.5) / _CELL_SUB - 0.5) / r2
    qx, qy = np.meshgrid(q, q, indexing="ij")
    return np.sqrt(qx * qx + qy * qy).ravel()
