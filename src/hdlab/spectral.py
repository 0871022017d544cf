"""Evaluation engine for the smoothed pair and box forms.

The sharp and Monte Carlo kernels read f bilinearly, so on the lattice a
smoothed form sums over offsets d with closed-form tent weights
``c_d = integral of slot_kernel(y) tent_d(y) dy`` (erfc expressions through
``_erfcx``, a NumPy port of Cephes, so the package needs no SciPy).  The
slot kernel is a Gaussian on a ring of circle nodes (``ring_tents``),
evaluated on a quarter turn and the offsets d >= 0 since the nodes share
the square's symmetries; the box form's plain Gaussian is the ring of
radius 0 with four nodes (``ball_tents``).  The pair correlation and the
four-point table are even, so weights are written on the stored half of
the offsets, up to d = 0, each row carrying its mirror -d as well.

One-slot forms are the pair correlation a(d) = h^2 sum_x f(x) f(x + dh)
(``pair_spectrum``) times the tent weights.  Two-slot forms contract the
four-point table Q(d1, d2) = h^2 sum_x f(x) f(x + d1 h) f(x + d2 h)
f(x + (d1 + d2) h) with tent weights in both slots (``assemble``); row d1
of Q is the pair correlation of m_d1 = f . f(. + d1 h) (``offset_products``).
Both are exact for 0/1 pixel grids up to round-off, and sums of
nonnegative terms.

Forms come in derivative pairs: the Laplacian slot takes the weights
-2 pi s dc_d/ds, so telescoping sums over a matched pair are exact up to
the outer quadrature.  Weights carry T outer scale nodes on their last axis;
``counting._form_values`` cuts T so that each (offsets^2 x T) block and
each block of ring profiles, (angles/4 + 1) x offsets per scale, stays
within ``_kernels.STACK_ELEMENTS``.

The folded profiles are the erfcx-heavy part of the tents, and the forms
of one grid ask for the same ones again: L_form's n = 1 and n = 2 share
their rings, theta_form's slots share their balls, a slot's c and dc
share those of c.  So ``_form_values`` passes the grid's cache
(``grid.PlanarGrid.cache``) as the memo of ``ring_tents`` and
``ball_tents``; the contraction and the gather are redone per call.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import circle_angles, support_box
from .gaussian import gauss1

_SQPI = math.sqrt(math.pi)
_BATCH = 64  # offset products per batched transform ...
_BATCH_POINTS = 1 << 16  # ... and torus points per batch, at least one product
_ROW_BLOCK = 128  # table rows per stored block, read by one product in ``assemble``


# ---------------------------------------------------------------------------
# erfcx from the rational approximations of Cephes ndtr.c (S. L. Moshier,
# "Methods and Programs for Mathematical Functions", 1989), which
# scipy.special.erf and erfc also evaluate.  Coefficients highest degree
# first; the leading 1 of U and Q is implicit.

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
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _horner(x, coef, monic):
    """Cephes polevl (``monic`` False) or p1evl (True) at x: one new array,
    then Horner steps in place."""
    acc = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def _erfcx(x):
    """exp(x^2) erfc(x) for x >= 0 from the Cephes forms: exp(x^2) (1 -
    erf(x)) below 1, erf(x) = x T(x^2) / U(x^2), then the forms of erfc,
    P(x) / Q(x) below 8 and R(x) / S(x) from 8 on."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    small, large = x < 1.0, x >= 8.0
    a = x[small]
    z = a * a
    erf = _horner(z, _ERF_T, False)
    erf *= a
    erf /= _horner(z, _ERF_U, True)
    out[small] = np.exp(z) * (1.0 - erf)
    for part, num, den in ((~(small | large), _ERFC_P, _ERFC_Q), (large, _ERFC_R, _ERFC_S)):
        a = x[part]
        out[part] = _horner(a, num, False) / _horner(a, den, True)
    return out


# ---------------------------------------------------------------------------
# 1-d Gaussian/tent building blocks on ``gaussian.gauss1``, the dilation
# g1_a(u) = exp(-pi u^2/a^2)/a


def _lattice_second_difference(fn, x, h):
    """(v(x + h) + v(x - h)) - 2 v(x) with v = fn(u), u on the lattice x.

    The last axis of ``x`` steps by h, so x - h and x + h are neighbouring
    lattice points: fn is evaluated once per point of the lattice extended
    by one node at each end.  The outer points are added first, so an even
    fn gives an exactly even result on a lattice symmetric about 0.
    """
    v = fn(np.concatenate([x[..., :1] - h, x, x[..., -1:] + h], axis=-1))
    return (v[..., 2:] + v[..., :-2]) - 2.0 * v[..., 1:-1]


def _gauss_tail(z):
    """exp(-z^2) - sqrt(pi) z erfc(z) for z >= 0, at relative precision in
    the tail through erfcx; 0 from z = 27 on, below the smallest subnormal."""
    out = np.zeros_like(z)
    near = z < 27.0
    a = z[near]
    out[near] = np.exp(-a * a) * (1.0 - _SQPI * a * _erfcx(a))
    return out


def gauss_tent(x, a, h):
    """(g1_a * tent_h)(x) with tent(u) = max(0, 1 - |u|/h).

    The second difference of max(u, 0) + a / (2 pi) tail(k |u|), k =
    sqrt(pi) / a, an antiderivative of the cdf of g1_a: the tail part decays
    like the Gaussian and the ramp's is 0 unless the three points straddle
    0, so a tent deep in the tail keeps its relative precision.  ``x`` steps
    by h along its last axis; ``a`` broadcasts against it.
    """
    k = _SQPI / a
    ramp = _lattice_second_difference(lambda u: np.maximum(u, 0.0), x, h)
    ramp[(x - h >= 0) | (x + h <= 0)] = 0.0
    tail = _lattice_second_difference(lambda u: _gauss_tail(k * np.abs(u)), x, h)
    return (a / (2.0 * math.pi) * tail + ramp) / h


def gauss_tent_da(x, a, h):
    """d/da of gauss_tent; second difference of the Gaussian itself."""
    return a * _lattice_second_difference(lambda u: gauss1(u, a), x, h) / (2.0 * math.pi * h)


# ---------------------------------------------------------------------------
# four-point table


def support_extent(values: np.ndarray) -> int:
    """Side in nodes of the bounding square of the support; 1 for an empty grid."""
    i0, i1, j0, j1 = support_box(values) or (0, 0, 0, 0)
    return max(i1 - i0, j1 - j0, 1)


# torus sides the FFT takes fast, 2^a 3^b 5^c up to 2^12
_FAST_SIDES = sorted(2**a * 3**b * 5**c for a in range(13) for b in range(8) for c in range(6)
                     if 2**a * 3**b * 5**c <= 1 << 12)


def _fast_size(n: int) -> int:
    return _FAST_SIDES[bisect.bisect_left(_FAST_SIDES, n)]


def offset_products(values: np.ndarray, periodic: bool = False):
    """Batches (d, spectra, torus, ext) of the products m_d = f . f(. + d)
    over one offset d of each +-d pair (m_-d is m_d translated by -d):
    ``spectra`` is the rfft2 of each m_d on the (L1, L2) ``torus``.

    A periodic grid is its own torus.  On a zero-extended grid the offsets
    are those of ``FourPointTable`` up to d = 0, the nonempty products
    cropped to their boxes and batched by size; ``ext`` holds a batch's
    largest box sides, and L_i >= 2 ext_i - 1 so no correlation wraps.
    """
    if periodic:
        n = values.shape[0]
        boxes = [(n, n, a, b) for a in range(n) for b in range(n) if (a, b) <= ((-a) % n, (-b) % n)]
        return _batches(boxes, lambda r, c, a, b: values * np.roll(values, (-a, -b), axis=(0, 1)), n)
    return _batches(*_products(values))


def _products(values):
    """(boxes, product) of a zero-extended grid: (rows, columns, a, b, first
    row, first column) of the bounding box of each nonempty m_(a, b) over
    the support box, sorted, from the support alone; ``product(*box)`` is
    m_(a, b) on its box."""
    e = support_extent(values)
    i0, _, j0, _ = support_box(values) or (0, 0, 0, 0)
    f = np.zeros((e, e))
    box = values[i0:i0 + e, j0:j0 + e]
    f[:box.shape[0], :box.shape[1]] = box
    live = np.zeros((3 * e, 3 * e), dtype=bool)
    live[e:2 * e, e:2 * e] = f != 0
    boxes = []
    for a in range(-(e - 1), 1):  # one row of offsets at a time
        b = np.arange(-(e - 1), e if a < 0 else 1)
        moved = np.lib.stride_tricks.sliding_window_view(live[e + a:2 * e + a], e, axis=1)
        m = live[None, e:2 * e, e:2 * e] & moved[:, e + b, :].transpose(1, 0, 2)
        rows, cols = m.any(axis=2), m.any(axis=1)
        k = rows.any(axis=1)
        rows, cols, b = rows[k], cols[k], b[k]
        r0, c0 = rows.argmax(axis=1), cols.argmax(axis=1)
        r1, c1 = e - rows[:, ::-1].argmax(axis=1), e - cols[:, ::-1].argmax(axis=1)
        boxes += zip((r1 - r0).tolist(), (c1 - c0).tolist(), [a] * len(b), b.tolist(),
                     r0.tolist(), c0.tolist())

    def product(r, c, a, b, r0, c0):
        return f[r0:r0 + r, c0:c0 + c] * f[r0 + a:r0 + a + r, c0 + b:c0 + b + c]

    return sorted(boxes), product


def _batches(boxes, product, side=None):
    """The batches of ``offset_products`` over boxes sorted by size, on tori
    of ``side`` or of the batch's boxes."""
    start = 0
    while start < len(boxes):
        chunk = boxes[start:start + _BATCH]
        for _ in range(2):  # the torus of up to _BATCH boxes, then the boxes it holds
            ext = (chunk[-1][0], max(c[1] for c in chunk))
            torus = (side, side) if side else (_fast_size(2 * ext[0] - 1), _fast_size(2 * ext[1] - 1))
            chunk = chunk[:max(1, _BATCH_POINTS // (torus[0] * torus[1]))]
        buf = np.zeros((len(chunk),) + torus)
        for i, box in enumerate(chunk):
            m = product(*box)
            buf[i, :m.shape[0], :m.shape[1]] = m
        yield np.array([c[2:4] for c in chunk]), np.fft.rfft2(buf), torus, ext
        start += len(chunk)


def table_size(extent: int) -> tuple[int, int]:
    """(stored rows, entries of the whole triangle, a table's most)."""
    nd = 2 * max(extent, 1) - 1
    half = (nd * nd + 1) // 2
    return half, sum((min(r0 + _ROW_BLOCK, half) - r0) * (half - r0)
                     for r0 in range(0, half, _ROW_BLOCK))


@dataclass
class FourPointTable:
    """Q(d1, d2) = h^2 sum_x f(x) f(x + d1) f(x + d2) f(x + d1 + d2) of one grid.

    Offsets d = (offsets[a], offsets[b]), -(e-1) .. e-1 for a support extent
    of e nodes, have the flat index k = a nd + b.  Q is even in each argument
    (-d has the mirror index nd^2 - 1 - k) and symmetric under the swap, so
    the upper triangle of its rows and columns up to d = 0 holds it, stored
    in blocks of ``_ROW_BLOCK`` rows packed in ``power``.  Block b holds the
    columns from ``starts[b]`` (at least its first row) on; before, its
    rows are 0.  Tent weights come on the same half rows (``ring_tents``).
    """

    step: float
    offsets: np.ndarray        # 1-d offsets in nodes, -(e-1) .. e-1
    starts: list               # first stored column of each block
    power: np.ndarray          # float32 blocks of Q, packed row-major

    def blocks(self):
        """(r0, r1, c0, block) per stored block: block[i - r0, j - c0] = Q[i, j]
        for the rows r0 <= i < r1 and the columns j >= c0."""
        half, at = len(self.offsets) ** 2 // 2 + 1, 0
        for r0, c0 in zip(range(0, half, _ROW_BLOCK), self.starts):
            r1 = min(r0 + _ROW_BLOCK, half)
            size = (r1 - r0) * (half - c0)
            yield r0, r1, c0, self.power[at:at + size].reshape(r1 - r0, half - c0)
            at += size


def build_offset_table(values: np.ndarray, step: float) -> FourPointTable:
    """The four-point table of a zero-extended grid.

    Row d1 is the pair correlation of m_d1 (``offset_products``), read at
    the offsets below the batch's extents; the rest is 0.  Q(d1, d2) is 0
    where |d2_1| is at least the row count r of m_d1's box, and the columns
    run in order of d2_1, so a block stores from (e - max r) nd on.  On an
    integer-valued grid the correlations are rounded to Q / h^2, an integer.
    """
    boxes, product = _products(values)
    e = support_extent(values)
    offs = np.arange(-(e - 1), e)
    nd = len(offs)
    half = (nd * nd + 1) // 2
    reach = np.zeros(half, dtype=np.int64)
    for r, _, a, b, _, _ in boxes:
        reach[(a + e - 1) * nd + b + e - 1] = r
    starts = [min(max(r0, (e - int(reach[r0:r0 + _ROW_BLOCK].max())) * nd), half)
              for r0 in range(0, half, _ROW_BLOCK)]
    size = sum((min(r0 + _ROW_BLOCK, half) - r0) * (half - c0)
               for r0, c0 in zip(range(0, half, _ROW_BLOCK), starts))
    tab = FourPointTable(step, offs, starts, np.zeros(size, dtype=np.float32))
    blocks = list(tab.blocks())
    ca, cb = offs[np.arange(half) // nd], offs[np.arange(half) % nd]
    integer = np.array_equal(values, np.rint(values))
    for d, spectra, torus, ext in _batches(boxes, product):
        spectra *= spectra.conj()
        corr = np.fft.irfft2(spectra, s=torus)
        read = np.flatnonzero((np.abs(ca) < ext[0]) & (np.abs(cb) < ext[1]))
        q = corr[:, ca[read] % torus[0], cb[read] % torus[1]]
        if integer:
            np.rint(q, out=q)
        q *= step * step
        rows = (d[:, 0] + e - 1) * nd + d[:, 1] + e - 1
        for b in np.unique(rows // _ROW_BLOCK):
            r0, _, c0, block = blocks[b]
            sel = rows // _ROW_BLOCK == b
            at = np.searchsorted(read, c0)
            block[np.ix_(rows[sel] - r0, read[at:] - c0)] = q[sel, at:]
    return tab


# ---------------------------------------------------------------------------
# tent weights for the quadrature slot, T scales at a time


def ring_tents(offsets: np.ndarray, step: float, lam: float, scales, angles: int,
               deriv: bool = False, memo: dict | None = None):
    """Tent weights of sigma_lam * g_s (equal-weight circle nodes) at the
    offsets d = (offsets[a], offsets[b]) * step, on the stored half: the
    rows k = a nd + b up to d = 0, in the row order of ``FourPointTable``.

    Returns a (ceil(nd^2 / 2), T) array for the T scales s, or with
    ``deriv`` their derivatives d/ds.  The offsets are symmetric about 0
    and 4 must divide ``angles``.  The nodes theta, pi - theta, pi + theta and
    -theta carry the four sign patterns of (cos theta, sin theta), and
    sin theta_j = cos theta_(q-j) for q = angles / 4, so with S_j(d) =
    G(d - lam cos theta_j) + G(d + lam cos theta_j), G the Gaussian-tent
    profile,

        c(d1, d2) = c(|d1|, |d2|) = sum_(j=0..q) w_j S_j(|d1|) S_(q-j)(|d2|) / angles,

    w_0 = w_q = 1/2 and w_j = 1 between.  The profiles are evaluated on the
    q + 1 nodes of a quarter turn, folded onto d >= 0, contracted in one
    (T, e, q+1) @ (T, q+1, e) product per term and gathered at |d1|, |d2|.
    Row k holds c(d) times its mirror count: 2, as -d has the same weight,
    or 1 for d = 0, its own mirror when nd is odd.

    ``memo``, a dict (the forms pass ``grid.PlanarGrid.cache``), keeps each
    folded profile array (T, q+1, e) under its kind, lam, the angle count,
    the offsets times ``step`` and the scales, so calls that share them
    evaluate the profiles once; the products and the gather are redone.
    """
    if angles % 4:
        raise ValueError(f"ring_tents needs an angle count divisible by 4, got {angles}")
    q, nd = angles // 4, len(offsets)
    x = offsets * step
    s = np.asarray(scales, dtype=np.float64)[:, None, None]
    u = x[None, :] - lam * np.cos(circle_angles(angles)[:q + 1])[:, None]
    w = np.ones((q + 1, 1))
    w[[0, q]] = 0.5
    at = np.arange(nd)
    at = np.maximum(at - nd // 2, (nd - 1) // 2 - at)  # index of |offsets[a]| in the fold
    k = np.arange((nd * nd + 1) // 2)
    ia, ib = at[k // nd], at[k % nd]

    memo = {} if memo is None else memo

    def folded(fn):
        """(S_j transposed, w_j S_(q-j)): S on the offsets >= 0, the
        profile at -d added to that at d."""
        key = (fn.__name__, lam, angles, x.tobytes(), s.tobytes())
        if key not in memo:
            p = fn(u, s, step)
            memo[key] = p[..., nd // 2:] + p[..., (nd - 1) // 2::-1]
        p = memo[key]
        return p.transpose(0, 2, 1), w * p[:, ::-1]

    def half(c):
        c = (c / angles)[:, ia, ib].T
        c[:nd * nd // 2] *= 2.0
        return c

    g, gw = folded(gauss_tent)
    if not deriv:
        return half(g @ gw)
    dg, dgw = folded(gauss_tent_da)
    return half(dg @ gw + g @ dgw)


_ring_tents = ring_tents  # ball_tents' call, which a wrapper of the public name does not see


def ball_tents(offsets: np.ndarray, step: float, scales, deriv: bool = False,
               memo: dict | None = None):
    """Tent weights of the plain Gaussians g_s centred at the origin.

    The ring of radius 0 with four nodes; same layout and ``memo`` as
    ``ring_tents``.
    """
    return _ring_tents(offsets, step, 0.0, scales, 4, deriv, memo)


# ---------------------------------------------------------------------------
# assembly


def assemble(tab: FourPointTable, slot1: np.ndarray, slot2: np.ndarray) -> np.ndarray:
    """sum_{d1, d2} W1[d1, t] W2[d2, t] Q(d1, d2) for each t.

    ``slot1`` W1 and ``slot2`` W2 are (ceil(nd^2 / 2), T) weights on the
    stored half, each row with its mirror's weight added, as ``ring_tents``
    writes them.  Each stored block is read once, in float64: its product
    with W2 covers the pairs with d1 in the block, and its product beyond
    its rows with W1 the mirrored pairs.
    """
    total = np.zeros(slot1.shape[1])
    for r0, r1, c0, block in tab.blocks():
        q = block.astype(np.float64)
        beyond = max(r1, c0)
        total += np.einsum("it,it->t", slot1[r0:r1], q @ slot2[c0:])
        total += np.einsum("it,it->t", slot2[r0:r1], q[:, beyond - c0:] @ slot1[beyond:])
    return total


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
        e = support_extent(values)
        buf = np.zeros((2 * e, 2 * e))
        buf[:i1 - i0, :j1 - j0] = values[i0:i1, j0:j1]
    fm = np.fft.rfft2(buf)
    return np.fft.irfft2(fm.real**2 + fm.imag**2, s=buf.shape) * (step * step)
