"""Hot numeric kernels, vectorised with NumPy.

Each kernel is defined once.  Summation order is fixed, so results are
bit-stable from run to run.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# bilinear reads; node centres sit at (i + 1/2) h, reads outside the window
# return 0 in zero-extended mode and wrap in periodic mode


def read_bilinear(values, h, px, py, periodic):
    """Vectorised bilinear read at arrays of points."""
    n = values.shape[0]
    u = np.asarray(px) / h - 0.5
    v = np.asarray(py) / h - 0.5
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    fu = u - i0
    fv = v - j0
    out = np.zeros(np.broadcast(u, v).shape, dtype=np.float64)
    for di in (0, 1):
        wi = fu if di else 1.0 - fu
        ii = i0 + di
        for dj in (0, 1):
            wj = fv if dj else 1.0 - fv
            jj = j0 + dj
            if periodic:
                vals = values[ii % n, jj % n]
            else:
                ok = (ii >= 0) & (ii < n) & (jj >= 0) & (jj < n)
                vals = np.where(ok, values[np.clip(ii, 0, n - 1), np.clip(jj, 0, n - 1)], 0.0)
            out += wi * wj * vals
    return out


def shift_grid(values, h, dy1, dy2, periodic):
    """Whole-grid bilinear shift: result[i,j] ~ f(x_i + dy1, y_j + dy2).

    Node (i, j) gets the bilinear read of ``values`` at its centre moved by
    (dy1, dy2), the same number ``read_bilinear`` gives there.  Any shift is
    accepted, including shifts longer than the window.  In zero-extended
    mode reads outside the window are 0, so a shift of a whole window or
    more along either axis gives the all-zero array; in periodic mode
    shifts wrap around the torus.
    """
    n = values.shape[0]
    c1 = int(math.floor(dy1 / h))
    c2 = int(math.floor(dy2 / h))
    f1 = dy1 / h - c1
    f2 = dy2 / h - c2

    def cellshift(a, s1, s2):
        if periodic:
            return np.roll(a, (-s1, -s2), axis=(0, 1))
        out = np.zeros_like(a)
        if abs(s1) >= n or abs(s2) >= n:
            # the slice bounds below would go negative and count from the end
            return out
        src1 = slice(max(0, s1), min(n, n + s1))
        dst1 = slice(max(0, -s1), min(n, n - s1))
        src2 = slice(max(0, s2), min(n, n + s2))
        dst2 = slice(max(0, -s2), min(n, n - s2))
        out[dst1, dst2] = a[src1, src2]
        return out

    a00 = cellshift(values, c1, c2)
    a10 = cellshift(values, c1 + 1, c2)
    a01 = cellshift(values, c1, c2 + 1)
    a11 = cellshift(values, c1 + 1, c2 + 1)
    return (
        (1 - f1) * (1 - f2) * a00
        + f1 * (1 - f2) * a10
        + (1 - f1) * f2 * a01
        + f1 * f2 * a11
    )


# ---------------------------------------------------------------------------
# vertex product F_n(x; y_1..y_n) = prod over r in {0,1}^n of f(x + sum r_k y_k)


def vertex_product(values, h, x1, x2, ys, periodic):
    n = ys.shape[0]
    prod = 1.0
    for r in range(1 << n):
        p1 = x1
        p2 = x2
        for k in range(n):
            if (r >> k) & 1:
                p1 += ys[k, 0]
                p2 += ys[k, 1]
        prod *= float(read_bilinear(values, h, np.float64(p1), np.float64(p2), periodic))
        if prod == 0.0:
            return 0.0
    return prod


# ---------------------------------------------------------------------------
# sharp counting quadrature: (1/M^n) sum over angle tuples of h^2 sum_x F_n


def sharp_sum(values, h, lam, cos_t, sin_t, n, periodic):
    m = cos_t.shape[0]
    tuples = m**n
    total = 0.0
    for t in range(tuples):
        rem = t
        idx = []
        for _ in range(n):
            idx.append(rem % m)
            rem //= m
        prod = values.copy()
        for r in range(1, 1 << n):
            d1 = 0.0
            d2 = 0.0
            for k in range(n):
                if (r >> k) & 1:
                    d1 += lam * cos_t[idx[k]]
                    d2 += lam * sin_t[idx[k]]
            prod = prod * shift_grid(values, h, d1, d2, periodic)
            if not prod.any():
                break
        total += prod.sum()
    return total * h * h / tuples


# ---------------------------------------------------------------------------
# Monte Carlo: per-sample exact x-sum of the vertex product


def mc_values(values, h, ys, periodic, out):
    ns = ys.shape[0]
    n = ys.shape[1]
    for s in range(ns):
        prod = values.copy()
        for r in range(1, 1 << n):
            d1 = 0.0
            d2 = 0.0
            for k in range(n):
                if (r >> k) & 1:
                    d1 += ys[s, k, 0]
                    d2 += ys[s, k, 1]
            prod = prod * shift_grid(values, h, d1, d2, periodic)
            if not prod.any():
                break
        out[s] = prod.sum() * h * h
    return out


# ---------------------------------------------------------------------------
# Gowers box-sum routes on a torus (used as independent oracles for U^2)


def u2_fourth_direct(values, h):
    n = values.shape[0]
    total = 0.0
    for d1 in range(n):
        for d2 in range(n):
            inner = (values * np.roll(values, (-d1, -d2), axis=(0, 1))).sum()
            total += (inner * h * h) ** 2
    return total * h * h


# ---------------------------------------------------------------------------
# candidate scan over (x, angle tuple) space; lexicographic cursor order,
# early exit, budget with resume cursor


def scan_bitmap(member, xs1, xs2, cos_t, sin_t, lengths, eta_gap, start, stop) -> int:
    """First cursor in [start, stop) whose copy lies in the set, in chunks.

    ``member(p1, p2)`` is any vectorised membership test returning a boolean
    array (a bitmap lookup or a shape union alike).  Cursor ``c`` is base
    point ``c // m**n`` of ``(xs1, xs2)`` with slot angles read from
    ``c % m**n`` most-significant digit first, slot k taking edge
    ``lengths[k] * (cos_t[a], sin_t[a])``.  A candidate counts when all 2^n
    vertices are members and every pair of them is at least ``eta_gap``
    apart.  Returns the first such cursor, -1 when the base points run out
    before ``stop``, -2 when ``stop`` is reached.
    """
    m = len(cos_t)
    n = len(lengths)
    tuples = m**n
    npts = len(xs1)
    strides = [m ** (n - 1 - k) for k in range(n)]
    chunk = 65536
    cur = start
    while cur < stop:
        hi = min(cur + chunk, stop)
        cs = np.arange(cur, hi, dtype=np.int64)
        xi = cs // tuples
        valid = xi < npts
        if not valid.any():
            return -1
        exhausted = not bool(valid.all())
        cs = cs[valid]
        xi = xi[valid]
        alive = member(xs1[xi], xs2[xi])
        verts1 = [xs1[xi]]
        verts2 = [xs2[xi]]
        rem = cs % tuples
        for k in range(n):
            a = (rem // strides[k]) % m
            y1 = lengths[k] * cos_t[a]
            y2 = lengths[k] * sin_t[a]
            new1, new2 = [], []
            for v1, v2 in zip(verts1, verts2):
                p1, p2 = v1 + y1, v2 + y2
                alive = alive & member(p1, p2)
                new1.append(p1)
                new2.append(p2)
            verts1 += new1
            verts2 += new2
        if alive.any():
            v1 = np.stack(verts1, axis=-1)
            v2 = np.stack(verts2, axis=-1)
            nv = v1.shape[-1]
            gap2 = np.full(v1.shape[0], np.inf)
            for a in range(nv):
                for b in range(a + 1, nv):
                    gap2 = np.minimum(gap2, (v1[:, a] - v1[:, b]) ** 2 + (v2[:, a] - v2[:, b]) ** 2)
            hit = alive & (gap2 >= eta_gap * eta_gap)
            if hit.any():
                return int(cs[int(np.argmax(hit))])
        if exhausted:
            return -1
        cur = hi
    return -2


