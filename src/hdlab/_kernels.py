"""Hot numeric kernels, vectorised with NumPy.

Each kernel is defined once.  Summation order is fixed, so results are
bit-stable from run to run.
"""

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# ---------------------------------------------------------------------------
# bilinear reads; node centres sit at (i + 1/2) h, reads outside the window
# return 0 in zero-extended mode and wrap in periodic mode

# the corners (0, 0), (0, 1), (1, 0), (1, 1) of a read's cell, on a last axis
_CORNER_I = np.array([0, 0, 1, 1])
_CORNER_J = np.array([0, 1, 0, 1])


def read_bilinear(values, h, px, py, periodic):
    """Bilinear read of ``values`` at the points (px, py), broadcast together.

    The four corners (a, b) of each point's cell are gathered in one step,
    in the order of ``_CORNER_I`` and ``_CORNER_J``.  Corner (a, b) weighs
    (fu if a else 1 - fu) * (fv if b else 1 - fv), fu and fv the point's
    fractions of a cell, and the four terms are added in that order.
    This is the per-point route the tests hold ``_shift_corners`` and the
    shift stacks to, so it shares no code with them.
    """
    n = values.shape[0]
    u, v = np.broadcast_arrays(np.asarray(px) / h - 0.5, np.asarray(py) / h - 0.5)
    i0 = np.floor(u).astype(np.int64)[..., None]
    j0 = np.floor(v).astype(np.int64)[..., None]
    fu = u[..., None] - i0
    fv = v[..., None] - j0
    ii = i0 + _CORNER_I
    jj = j0 + _CORNER_J
    if periodic:
        vals = values[ii % n, jj % n]
    else:
        ok = (ii >= 0) & (ii < n) & (jj >= 0) & (jj < n)
        vals = np.where(ok, values[np.clip(ii, 0, n - 1), np.clip(jj, 0, n - 1)], 0.0)
    t = np.where(_CORNER_I, fu, 1.0 - fu) * np.where(_CORNER_J, fv, 1.0 - fv) * vals
    return ((t[..., 0] + t[..., 1]) + t[..., 2]) + t[..., 3]


def shift_grid(values, h, dy1, dy2, periodic):
    """Whole-grid bilinear shift: result[i,j] ~ f(x_i + dy1, y_j + dy2).

    Node (i, j) gets the bilinear read of ``values`` at its centre moved by
    (dy1, dy2), the same number ``read_bilinear`` gives there.  Any shift is
    accepted, including shifts longer than the window.  In zero-extended
    mode reads outside the window are 0, so a shift of a whole window or
    more along either axis gives the all-zero array; in periodic mode
    shifts wrap around the torus.
    """
    box = (0, values.shape[0], 0, values.shape[1])
    windows = _window_view(values, periodic, box)
    return _shift_stack(values, h, dy1, dy2, periodic, box, windows)[0]


def _window_view(values, periodic, box):
    """Window view of an extended copy of ``values``, for ``_shift_stack``.

    The copy has a zero border of N + 1 cells (zero-extended) or one
    periodic repeat; each window is (rows + 1, cols + 1) for the output box.
    """
    n1, n2 = values.shape
    i0, i1, j0, j1 = box
    if periodic:
        ext = np.pad(values, ((0, n1), (0, n2)), mode="wrap")
    else:
        ext = np.pad(values, ((n1 + 1, n1 + 1), (n2 + 1, n2 + 1)))
    return sliding_window_view(ext, (i1 - i0 + 1, j1 - j0 + 1))


def _shift_corners(values, h, dy1, dy2, periodic, box, windows):
    """The gathered block and bilinear fractions of K shifts of ``values``.

    ``dy1`` and ``dy2`` are scalars or length-K arrays; ``box = (i0, i1, j0,
    j1)`` selects the output nodes [i0, i1) x [j0, j1).  Returns the
    (K, rows + 1, cols + 1) block gathered from ``windows``, the
    ``_window_view(values, periodic, box)`` that each kernel call makes once
    and passes to all its shifts, and the length-K fractions f1, f2.  The
    four bilinear corners of shift k are the slices ``block[k, :-1, :-1]``,
    ``[k, 1:, :-1]``, ``[k, :-1, 1:]`` and ``[k, 1:, 1:]``, weighted
    (1 - f1)(1 - f2), f1 (1 - f2), (1 - f1) f2 and f1 f2.  The cell shift
    is clipped in floating point before the integer cast, so a
    zero-extended shift of a whole window or more reads only the border.
    """
    n1, n2 = values.shape
    i0, i1, j0, j1 = box
    q1 = np.asarray(dy1, dtype=np.float64).reshape(-1) / h
    q2 = np.asarray(dy2, dtype=np.float64).reshape(-1) / h
    c1 = np.floor(q1)
    c2 = np.floor(q2)
    if periodic:
        o1 = np.mod(c1, n1)
        o2 = np.mod(c2, n2)
    else:
        o1 = np.clip(c1, -n1 - 1, n1) + (n1 + 1)
        o2 = np.clip(c2, -n2 - 1, n2) + (n2 + 1)
    block = windows[o1.astype(np.int64) + i0, o2.astype(np.int64) + j0]
    return block, q1 - c1, q2 - c2


def _shift_stack(values, h, dy1, dy2, periodic, box, windows):
    """Bilinear shifts of ``values`` by K displacements, read on a box of nodes.

    Returns the (K, i1 - i0, j1 - j0) stack whose slice k is
    ``shift_grid(values, h, dy1[k], dy2[k], periodic)[i0:i1, j0:j1]``, bit
    for bit: each slice blends the four corners of ``_shift_corners`` with
    the same per-element arithmetic whatever K is.  ``sharp_sum`` and
    ``mc_values`` keep K * (rows + 1) * (cols + 1) within their stack caps.
    """
    block, f1, f2 = _shift_corners(values, h, dy1, dy2, periodic, box, windows)
    f1 = f1[:, None, None]
    f2 = f2[:, None, None]
    return (
        (1 - f1) * (1 - f2) * block[:, :-1, :-1]
        + f1 * (1 - f2) * block[:, 1:, :-1]
        + (1 - f1) * f2 * block[:, :-1, 1:]
        + f1 * f2 * block[:, 1:, 1:]
    )


def _shift_dots(prod, values, h, dy1, dy2, periodic, box, windows):
    """Sum over the box of ``prod * _shift_stack(...)``, per shift, without the stack.

    ``prod`` is one (rows, cols) grid or a stack of one per shift.  The sum
    is d_c[k] = sum_x prod[k] * corner c of shift k, one dot product per
    corner, weighted as ``_shift_stack`` weights the corners; it agrees
    with the sum over the blended stack to round-off.
    """
    block, f1, f2 = _shift_corners(values, h, dy1, dy2, periodic, box, windows)
    k, rows, cols = block.shape[0], block.shape[1] - 1, block.shape[2] - 1
    prod = np.broadcast_to(prod, (k, rows, cols))
    dot = [np.einsum("kij,kij->k", prod, block[:, a:a + rows, b:b + cols])
           for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))]
    return ((1 - f1) * (1 - f2) * dot[0] + f1 * (1 - f2) * dot[1]
            + (1 - f1) * f2 * dot[2] + f1 * f2 * dot[3])


# elements of one (K, rows + 1, cols + 1) shift stack; sharp_sum cuts its
# stacks to this size, so a stack does not grow with the number of angles.
# The spectral forms cut their batches of outer scale nodes to it the same
# way.  mc_values cuts its stacks of samples to MC_STACK_ELEMENTS: each
# sample takes 2^n - 1 shifts, and smaller stacks stay in cache.
STACK_ELEMENTS = 1 << 19
MC_STACK_ELEMENTS = 1 << 17


def support_box(values):
    """(i0, i1, j0, j1) bounding the nonzero nodes, or None for a zero grid."""
    rows = np.flatnonzero(values.any(axis=1))
    cols = np.flatnonzero(values.any(axis=0))
    if rows.size == 0:
        return None
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def _stack_len(box, elements):
    i0, i1, j0, j1 = box
    return max(1, elements // ((i1 - i0 + 1) * (j1 - j0 + 1)))


# ---------------------------------------------------------------------------
# vertex product F_n(x; y_1..y_n) = prod over r in {0,1}^n of f(x + sum r_k y_k)


def cube_vertices(x1, x2, edges):
    """(p1, p2) of the 2^n vertices of the cube at base (x1, x2) with edge
    vectors ``edges[k]``: vertex r adds the edges of its set bits to the
    base, in slot order."""
    r = np.arange(1 << len(edges))
    p1 = np.full(len(r), np.float64(x1))
    p2 = np.full(len(r), np.float64(x2))
    for k, (e1, e2) in enumerate(edges):
        on = (r >> k) & 1 == 1
        p1[on] += e1
        p2[on] += e2
    return p1, p2


def vertex_product(values, h, x1, x2, ys, periodic):
    """The 2^n vertices (``cube_vertices``) read in one ``read_bilinear``
    call; the values multiply in r order, stopping at the first zero
    product."""
    prod = 1.0
    for v in read_bilinear(values, h, *cube_vertices(x1, x2, ys), periodic).tolist():
        prod *= v
        if prod == 0.0:
            return 0.0
    return prod


def _vertex_sums(values, h, periodic, box, windows, prod, r0, ex, ey):
    """x-sums over ``box`` of ``prod`` times the vertices r0 .. 2^n - 1.

    Slot k's edge ``(ex[k], ey[k])`` is a scalar or one value per stack
    element.  Vertex r is shifted by the edges of the slots whose bits are
    set in r, added in slot order.  The inner vertices multiply into the
    product stack, and the loop stops once it is all zero.  The last
    vertex, 2^n - 1, is only summed over x, so it is never formed: its
    x-sum is four corner dot products (``_shift_dots``).  Shared by
    ``sharp_sum`` and ``mc_values``.
    """
    last = (1 << len(ex)) - 1
    for r in range(r0, last + 1):
        d1 = 0.0
        d2 = 0.0
        for k in range(len(ex)):
            if (r >> k) & 1:
                d1 = d1 + ex[k]
                d2 = d2 + ey[k]
        if r == last:
            return _shift_dots(prod, values, h, d1, d2, periodic, box, windows)
        prod = prod * _shift_stack(values, h, d1, d2, periodic, box, windows)
        if not prod.any():
            break
    return prod.reshape(prod.shape[0], -1).sum(axis=1)


# ---------------------------------------------------------------------------
# the circle's nodes: sharp quadrature, ring tents, candidate scan, circle quadrature


def circle_angles(m):
    """The m equispaced angles 2 pi k / m, k = 0 .. m - 1."""
    return 2.0 * np.pi * np.arange(m) / m


def circle_nodes(m):
    """(cos, sin) of ``circle_angles(m)``."""
    th = circle_angles(m)
    return np.cos(th), np.sin(th)


# ---------------------------------------------------------------------------
# sharp counting quadrature: (1/M^n) sum over angle tuples of h^2 sum_x F_n


def sharp_sum(values, h, lam, cos_t, sin_t, n, periodic):
    """(h^2 / M^n) * sum over angle tuples of sum_x F_n(x; lam e_a1, ..., lam e_an).

    The vertices of F_n are the subset sums of its edges, so its x-sum does
    not change when the slots are permuted.  Only the C(M + n - 1, n) tuples
    with slot-0 angle >= slot-1 angle >= ... are evaluated, and each x-sum
    is weighted by its number of orderings, n! / prod c_v! with c_v the
    repeat counts.  Each Python step takes a stack of slot-0 angles at once:
    ``values * S_a`` (S_a the shift by lam e_a) is formed once per slot-0
    angle, the loop runs over the non-increasing tuples of the slow slots,
    and each takes the slot-0 angles from its slot-1 angle up.  Vertices
    whose sum includes slot 0 take one stacked shift per step and the
    others one single shift; the last vertex, which includes every slot,
    takes the stacked corner dots of ``_vertex_sums`` instead.  The
    weighted sums are added in that order, so n = 1 adds the angles in
    turn (it has no vertex after ``values * S_a`` and sums that).

    Every vertex product has ``values(x)`` as a factor, so the x-sum runs
    over the bounding box of the support only, and an all-zero grid gives
    0.0.  The window view of the shifts is made once per call.  A stack
    holds at most ``STACK_ELEMENTS`` elements: the slot-0 angles are taken
    in blocks of that size, and nothing else grows with M.
    """
    box = support_box(values)
    if box is None:
        return 0.0
    i0, i1, j0, j1 = box
    base = values[i0:i1, j0:j1]
    windows = _window_view(values, periodic, box)
    m = cos_t.shape[0]
    e1 = lam * cos_t
    e2 = lam * sin_t
    slows = [
        (c[::-1], math.factorial(n) // math.prod(math.factorial(c.count(v)) for v in set(c)))
        for c in itertools.combinations_with_replacement(range(m), n - 1)
    ]
    total = 0.0
    step = _stack_len(box, STACK_ELEMENTS)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        first = base * _shift_stack(values, h, e1[lo:hi], e2[lo:hi], periodic, box, windows)
        if not first.any():
            continue
        for slow, w in slows:
            start = max(lo, slow[0]) if slow else lo
            if start >= hi:
                continue
            digit = (slice(start, hi),) + slow
            sub = _vertex_sums(values, h, periodic, box, windows, first[start - lo:], 2,
                               [e1[d] for d in digit], [e2[d] for d in digit])
            weights = np.full(sub.shape, float(w))
            if slow and start == slow[0]:
                # slot-0 angle a = slow[0] repeats slow[0] once more
                weights[0] = w // (slow.count(slow[0]) + 1)
            for v in (weights * sub).tolist():
                total += v
    return total * h * h / m**n


# ---------------------------------------------------------------------------
# Monte Carlo: per-sample exact x-sum of the vertex product


def mc_values(values, h, ys, periodic, out):
    """out[s] = h^2 sum_x F_n(x; ys[s]), over stacks of samples.

    Same vertex loop and support crop as ``sharp_sum``; vertex 1 .. 2^n - 2
    are stacked shifts and vertex 2^n - 1 the corner dots, so n = 1 takes
    the dots alone.  A stack holds at most ``MC_STACK_ELEMENTS`` elements.
    Each sample's value is formed by the same arithmetic whatever the
    stack size, so the cap moves no bit of ``out``.
    """
    box = support_box(values)
    if box is None:
        out[:] = 0.0
        return out
    i0, i1, j0, j1 = box
    base = values[i0:i1, j0:j1]
    windows = _window_view(values, periodic, box)
    step = _stack_len(box, MC_STACK_ELEMENTS)
    for lo in range(0, ys.shape[0], step):
        y = ys[lo:lo + step]
        out[lo:lo + step] = _vertex_sums(values, h, periodic, box, windows, base, 1,
                                         y[:, :, 0].T, y[:, :, 1].T) * h * h
    return out


# ---------------------------------------------------------------------------
# candidate scan over (x, angle tuple) space: a depth-first walk of the
# angle tree in lexicographic cursor order, early exit, budget with resume
# cursor

# base points, or child prefixes, made in one vectorised step of the scan.
# A scan that ends at a hit computes at most one block per slot past that
# hit.  One level's vertex arrays hold at most SCAN_CHUNK * 2^n * 16 B
# (512 KB at n = 3), so they stay in cache and exhaustive scans run no
# slower than with blocks of 2^16
SCAN_CHUNK = 1 << 12


def scan_bitmap(member, xs1, xs2, cos_t, sin_t, lengths, eta_gap, start, stop) -> int:
    """First cursor in [start, stop) whose copy lies in the set.

    ``member(p1, p2)`` is any vectorised membership test returning a boolean
    array (a bitmap lookup or a shape union alike).  Cursor ``c`` is base
    point ``c // m**n`` of ``(xs1, xs2)`` with slot angles read from
    ``c % m**n`` most-significant digit first, slot k taking edge
    ``lengths[k] * (cos_t[a], sin_t[a])``.  A candidate counts when all 2^n
    vertices are members and every pair of them is at least ``eta_gap``
    apart.  Returns the first such cursor, -1 when the base points run out
    before ``stop``, -2 when ``stop`` is reached.

    The walk is pruned and gives the same answer as testing every cursor.
    Each base point whose cursors meet [start, stop) is tested once and
    only members are kept.  The angle tuples then grow slot by slot: slot k
    adds 2^k new vertices, and a prefix with one of them outside the set is
    dropped together with its m^(n-1-k) tuples.  The pairwise gap is
    checked on complete tuples only.  Prefixes are kept in cursor order and
    clipped to [start, stop), so the first hit is the first cursor in
    lexicographic order; work is spent on members, not on cursors.
    """
    m = len(cos_t)
    n = len(lengths)
    tuples = m**n
    end = min(stop, len(xs1) * tuples)
    miss = -1 if stop > len(xs1) * tuples else -2
    if stop <= start:
        return -2
    edges = [(lengths[k] * cos_t, lengths[k] * sin_t) for k in range(n)]
    ctx = (member, edges, m, n, eta_gap * eta_gap, start, end)
    for lo in range(start // tuples, (end - 1) // tuples + 1, SCAN_CHUNK):
        xi = np.arange(lo, min(lo + SCAN_CHUNK, (end - 1) // tuples + 1), dtype=np.int64)
        xi = xi[member(xs1[xi], xs2[xi])]
        if xi.size:
            hit = _scan_subtrees(ctx, xs1[xi][None], xs2[xi][None], xi * tuples, 0)
            if hit >= 0:
                return hit
    return miss


def _scan_subtrees(ctx, v1, v2, first, k) -> int:
    """First hit below P prefixes of k slots, or -1.

    ``v1``, ``v2`` are the (2^k, P) vertex coordinates of the prefixes, in
    cursor order along the second axis, and ``first`` their first cursors.
    Vertex r has bit k of r set when slot k's edge is in its sum, and each
    sum adds the edges in slot order, so every vertex is the float a
    per-cursor loop forms.  Children are made for blocks of parents times
    angles of at most ``SCAN_CHUNK`` children, parent-major, so each block
    and the survivors passed down stay in cursor order.
    """
    member, edges, m, n, gap2_min, start, end = ctx
    if k == n:
        gap2 = np.full(first.shape, np.inf)
        for a in range(1 << n):
            for b in range(a + 1, 1 << n):
                d = v1[a] - v1[b]
                d *= d
                e = v2[a] - v2[b]
                e *= e
                d += e
                np.minimum(gap2, d, out=gap2)
        hit = gap2 >= gap2_min
        return int(first[int(np.argmax(hit))]) if hit.any() else -1
    span = m ** (n - 1 - k)
    e1, e2 = edges[k]
    rows = max(1, SCAN_CHUNK // m)
    for p in range(0, first.size, rows):
        for a in range(0, m, SCAN_CHUNK):
            cols = slice(a, a + SCAN_CHUNK)
            cur = first[p:p + rows, None] + np.arange(a, min(a + SCAN_CHUNK, m)) * span
            # rows 2^k.. of next1/next2 are the new vertices, made in place
            next1 = np.empty((2 << k,) + cur.shape)
            next2 = np.empty_like(next1)
            for nxt, v, e in ((next1, v1, e1), (next2, v2, e2)):
                nxt[:1 << k] = v[:, p:p + rows, None]
                np.add(v[:, p:p + rows, None], e[cols], out=nxt[1 << k:])
            alive = member(next1[1 << k:].ravel(), next2[1 << k:].ravel())
            alive = alive.reshape((1 << k,) + cur.shape).all(axis=0)
            # only the first and last prefix of a scan can reach outside it
            alive &= (cur < end) & (cur + span > start)
            if alive.all():
                next1, next2, cur = next1.reshape(2 << k, -1), next2.reshape(2 << k, -1), cur.ravel()
            elif alive.any():
                next1, next2, cur = next1[:, alive], next2[:, alive], cur[alive]
            else:
                continue
            hit = _scan_subtrees(ctx, next1, next2, cur, k + 1)
            if hit >= 0:
                return hit
    return -1
