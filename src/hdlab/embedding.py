"""Direct geometric search for scaled hypercube-skeleton copies.

A copy with edge lengths ``a_1..a_n`` at base point x and unit directions
``w_k`` is the set of 2^n points ``x + sum_k r_k a_k w_k``.  The scan orders
candidates by a cursor over base points on a lattice and directions on a
uniform angle grid, lexicographically, and returns the first candidate
whose vertices all belong to the set and stay pairwise separated.  It does
not test every cursor: base points outside the set are skipped, and the
angle tuples sharing a prefix are dropped as soon as one vertex of the
prefix leaves the set.  The hit is still the lexicographically first one,
and ``examined``, ``budget`` and ``resume_cursor`` count logical cursors,
not membership tests.  Candidates are made in blocks of at most
``_kernels.SCAN_CHUNK`` per slot, so the work past the first hit is at most
one block per slot.  Absence of a hit says the scan found none at its
resolution, nothing more.

The one-dimensional counterexample demos use exact rational interval
arithmetic instead of scanning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import _kernels
from .counting import _require_int
from .decomposition import error_part
from .grid import PlanarGrid, measure as grid_measure, shape_mask

_SAMPLES_PER_INTERVAL = 5  # scales searched inside the chosen interval

# ---------------------------------------------------------------------------
# sets


@dataclass(frozen=True)
class PlanarSet:
    """A search domain: a shape union or a bitmap."""

    kind: str                      # "shapes" | "bitmap"
    side: float
    shapes: tuple = ()
    bitmap: PlanarGrid | None = None

    @classmethod
    def from_shapes(cls, shapes, side: float) -> "PlanarSet":
        return cls("shapes", side, shapes=tuple(dict(s) for s in shapes))

    @classmethod
    def from_bitmap(cls, grid: PlanarGrid) -> "PlanarSet":
        return cls("bitmap", grid.side, bitmap=grid)

    def membership(self, p1, p2) -> np.ndarray:
        """Vectorised membership test at points (p1, p2)."""
        p1 = np.asarray(p1, dtype=np.float64)
        p2 = np.asarray(p2, dtype=np.float64)
        inside = (p1 >= 0) & (p1 < self.side) & (p2 >= 0) & (p2 < self.side)
        if self.kind == "bitmap":
            g = self.bitmap
            i = np.clip((p1 / g.step).astype(np.int64), 0, g.node_count - 1)
            j = np.clip((p2 / g.step).astype(np.int64), 0, g.node_count - 1)
            return inside & (g.values[i, j] >= 0.5)
        if self.kind == "shapes":
            return inside & shape_mask(self.shapes, p1, p2)
        raise ValueError(f"unknown set kind {self.kind!r}")


# ---------------------------------------------------------------------------
# copies


@dataclass(frozen=True)
class HypercubeCopy:
    base: tuple[float, float]
    edges: tuple[tuple[float, float], ...]
    target_lengths: tuple[float, ...]

    def vertices(self) -> np.ndarray:
        """(2^n, 2) array of ``_kernels.cube_vertices``, row r vertex r."""
        return np.stack(_kernels.cube_vertices(*self.base, self.edges), axis=1)

    def min_pairwise_gap(self) -> float:
        v = self.vertices()
        d = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=-1)
        d[np.diag_indices(len(v))] = np.inf
        return float(d.min())


@dataclass(frozen=True)
class SearchSpec:
    x_step: float = 0.0           # 0 = unset: pigeonhole_interval fills it, find_copy refuses it
    angle_count: int = 0          # 0 = default for the order searched
    eta_len: float = 0.0          # 0 = x_step
    eta_gap: float = 0.0          # 0 = min(lengths) / 1000
    budget: int = 1 << 40
    resume_cursor: int = 0

    def resolved(self, lengths) -> "SearchSpec":
        n = len(lengths)
        angle = self.angle_count or (720 if n <= 2 else 180)
        gap = self.eta_gap or min(lengths) / 1000.0
        eta = self.eta_len or self.x_step
        return replace(self, angle_count=angle, eta_gap=gap, eta_len=eta)


@dataclass(frozen=True)
class ScanOutcome:
    status: str                    # "found" | "not_found" | "budget_exceeded"
    copy: HypercubeCopy | None
    resume_cursor: int
    examined: int


def _x_lattice(side: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    pts = np.arange(step / 2, side, step)
    x1 = np.repeat(pts, len(pts))
    x2 = np.tile(pts, len(pts))
    return x1, x2


def _check_search(search: SearchSpec) -> None:
    """Reject the spec fields a scan cannot run with, naming the field."""
    if not (math.isfinite(search.x_step) and search.x_step > 0):
        raise ValueError(f"x_step must be finite and positive, got {search.x_step!r}")
    for name in ("eta_len", "eta_gap"):
        v = getattr(search, name)
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"{name} must be finite and non-negative (0 = default), got {v!r}")
    for name, least in (("angle_count", 0), ("budget", 1), ("resume_cursor", 0)):
        _require_int(name, getattr(search, name), least)


def find_copy(A: PlanarSet, lengths, search: SearchSpec) -> ScanOutcome:
    """First valid copy in lexicographic (x, angles) order, if any.

    The scan orders base points row-major on an ``x_step`` lattice and
    directions most-significant-first, so results are reproducible and
    independent of how the set was assembled.  Base points outside the set
    and angle prefixes with a vertex outside it are skipped without testing
    the cursors below them; the hit returned is still the lexicographically
    first, and the work past it is at most one block of
    ``_kernels.SCAN_CHUNK`` candidates per slot.  ``budget`` bounds the
    cursors of one call, ``resume_cursor`` is where a call starts, and
    ``examined`` is the span of cursors a call covered, all counted as
    logical cursors, not membership tests, so a budgeted scan resumed piece
    by piece ends where one call does.
    """
    lengths = tuple(float(a) for a in lengths)
    if not lengths:
        raise ValueError("lengths must name at least one edge length")
    if not all(math.isfinite(a) and a > 0 for a in lengths):
        raise ValueError(f"lengths must be finite and positive, got {lengths}")
    _check_search(search)
    spec = search.resolved(lengths)
    n = len(lengths)
    m = spec.angle_count
    cos_t, sin_t = _kernels.circle_nodes(m)
    xs1, xs2 = _x_lattice(A.side, spec.x_step)
    total = len(xs1) * m**n
    start = min(spec.resume_cursor, total)
    stop = min(start + spec.budget, total)
    res = _kernels.scan_bitmap(A.membership, xs1, xs2, cos_t, sin_t, lengths,
                               spec.eta_gap, start, stop)
    if res < 0:
        if stop >= total:
            return ScanOutcome("not_found", None, total, stop - start)
        return ScanOutcome("budget_exceeded", None, stop, stop - start)
    xi, *digits = np.unravel_index(res, (len(xs1),) + (m,) * n)
    edges = tuple(
        (lengths[k] * float(cos_t[d]), lengths[k] * float(sin_t[d]))
        for k, d in enumerate(digits)
    )
    copy = HypercubeCopy((float(xs1[xi]), float(xs2[xi])), edges, lengths)
    return ScanOutcome("found", copy, res, res + 1 - start)


def verify_copy(A: PlanarSet, copy: HypercubeCopy, eta_len: float = 1e-9,
                eta_gap: float = 0.0) -> bool:
    """Re-check membership, edge lengths, and vertex distinctness."""
    gap = eta_gap or min(copy.target_lengths) / 1000.0
    for (e1, e2), a in zip(copy.edges, copy.target_lengths):
        if abs(math.hypot(e1, e2) - a) > eta_len:
            return False
    if copy.min_pairwise_gap() < gap:
        return False
    v = copy.vertices()
    return bool(A.membership(v[:, 0], v[:, 1]).all())


# ---------------------------------------------------------------------------
# exact 1-d counterexample demos


def _distance_in_difference(intervals, lam: Fraction) -> bool:
    """Exact test: do two points of the interval union sit at distance lam?"""
    for a1, b1 in intervals:
        for a2, b2 in intervals:
            lo, hi = a1 - b2, b1 - a2
            if lo <= lam <= hi:
                return True
    return False


def banach_z_intervals(window: float = 20.0):
    """[-1/10, 1/10] + Z clipped to [0, window]."""
    w = Fraction(window)
    out = []
    k = 0
    while Fraction(k) - Fraction(1, 10) <= w:
        lo = max(Fraction(0), Fraction(k) - Fraction(1, 10))
        hi = min(w, Fraction(k) + Fraction(1, 10))
        if lo <= hi:
            out.append((lo, hi))
        k += 1
    return out


def stripe_intervals(eps: Fraction, window: float = 1.0):
    """[0, eps] u [3 eps, 4 eps] u ... clipped to [0, window]."""
    w = Fraction(window)
    out = []
    k = 0
    while 3 * k * eps <= w:
        lo = 3 * k * eps
        hi = min(w, lo + eps)
        out.append((lo, hi))
        k += 1
    return out


def avoided_distance_demo(kind: str, lam, eps=None) -> bool:
    """Whether the 1-d demo set contains a pair at distance exactly lam."""
    lam = Fraction(lam)
    if kind == "banach_Z":
        return _distance_in_difference(banach_z_intervals(), lam)
    if kind == "stripes":
        if eps is None:
            raise ValueError("the stripe demo needs the block width eps")
        return _distance_in_difference(stripe_intervals(Fraction(eps)), lam)
    raise ValueError(f"unknown demo kind {kind!r}")


# ---------------------------------------------------------------------------
# density estimation


def estimate_banach_density(A: PlanarSet, window_sides) -> float:
    """Best density of A in any placed square among the given sides.

    A lower estimate of the upper Banach density: the supremum over all
    translates is replaced by a full sweep of lattice placements.
    """
    if A.kind == "bitmap":
        vals, step = A.bitmap.values, A.bitmap.step
    else:
        # shapes rasterised at the centres of 512 x 512 nodes
        step = A.side / 512
        x = (np.arange(512) + 0.5) * step
        vals = shape_mask(A.shapes, x[:, None], x[None, :]).astype(np.float64)
    n = len(vals)
    sat = np.zeros((n + 1, n + 1))
    sat[1:, 1:] = vals.cumsum(axis=0).cumsum(axis=1)
    best = 0.0
    for side in window_sides:
        r = int(round(side / step))
        if r < 1 or r > n:
            continue
        window = (
            sat[r:, r:] - sat[:-r, r:] - sat[r:, :-r] + sat[:-r, :-r]
        )
        dens = float(window.max()) / (r * r)
        best = max(best, dens)
    return best


# ---------------------------------------------------------------------------
# pigeonhole interval selection


@dataclass(frozen=True)
class IntervalResult:
    j: int
    interval: tuple[float, float]
    depth: int
    delta: float
    error_parts: tuple[float, ...]
    sampled_scales: tuple[float, ...]
    witnesses: tuple
    witness_found: bool
    depth_bound_ok: bool | None = None

    @property
    def length(self) -> float:
        return self.interval[1] - self.interval[0]


def pigeonhole_interval(A: PlanarSet, delta: float, n: int, eps: float, depth: int,
                        search: SearchSpec | None = None, quadrature_nodes: int = 256,
                        depth_coefficient: float | None = None) -> IntervalResult:
    """Pick the dyadic scale interval with the smallest error part.

    For each j the error part smooth_eps - smooth_1 is evaluated at the
    midpoint of I_j = [4^-j, 2 * 4^-j); the j minimising its size wins, and
    copies are searched at ``_SAMPLES_PER_INTERVAL`` scales inside I_j, by
    ``search`` (default ``SearchSpec()``) with an unset ``x_step`` taken as
    max(4h, |I_j| / 8).  A result without any witness carries
    ``witness_found=False``: the scan is resolution-limited, absence is not
    a refutation.
    """
    if A.kind != "bitmap":
        raise ValueError("the interval selection runs on bitmap sets")
    g = A.bitmap
    if grid_measure(g) < delta:
        raise ValueError(f"set has measure below delta = {delta}")
    if depth < 1:
        raise ValueError("need at least one interval")
    errors = []
    for j in range(1, depth + 1):
        lam = 1.5 * 4.0**-j
        errors.append(abs(error_part(g, lam, eps, n, quadrature_nodes=quadrature_nodes)))
    best_j = 1 + int(np.argmin(errors))
    lo, hi = 4.0**-best_j, 2.0 * 4.0**-best_j
    scales = tuple(lo * (1.0 + (2 * k + 1) / (2.0 * _SAMPLES_PER_INTERVAL))
                   for k in range(_SAMPLES_PER_INTERVAL))
    search = search or SearchSpec()
    if not search.x_step:
        search = replace(search, x_step=max(4 * g.step, lo / 8))
    witnesses = []
    for lam in scales:
        out = find_copy(A, (lam,) * n, search)
        witnesses.append(out.copy if out.status == "found" else None)
    ok = any(w is not None for w in witnesses)
    bound_ok = None
    if depth_coefficient is not None:
        bound_ok = depth <= depth_coefficient * delta ** -((3 * n + 1) * 2 ** (n + 1))
    return IntervalResult(best_j, (lo, hi), depth, delta, tuple(errors), scales,
                          tuple(witnesses), ok, bound_ok)


def scale_scan(A: PlanarSet, lam_values, n: int, search: SearchSpec):
    """Per-scale search outcomes plus the smallest all-found threshold."""
    rows = []
    for lam in lam_values:
        out = find_copy(A, (float(lam),) * n, search)
        rows.append({"lambda": float(lam), "found": out.status == "found",
                     "witness": out.copy})
    threshold = None
    for i in range(len(rows)):
        if all(r["found"] for r in rows[i:]):
            threshold = rows[i]["lambda"]
            break
    return rows, threshold


# ---------------------------------------------------------------------------
# PGM (P5) bitmaps, threshold at half the maxval


def read_pgm(path, side: float = 1.0) -> PlanarGrid:
    """Binary PGM (P5) bitmap as a 0/1 grid on a window of ``side``.

    A pixel is in the set when its value v has 2 v > maxval, whatever the
    maxval (1 to 255).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    fields = ("magic number", "width", "height", "maxval")
    tokens = []
    i = 0
    while len(tokens) < 4:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i == len(data):
            raise ValueError(f"PGM header ends before its {fields[len(tokens)]}")
        if data[i : i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        tokens.append(data[i:j])
        i = j
    if tokens[0] != b"P5":
        raise ValueError("only binary PGM (P5) bitmaps are supported")
    for name, token in zip(fields[1:], tokens[1:]):
        if not token.removeprefix(b"-").isdigit():
            raise ValueError(f"PGM {name} must be a decimal integer, got {token!r}")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width != height:
        raise ValueError("bitmap must be square")
    if width < 1:
        raise ValueError(f"PGM width and height must be at least 1, got {width} x {height}")
    if maxval > 255:
        raise ValueError("16-bit PGM not supported")
    if maxval < 1:
        raise ValueError(f"PGM maxval must be at least 1, got {maxval}")
    i += 1  # single whitespace after maxval
    if len(data) - i < width * height:
        raise ValueError(f"PGM raster holds {max(len(data) - i, 0)} bytes, "
                         f"expected {width * height} for {width} x {height} pixels")
    raster = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=i)
    img = raster.reshape(height, width)
    # PGM rows run top to bottom; flip so row 0 is the bottom of the window,
    # then transpose so the first index runs along x1.  v > maxval // 2 is
    # 2 v > maxval without overflowing uint8, and v >= 128 at maxval 255
    vals = (img[::-1, :].T > maxval // 2).astype(np.float64)
    return PlanarGrid(side, side / width, vals)
