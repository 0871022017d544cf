"""Hypercube vertex-product counting forms and Gowers box norms.

The sharp form integrates the 2^n-fold vertex product of ``f`` against the
product of dilated circle measures; the smoothed form replaces each circle
factor by its Gaussian mollification at relative width ``eps``.  Exact
evaluation goes through angle quadrature plus grid sums (sharp) or the
spectral engine (smooth); the Monte Carlo estimator samples the smoothing
measure per slot while keeping the x-sum exact, with a counter-based
generator so results are a pure function of the seed.

The smoothed form is the T = 1, slot-0 call of ``_form_values``, which also
gives the derivative and box forms of ``decomposition`` at T outer scales.
For n = 1 it is the pair correlation of f times tent weights; for n = 2 an
offset table paired with sigma-hat times a kernel and with tent weights.
The correlation and sigma-hat (at the radii the table reads) are memoised
on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, spectral
from .grid import PlanarGrid, measure
from .sphere import CircleQuadrature, sphere_fourier_radial

EXACT = "exact_quadrature"
MONTE_CARLO = "monte_carlo"

MAX_DIMENSION = 3
DEFAULT_BUDGET = 1 << 34


@dataclass(frozen=True)
class CountingParams:
    n: int
    lam: float
    eps: float = 1.0
    quadrature_nodes: int = 256
    estimator: str = EXACT
    mc_samples: int = 20000
    seed: int | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"pattern dimension must be 1..{MAX_DIMENSION}")
        if not self.lam > 0:
            raise ValueError("dilation must be positive")
        if not 0 < self.eps <= 1:
            raise ValueError("smoothing width must satisfy 0 < eps <= 1")
        if self.estimator not in (EXACT, MONTE_CARLO):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.estimator == MONTE_CARLO:
            if self.seed is None:
                raise ValueError("monte_carlo estimator requires a seed")
            if self.mc_samples < 2:
                raise ValueError("monte_carlo estimator requires at least 2 samples")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "lambda": self.lam,
            "eps": self.eps,
            "M": self.quadrature_nodes,
            "estimator": self.estimator,
            "mc_samples": self.mc_samples,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CountingReport:
    value: float
    estimator_stderr: float
    params: CountingParams
    constants_version: str = "unversioned"

    def __post_init__(self):
        if self.value < -1e-12:
            raise ValueError("counting forms are integrals of nonnegative products")

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.estimator_stderr,
            "params": self.params.to_dict(),
            "provenance": {"constants_version": self.constants_version},
        }


# ---------------------------------------------------------------------------
# vertex product


def eval_F(f: PlanarGrid, x, ys) -> float:
    """Product of f over the 2^n vertices x + sum r_k y_k (bilinear reads)."""
    ys = np.asarray(ys, dtype=np.float64).reshape(-1, 2)
    if len(ys) < 1:
        raise ValueError("need at least one edge vector")
    x = np.asarray(x, dtype=np.float64)
    return float(
        _kernels.vertex_product(f.values, f.step, float(x[0]), float(x[1]), ys, f.periodic)
    )


def _eval_F_recurrence(f: PlanarGrid, x, ys) -> float:
    """``eval_F`` by splitting off the last edge vector and multiplying the
    two half-products; an independent oracle for the direct product."""
    ys = np.asarray(ys, dtype=np.float64).reshape(-1, 2)
    x = np.asarray(x, dtype=np.float64)
    if len(ys) == 1:
        a = float(f.value_at(x[0], x[1]))
        b = float(f.value_at(x[0] + ys[0, 0], x[1] + ys[0, 1]))
        return a * b
    head, last = ys[:-1], ys[-1]
    return _eval_F_recurrence(f, x, head) * _eval_F_recurrence(f, x + last, head)


# ---------------------------------------------------------------------------
# estimator internals


def _angles(m: int) -> tuple[np.ndarray, np.ndarray]:
    th = 2.0 * np.pi * np.arange(m) / m
    return np.cos(th), np.sin(th)


def _exact_cost(params: CountingParams, n_nodes: int) -> int:
    # sharp_sum evaluates one angle tuple per multiset of slot angles
    tuples = math.comb(params.quadrature_nodes + params.n - 1, params.n)
    return tuples * n_nodes**2 * (1 << params.n)


def _require_budget(cost: int, budget: int, what: str):
    if cost > budget:
        raise ValueError(
            f"{what}: exact quadrature needs ~{cost:.3g} elementary operations, "
            f"over the configured budget {budget:.3g}; lower M/N or use monte_carlo"
        )


def _mc_draws(params: CountingParams, smooth: bool) -> np.ndarray:
    """(S, n, 2) edge-vector samples; Philox keyed by the seed.

    Sample i consumes a fixed slice of the counter stream (angles block,
    then offsets block), so the draw is a pure function of (seed, i).
    """
    gen = np.random.Generator(np.random.Philox(key=np.uint64(params.seed)))
    s, n = params.mc_samples, params.n
    th = gen.uniform(0.0, 2.0 * np.pi, size=(s, n))
    ys = params.lam * np.stack([np.cos(th), np.sin(th)], axis=-1)
    if smooth:
        width = params.eps * params.lam
        ys = ys + gen.normal(0.0, width / math.sqrt(2.0 * math.pi), size=(s, n, 2))
    return ys


def _mc_report(f: PlanarGrid, params: CountingParams, smooth: bool) -> CountingReport:
    ys = _mc_draws(params, smooth)
    out = np.empty(params.mc_samples)
    _kernels.mc_values(f.values, f.step, ys, f.periodic, out)
    value = float(out.mean())
    stderr = float(out.std(ddof=1) / math.sqrt(params.mc_samples))
    return CountingReport(value, stderr, params)


def _grid_memo(f: PlanarGrid, name: str) -> dict:
    """A dict stored on the grid, so it lives exactly as long as the grid."""
    memo = getattr(f, name, None)
    if memo is None:
        memo = {}
        object.__setattr__(f, name, memo)
    return memo


def _sigma_weight_table(f: PlanarGrid, params: CountingParams, u_cut: float,
                        tab: spectral.OffsetTable):
    """Sigma-hat at each bin centroid of ``tab`` up to ``u_cut``, zero beyond,
    and at the zero-cell radii of its torus.

    The centroids increase, so one ``sphere_fourier_radial`` call evaluates
    those at most ``u_cut`` and the cell radii.  The circle-quadrature size is
    floored at 8 nodes per unit of lam * |xi| so the transform stays
    faithful up to ``u_cut``.  The values are kept on ``f`` per (node count,
    lam, u_cut, table lattice), so the coarse and fine outer quadratures,
    the slots of ``L_form`` and the smoothed forms at a shared cut reuse them.
    """
    lattice, r2 = tab.xi_bar, tab.torus_side
    m_eff = max(params.quadrature_nodes,
                int(math.ceil(8.0 * params.lam * u_cut / 2.0)) * 2, 64)
    memo = _grid_memo(f, "_sigma_tables")
    key = (m_eff, params.lam, u_cut, r2, lattice.tobytes())
    if key not in memo:
        read = int(np.searchsorted(lattice, u_cut, side="right"))
        values = sphere_fourier_radial(CircleQuadrature(m_eff, params.lam),
                                       np.concatenate([lattice[:read], spectral.cell_radii(r2)]))
        table = np.zeros(len(lattice))
        table[:read] = values[:read]
        cell_values = values[read:]
        table.setflags(write=False)
        cell_values.setflags(write=False)
        memo[key] = table, cell_values
    return memo[key]


def _ring_angles(params: CountingParams, step: float) -> int:
    spacing = max(params.eps * params.lam, step)
    need = int(math.ceil(6.0 * math.pi * params.lam / spacing))
    return max(params.quadrature_nodes, need, 64)


def ring_pad(f: PlanarGrid, lam: float) -> int:
    """Padding factor of the offset table for circle-smoothed forms at ``lam``.

    The torus must resolve the support spectrum (four extents) and hold
    the smoothed ring plus the correlation support without wrap-around.
    The box forms smooth with plain Gaussians, the ring of radius 0, so
    ``lam = 0`` gives their torus.
    """
    ext = spectral.support_extent(f.values) * f.step
    need = max(4.0 * ext, 5.0 * lam + 1.2 * ext + 6.0 * f.step)
    return max(1, int(math.ceil(need / f.side - 1e-9)))


def _neg_khat(a, u: np.ndarray) -> np.ndarray:
    au = a * np.asarray(u)
    return 4.0 * np.pi**2 * au * au * np.exp(-np.pi * au * au)


def _ghat(a, u: np.ndarray) -> np.ndarray:
    au = a * np.asarray(u)
    return np.exp(-np.pi * au * au)


def _pair_correlation(f: PlanarGrid, lam: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, a): the 1-d offsets that ``_correlation_offsets`` gives and the
    pair correlation at the 2-d offsets they span, in the layout of ``ring_tents``.

    The torus of ``spectral.pair_spectrum`` is memoised on the grid.
    """
    memo = _grid_memo(f, "_pair_correlation")
    if "torus" not in memo:
        memo["torus"] = spectral.pair_spectrum(f.values, f.step, f.periodic)
    offsets = _correlation_offsets(f, lam, scale)
    at = offsets % len(memo["torus"])
    return offsets, memo["torus"][np.ix_(at, at)].ravel()


def _correlation_offsets(f: PlanarGrid, lam: float, scale: float) -> np.ndarray:
    # periodic: every offset within a tent of the ring of radius lam smoothed
    # at scale (g_s(y) / g_s(0) < 1e-17 at |y| = 3.6 s), read at d mod N;
    # zero-extended: those of the support extent e, beyond which a vanishes
    k = (math.ceil((lam + 3.6 * scale) / f.step) + 1 if f.periodic
         else max(spectral.support_extent(f.values), 1) - 1)
    return np.arange(-k, k + 1)


def _form_values(f: PlanarGrid, tab: spectral.OffsetTable | None, m: int, lam: float, scales,
                 tent_scales=None, params: CountingParams | None = None) -> np.ndarray:
    """A form at T scales with the Laplacian in slot m, smoothed on the circle
    of radius ``lam`` (``params``) or, with ``params`` None, by plain Gaussians.

    n = 1 (no ``tab``): the pair correlation times the tent weights c at
    ``scales``, or times -2 pi s dc/ds for m = 1.  n = 2: the table's
    spectral slot takes sigma-hat times g-hat (m = 0, 2) or -k-hat (m = 1)
    at ``scales``, its tent slot c (m = 0, 1) or -2 pi s dc/ds (m = 2) at
    ``tent_scales`` (default ``scales``).  Nodes go in chunks whose blocks
    of ``column`` elements per node stay within ``_kernels.STACK_ELEMENTS``.
    """
    scales = np.asarray(scales, dtype=np.float64)
    angles = 1 if params is None else _ring_angles(params, f.step)
    if tab is None:
        offsets, corr = _pair_correlation(f, lam, float(scales.max()))
        tent_scales, deriv, lattice = scales, m >= 1, ()
    else:
        offsets, deriv, lattice = tab.offsets, m == 2, tab.xi_bar
        tent_scales = scales if tent_scales is None else tent_scales
        kernel = _neg_khat if m == 1 else _ghat
        cells = spectral.cell_radii(tab.torus_side)
        sig_lattice = sig_cells = 1.0
        if params is not None:
            u_cut = min(float(lattice.max()) * (1 + 1e-9), 3.6 / float(scales.min()))
            sig_lattice, sig_cells = _sigma_weight_table(f, params, u_cut, tab)
    nd = len(offsets)
    column = max(len(lattice), nd * nd, (nd + 2) * angles)

    def tents(sl):
        s = tent_scales[sl]
        c = (spectral.ball_tents(offsets, f.step, s, deriv) if params is None
             else spectral.ring_tents(offsets, f.step, lam, s, angles, deriv))
        return -2.0 * math.pi * s * c if deriv else c

    def values(sl):
        if tab is None:
            return corr @ tents(sl)
        weights = sig_lattice * kernel(scales[sl, None], lattice)
        zero_w = (sig_cells * kernel(scales[sl, None], cells)).mean(axis=1)
        return spectral.assemble(tab, tents(sl), weights.T, zero_w)

    size = max(1, _kernels.STACK_ELEMENTS // column)
    return np.concatenate([values(slice(i, i + size)) for i in range(0, len(scales), size)])


def _offset_table(f: PlanarGrid, pad: int, budget: int = DEFAULT_BUDGET,
                  what: str = "offset table") -> spectral.OffsetTable:
    """The offset table of f at padding ``pad``, memoised on f.

    It holds the offsets within the support extent, one transform of the
    padded torus each, so the estimate is nd^2 (pad N)^2 / 4; over
    ``budget`` it raises before anything is built.
    """
    if f.periodic:
        raise ValueError("the exact two-slot path needs a zero-extended grid")
    nd = 2 * max(spectral.support_extent(f.values), 1) - 1
    _require_budget(nd * nd * (pad * f.node_count) ** 2 // 4, budget, what)
    cache = _grid_memo(f, "_offset_tables")
    if pad not in cache:
        cache[pad] = spectral.build_offset_table(f.values, f.step, pad)
    return cache[pad]


# ---------------------------------------------------------------------------
# public counting forms


def counting_sharp(f: PlanarGrid, params: CountingParams) -> CountingReport:
    """Sharp form: angle-tuple quadrature with the exact grid x-sum."""
    if params.estimator == MONTE_CARLO:
        return _mc_report(f, params, smooth=False)
    cost = _exact_cost(params, f.node_count)
    _require_budget(cost, params.budget, "counting_sharp")
    cos_t, sin_t = _angles(params.quadrature_nodes)
    val = _kernels.sharp_sum(f.values, f.step, params.lam, cos_t, sin_t,
                             params.n, f.periodic)
    return CountingReport(float(val), 0.0, params)


def _clamped(value: float, f: PlanarGrid, params: CountingParams) -> float:
    # the spectral slot of the n = 2 table route samples oscillatory weights
    # at bin centroids, which leaves a noise floor; a value within it is
    # zero at this precision
    floor = 1e-3 * max(float(f.values.sum()) * f.step**2, f.step**2)
    if value < -floor:
        raise ArithmeticError(
            f"counting value came out negative: {value:.3e} at lambda/h = "
            f"{params.lam / f.step:.4g}, eps*lambda/h = {params.eps * params.lam / f.step:.4g}; "
            "the smoothing width is under-resolved on this grid (use a finer grid, "
            "a larger lambda or a larger eps)")
    return max(value, 0.0)


def counting_smooth(f: PlanarGrid, params: CountingParams) -> CountingReport:
    """Smoothed form at relative width eps: g-hat at eps * lam, T = 1."""
    if params.estimator == MONTE_CARLO:
        return _mc_report(f, params, smooth=True)
    if params.n > 2:
        raise ValueError(
            "counting_smooth: the exact path supports n <= 2; use the monte_carlo estimator for n = 3"
        )
    scale = params.eps * params.lam
    tab = None
    if params.n == 1:
        # the correlation torus's transform, then offsets^2 x angles tents
        torus = f.node_count if f.periodic else 2 * max(spectral.support_extent(f.values), 1)
        nd = len(_correlation_offsets(f, params.lam, scale))
        cost = torus * torus * 8 + nd * nd * _ring_angles(params, f.step)
        _require_budget(cost, params.budget, "counting_smooth")
    else:
        tab = _offset_table(f, ring_pad(f, params.lam), params.budget, "counting_smooth")
    value = float(_form_values(f, tab, 0, params.lam, [scale], params=params)[0])
    return CountingReport(value if tab is None else _clamped(value, f, params), 0.0, params)


# ---------------------------------------------------------------------------
# Gowers box norms (zero-extended grids are embedded into a padded torus,
# which realises the full-plane shift integral exactly)


def _torus_values(f: PlanarGrid) -> tuple[np.ndarray, float]:
    if f.periodic:
        return f.values, f.step
    n = f.node_count
    padded = np.zeros((2 * n, 2 * n))
    padded[:n, :n] = f.values
    return padded, f.step


def _u2_fourth_spectral(values: np.ndarray, h: float) -> float:
    n = values.shape[0]
    coef = np.fft.fft2(values) * h * h
    side = n * h
    return float((np.abs(coef) ** 4).sum() / side**2)


def _u2_fourth_autocorr(f: PlanarGrid) -> float:
    # oracle: the pair correlation by Wiener-Khinchin, squared and integrated
    c = spectral.pair_spectrum(f.values, f.step, f.periodic)
    return float((c * c).sum() * f.step * f.step)


def gowers_norm(f: PlanarGrid, n: int) -> float:
    """Box norm of order n on the plane (nonnegative f).

    U^2 is the Parseval sum of the fourth power of the transform on the
    torus; the eighth power of U^3 integrates the fourth power of
    U^2(f f(. + d)) over the shifts d.  The tests check U^2 against two
    private oracles that agree with it algebraically: direct shifted sums
    (``_kernels.u2_fourth_direct``) and the squared pair correlation
    (``_u2_fourth_autocorr``).
    """
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"box norm order must be 1..{MAX_DIMENSION}")
    if float(f.values.min()) < 0:
        raise ValueError("box norms are defined here for nonnegative samples")
    vals, h = _torus_values(f)
    if n == 1:
        return abs(float(vals.sum() * h * h))
    if n == 2:
        return _u2_fourth_spectral(vals, h) ** 0.25
    nn = vals.shape[0]
    total = 0.0
    for d1 in range(nn):
        rolled1 = np.roll(vals, -d1, axis=0)
        for d2 in range(nn):
            prod = vals * np.roll(rolled1, -d2, axis=1)
            total += _u2_fourth_spectral(prod, h) * h * h
    return float(total) ** (1.0 / 8.0)


@dataclass(frozen=True)
class CubeBoundCheck:
    lhs: float
    rhs: float
    ratio: float


def gowers_cs_bound(f: PlanarGrid, n: int, cube: tuple[float, float, float]) -> CubeBoundCheck:
    """Both sides of the cube-supported lower bound for the box norm.

    ``cube`` is (x0, y0, side).  The right side is
    |Q|^(-1 + (n+1)/2^n) * integral of f; the ratio lhs/rhs is bounded
    below by a positive constant calibrated once over random grids.
    """
    x0, y0, side = cube
    if side <= 0:
        raise ValueError("cube side must be positive")
    coords = f.node_coords()
    inside1 = (coords >= x0) & (coords <= x0 + side)
    inside2 = (coords >= y0) & (coords <= y0 + side)
    outside = np.where(~(inside1[:, None] & inside2[None, :]), f.values, 0.0)
    if float(np.abs(outside).max(initial=0.0)) > 0:
        raise ValueError("support leaks outside the declared cube")
    lhs = gowers_norm(f, n)
    area = side * side
    rhs = area ** (-1.0 + (n + 1) / 2.0**n) * float(measure(f))
    ratio = lhs / rhs if rhs > 0 else math.inf
    return CubeBoundCheck(lhs, rhs, ratio)


# ---------------------------------------------------------------------------
# degenerate-tuple diagnostics


def _sign_vectors(n: int) -> np.ndarray:
    """Nonzero sign patterns in {-1,0,1}^n up to global sign."""
    out = []
    for code in range(3**n):
        vec = []
        rem = code
        for _ in range(n):
            vec.append(rem % 3 - 1)
            rem //= 3
        first = next((v for v in vec if v != 0), 0)
        if first == 1:  # keep one representative per +-pair, drop zero
            out.append(vec)
    return np.array(out, dtype=np.float64)


def degenerate_mass(params: CountingParams, tol: float) -> float:
    """Fraction of quadrature angle tuples within tol of a collision plane.

    A tuple collides when some signed subset sum of its edge vectors has
    length at most tol.  Depends only on the quadrature.
    """
    n, m, lam = params.n, params.quadrature_nodes, params.lam
    cos_t, sin_t = _angles(m)
    signs = _sign_vectors(n)
    if n == 1:
        return 1.0 if lam <= tol else 0.0
    if m**n > 1 << 22:
        raise ValueError("degenerate_mass: M^n too large to enumerate; lower M")
    grids = np.meshgrid(*([np.arange(m)] * n), indexing="ij")
    idx = np.stack([g.ravel() for g in grids])  # (n, m^n)
    bad = np.zeros(idx.shape[1], dtype=bool)
    for c in signs:
        s1 = np.zeros(idx.shape[1])
        s2 = np.zeros(idx.shape[1])
        for k in range(n):
            if c[k] != 0:
                s1 += c[k] * lam * cos_t[idx[k]]
                s2 += c[k] * lam * sin_t[idx[k]]
        bad |= s1 * s1 + s2 * s2 <= tol * tol * (1 + 1e-12)
    return float(bad.mean())
