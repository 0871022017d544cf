"""Hypercube vertex-product counting forms and Gowers box norms.

The sharp form integrates the 2^n-fold vertex product of ``f`` against the
product of dilated circle measures; the smoothed form replaces each circle
factor by its Gaussian mollification at relative width ``eps``.  Exact
evaluation goes through angle quadrature plus grid sums (sharp) or the
spectral engine (smooth); the Monte Carlo estimator samples the smoothing
measure per slot while keeping the x-sum exact, with a counter-based
generator so results are a pure function of the seed.

The smoothed form is the T = 1, slot-0 call of ``_form_values``, the one
pairing of a spectrum with sigma-hat times a kernel, which also gives the
derivative and box forms of ``decomposition`` at T outer scales with the
Laplacian in slot 1 or 2.
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


def eval_F(f: PlanarGrid, x, ys, method: str = "direct") -> float:
    """Product of f over the 2^n vertices x + sum r_k y_k (bilinear reads).

    ``method='recurrence'`` splits off the last edge vector and multiplies
    the two half-products; both paths agree to round-off.
    """
    ys = np.asarray(ys, dtype=np.float64).reshape(-1, 2)
    if len(ys) < 1:
        raise ValueError("need at least one edge vector")
    x = np.asarray(x, dtype=np.float64)
    if method == "direct":
        return float(
            _kernels.vertex_product(f.values, f.step, float(x[0]), float(x[1]), ys, f.periodic)
        )
    if method == "recurrence":
        if len(ys) == 1:
            a = float(f.value_at(x[0], x[1]))
            b = float(f.value_at(x[0] + ys[0, 0], x[1] + ys[0, 1]))
            return a * b
        head, last = ys[:-1], ys[-1]
        return eval_F(f, x, head, "recurrence") * eval_F(f, x + last, head, "recurrence")
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# estimator internals


def _angles(m: int) -> tuple[np.ndarray, np.ndarray]:
    th = 2.0 * np.pi * np.arange(m) / m
    return np.cos(th), np.sin(th)


def _exact_cost(params: CountingParams, n_nodes: int) -> int:
    # sharp_sum evaluates one angle tuple per multiset of slot angles
    tuples = math.comb(params.quadrature_nodes + params.n - 1, params.n)
    return tuples * n_nodes**2 * (1 << params.n)


def _require_budget(cost: int, params: CountingParams, what: str):
    if cost > params.budget:
        raise ValueError(
            f"{what}: exact quadrature needs ~{cost:.3g} elementary operations, "
            f"over the configured budget {params.budget:.3g}; lower M/N or use monte_carlo"
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


def _sigma_weight_table(f: PlanarGrid, params: CountingParams, u_cut: float, lattice,
                        r2: float):
    """Sigma-hat on ``lattice`` from a radial table on [0, u_cut], zero
    beyond, and exactly at the zero-cell radii of a torus of side ``r2``.

    The circle-quadrature size is floored at 8 nodes per unit of
    lam * |xi| so the transform stays faithful over the whole table.  The
    table and the cell values are kept on ``f`` per (node count, lam,
    u_cut, r2), so the coarse and fine outer quadratures, the slots of
    ``L_form`` and the smoothed forms at a shared cut reuse one table.
    """
    m_eff = max(params.quadrature_nodes,
                int(math.ceil(8.0 * params.lam * u_cut / 2.0)) * 2, 64)
    memo = _grid_memo(f, "_sigma_tables")
    key = (m_eff, params.lam, u_cut, r2)
    if key not in memo:
        u = np.linspace(0.0, u_cut, 1 << 15)
        radii = np.concatenate([u, spectral.cell_radii(r2)])
        values = sphere_fourier_radial(CircleQuadrature(m_eff, params.lam), radii)
        values.setflags(write=False)
        memo[key] = u, values[:len(u)], values[len(u):]
    u, table, cells = memo[key]
    return np.interp(lattice, u, table, right=0.0), cells


def _ring_angles(params: CountingParams, step: float) -> int:
    spacing = max(params.eps * params.lam, step)
    need = int(math.ceil(6.0 * math.pi * params.lam / spacing))
    return max(params.quadrature_nodes, need, 64)


def ring_pad(f: PlanarGrid, lam: float) -> int:
    """Padding factor for circle-smoothed forms at scale ``lam``.

    The torus must resolve the support spectrum (four extents) and hold
    the smoothed ring plus the correlation support without wrap-around.
    The box forms smooth with plain Gaussians, the ring of radius 0, so
    ``lam = 0`` gives their torus.
    """
    if f.periodic:
        return 1
    ext = spectral.support_extent(f.values) * f.step
    need = max(4.0 * ext, 5.0 * lam + 1.2 * ext + 6.0 * f.step)
    return max(1, int(math.ceil(need / f.side - 1e-9)))


def _neg_khat(a, u: np.ndarray) -> np.ndarray:
    au = a * np.asarray(u)
    return 4.0 * np.pi**2 * au * au * np.exp(-np.pi * au * au)


def _ghat(a, u: np.ndarray) -> np.ndarray:
    au = a * np.asarray(u)
    return np.exp(-np.pi * au * au)


def _form_values(f: PlanarGrid, tab: spectral.OffsetTable | None, m: int, lam: float, scales,
                 tent_scales=None, params: CountingParams | None = None) -> np.ndarray:
    """A spectrum paired with sigma-hat times a kernel at T scales, Laplacian in slot m.

    m = 0 pairs g-hat, m = 1 pairs -k-hat and m = 2 pairs g-hat with the
    tent weights -2 pi s dc/ds at ``tent_scales`` s (default ``scales``).
    Without ``tab`` the pairing is with |F|^2 on the torus of
    ``ring_pad(f, lam)``; with an offset table it is with the table and
    the tent weights.  ``params`` gives the circle of radius ``lam``
    (sigma-hat, tents on rings of ``_ring_angles`` nodes); None means plain
    Gaussians: sigma-hat 1 and the one-node rings of ``ball_tents``.
    Sigma-hat is tabulated once, up to where g-hat at the smallest scale
    falls below 1e-17.  Nodes go in chunks whose blocks of ``column``
    elements per node stay within ``_kernels.STACK_ELEMENTS``.
    """
    scales = np.asarray(scales, dtype=np.float64)
    tent_scales = scales if tent_scales is None else tent_scales
    kernel = _neg_khat if m == 1 else _ghat
    if tab is None:
        power, lattice, mult, r2 = spectral.pair_spectrum(f.values, f.step, ring_pad(f, lam))
        column = lattice.size
    else:
        lattice, r2 = tab.xi_bar, tab.torus_side
        nd = len(tab.offsets)
        angles = 1 if params is None else _ring_angles(params, f.step)
        column = max(lattice.size, nd * nd, (nd + 2) * angles)
    cells = spectral.cell_radii(r2)
    sig_lattice = sig_cells = 1.0
    if params is not None:
        u_cut = min(float(lattice.max()) * (1 + 1e-9), 3.6 / float(scales.min()))
        sig_lattice, sig_cells = _sigma_weight_table(f, params, u_cut, lattice, r2)

    def tents(sl):
        s, deriv = tent_scales[sl], m == 2
        c = (spectral.ball_tents(tab, s, deriv) if params is None
             else spectral.ring_tents(tab, lam, s, angles, deriv))
        return -2.0 * math.pi * s * c if deriv else c

    def values(sl):
        weights = sig_lattice * kernel(scales[sl].reshape((-1,) + (1,) * lattice.ndim), lattice)
        zero_w = (sig_cells * kernel(scales[sl, None], cells)).mean(axis=1)
        if tab is None and f.periodic:  # unpadded torus: the zero cell is the frequency 0 alone
            zero_w = weights[:, 0, 0]
        if tab is None:
            return spectral.pair_value(power, mult, r2, weights, zero_w)
        return spectral.assemble(tab, tents(sl), weights.T, zero_w)

    size = max(1, _kernels.STACK_ELEMENTS // column)
    return np.concatenate([values(slice(i, i + size)) for i in range(0, len(scales), size)])


def _offset_table(f: PlanarGrid, pad: int) -> spectral.OffsetTable:
    if f.periodic:
        raise ValueError("the exact two-slot path needs a zero-extended grid")
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
    _require_budget(cost, params, "counting_sharp")
    cos_t, sin_t = _angles(params.quadrature_nodes)
    val = _kernels.sharp_sum(f.values, f.step, params.lam, cos_t, sin_t,
                             params.n, f.periodic)
    return CountingReport(float(val), 0.0, params)


def _clamped(value: float, f: PlanarGrid, params: CountingParams) -> float:
    # the spectral assembly carries a noise floor from midpoint-sampled
    # oscillatory weights; a value within it is zero at this precision
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
    if params.n == 1:
        cost = f.node_count**2 * 8
    else:
        # the offset table holds the offsets within the support extent
        nd = 2 * max(spectral.support_extent(f.values), 1) - 1
        cost = nd * nd * (4 * f.node_count) ** 2 // 4
    _require_budget(cost, params, "counting_smooth")
    tab = _offset_table(f, ring_pad(f, params.lam)) if params.n == 2 else None
    value = _form_values(f, tab, 0, params.lam, [params.eps * params.lam], params=params)
    return CountingReport(_clamped(float(value[0]), f, params), 0.0, params)


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


def _u2_fourth_autocorr(values: np.ndarray, h: float) -> float:
    # pair correlation c(d) = h^2 sum_x f(x) f(x + d) by Wiener-Khinchin
    c = np.fft.irfft2(np.abs(np.fft.rfft2(values)) ** 2, s=values.shape) * h * h
    return float((c * c).sum() * h * h)


def gowers_norm(f: PlanarGrid, n: int, route: str = "recursion") -> float:
    """Box norm of order n on the plane (nonnegative f).

    Routes for n = 2: 'recursion' (direct shifted sums), 'autocorrelation'
    (square of the pair correlation integrated over shifts, the correlation
    taken by Wiener-Khinchin from |rfft2|^2) and 'spectral' (fourth power
    of the transform).  They are algebraically identical on the torus and
    serve as mutual oracles.
    """
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"box norm order must be 1..{MAX_DIMENSION}")
    if float(f.values.min()) < 0:
        raise ValueError("box norms are defined here for nonnegative samples")
    vals, h = _torus_values(f)
    if n == 1:
        return abs(float(vals.sum() * h * h))
    if n == 2:
        if route == "recursion":
            fourth = _kernels.u2_fourth_direct(vals, h)
        elif route == "autocorrelation":
            fourth = _u2_fourth_autocorr(vals, h)
        elif route == "spectral":
            fourth = _u2_fourth_spectral(vals, h)
        else:
            raise ValueError(f"unknown route {route!r}")
        return float(fourth) ** 0.25
    if route != "recursion":
        raise ValueError("only the recursion route is defined for n = 3")
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


def degenerate_mass(f: PlanarGrid, params: CountingParams, tol: float) -> float:
    """Fraction of quadrature angle tuples within tol of a collision plane.

    A tuple collides when some signed subset sum of its edge vectors has
    length at most tol.  Depends only on the quadrature, not on f.
    """
    del f
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
