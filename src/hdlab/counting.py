"""Hypercube vertex-product counting forms and Gowers box norms.

The sharp form integrates the 2^n-fold vertex product of ``f`` against the
product of dilated circle measures; the smoothed form replaces each circle
factor by its Gaussian mollification at relative width ``eps``.  Exact
evaluation goes through angle quadrature plus grid sums (sharp) or the
spectral engine (smooth); the Monte Carlo estimator samples the smoothing
measure per slot while keeping the x-sum exact, with a counter-based
generator so results are a pure function of the seed.
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
    return params.quadrature_nodes**params.n * n_nodes**2 * (1 << params.n)


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


def _sigma_weight_table(params: CountingParams, xi_max: float, gauss_scale: float):
    """Radial table of sigma-hat times the Gaussian factor.

    Frequencies where the Gaussian factor is below 1e-14 are cut; the
    circle-quadrature size is floored at 8 nodes per unit of lam * |xi| so
    the transform stays faithful over the whole table.
    """
    u_cut = xi_max * (1 + 1e-9)
    if gauss_scale > 0:
        u_cut = min(u_cut, 3.6 / gauss_scale)
    m_eff = max(params.quadrature_nodes,
                int(math.ceil(8.0 * params.lam * u_cut / 2.0)) * 2, 64)
    q = CircleQuadrature(m_eff, params.lam)
    u = np.linspace(0.0, u_cut, 1 << 15)
    w = sphere_fourier_radial(q, u)
    if gauss_scale > 0:
        w = w * np.exp(-np.pi * (gauss_scale * u) ** 2)

    def weight(xi):
        return np.interp(xi, u, w, right=0.0)

    def weight_exact(xi):
        v = sphere_fourier_radial(q, np.asarray(xi, dtype=np.float64))
        if gauss_scale > 0:
            v = v * np.exp(-np.pi * (gauss_scale * np.asarray(xi)) ** 2)
        return v

    return weight, weight_exact


def _ring_angles(params: CountingParams, step: float) -> int:
    spacing = max(params.eps * params.lam, step)
    need = int(math.ceil(6.0 * math.pi * params.lam / spacing))
    return max(params.quadrature_nodes, need, 64)


def ring_pad(f: PlanarGrid, lam: float) -> int:
    """Padding factor for circle-smoothed forms at scale ``lam``.

    The torus must resolve the support spectrum (four extents) and hold
    the smoothed ring plus the correlation support without wrap-around.
    """
    if f.periodic:
        return 1
    ext = spectral.support_extent(f.values) * f.step
    need = max(4.0 * ext, 5.0 * lam + 1.2 * ext + 6.0 * f.step)
    return max(1, int(math.ceil(need / f.side - 1e-9)))


def smooth_pair_value(f: PlanarGrid, params: CountingParams, gauss_scale: float) -> float:
    """n = 1 smoothed form: spectral pairing against sigma-hat times g-hat."""
    pad = ring_pad(f, params.lam)
    power, xi, mult, r2 = spectral.pair_spectrum(f.values, f.step, pad)
    weight, weight_exact = _sigma_weight_table(params, float(xi.max()), gauss_scale)
    if f.periodic:
        zero_w = 1.0
    else:
        zero_w = float(weight_exact(spectral.cell_radii(r2)).mean())
    return spectral.pair_value(power, xi, mult, r2, weight, zero_w)


def smooth_two_slot_value(f: PlanarGrid, params: CountingParams) -> float:
    """n = 2 smoothed form via the offset-spectra table."""
    if f.periodic:
        raise ValueError("the exact two-slot path needs a zero-extended grid")
    tab = _offset_table(f, ring_pad(f, params.lam))
    weight, weight_exact = _sigma_weight_table(params, float(tab.xi_bar.max()), params.eps * params.lam)
    zero_w = float(weight_exact(spectral.cell_radii(tab.torus_side)).mean())
    c, _ = spectral.ring_tents(tab, params.lam, params.eps * params.lam,
                               _ring_angles(params, f.step))
    return spectral.assemble(tab, c, weight(tab.xi_bar), zero_w)


def _offset_table(f: PlanarGrid, pad: int | None = None) -> spectral.OffsetTable:
    if pad is None:
        pad = spectral.auto_pad(f.values)
    cache = getattr(f, "_offset_tables", None)
    if cache is None:
        cache = {}
        object.__setattr__(f, "_offset_tables", cache)
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


def _clamped(value: float, f: PlanarGrid) -> float:
    # the spectral assembly carries a noise floor from midpoint-sampled
    # oscillatory weights; a value within it is zero at this precision
    floor = 1e-3 * max(float(f.values.sum()) * f.step**2, f.step**2)
    if value < -floor:
        raise ArithmeticError(f"counting value came out negative: {value:.3e}")
    return max(value, 0.0)


def counting_smooth(f: PlanarGrid, params: CountingParams) -> CountingReport:
    """Smoothed form at relative width eps."""
    if params.estimator == MONTE_CARLO:
        return _mc_report(f, params, smooth=True)
    if params.n == 1:
        cost = f.node_count**2 * 8
        _require_budget(cost, params, "counting_smooth")
        value = _clamped(smooth_pair_value(f, params, params.eps * params.lam), f)
        return CountingReport(value, 0.0, params)
    if params.n == 2:
        nd = 2 * f.node_count - 1
        cost = nd * nd * (4 * f.node_count) ** 2 // 4
        _require_budget(cost, params, "counting_smooth")
        return CountingReport(_clamped(smooth_two_slot_value(f, params), f), 0.0, params)
    raise ValueError(
        "counting_smooth: the exact path supports n <= 2; use the monte_carlo estimator for n = 3"
    )


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
    n = values.shape[0]
    total = 0.0
    for d1 in range(n):
        rolled1 = np.roll(values, -d1, axis=0)
        for d2 in range(n):
            a = (values * np.roll(rolled1, -d2, axis=1)).sum() * h * h
            total += a * a
    return total * h * h


def gowers_norm(f: PlanarGrid, n: int, route: str = "recursion") -> float:
    """Box norm of order n on the plane (nonnegative f).

    Routes for n = 2: 'recursion' (direct shifted sums), 'autocorrelation'
    (square of the pair correlation integrated over shifts) and 'spectral'
    (fourth power of the transform).  They are algebraically identical on
    the torus and serve as mutual oracles.
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
