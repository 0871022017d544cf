"""Hypercube vertex-product counting forms and Gowers box norms.

The sharp form integrates the 2^n-fold vertex product of ``f`` against the
product of dilated circle measures; the smoothed form replaces each circle
factor by its Gaussian mollification at relative width ``eps``.  Exact
evaluation goes through angle quadrature plus grid sums (sharp) or the tent
weights of ``spectral`` (smooth); the Monte Carlo estimator samples the
smoothing measure per slot while keeping the x-sum exact, with a
counter-based generator so results are a pure function of the seed.

The smoothed form is the T = 1, slot-0 call of ``_form_values``, which also
gives the derivative and box forms of ``decomposition`` at T outer scales.
For n = 1 it is the pair correlation of f times tent weights; for n = 2 the
four-point table of f contracted with tent weights in both slots.  The
correlation, the table and the tents' Gaussian profiles are kept in the
grid's cache (``grid.PlanarGrid.cache``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, spectral, sphere
from .grid import PlanarGrid, measure, shape_mask

# the benchmark's tracer patches this name here; nothing in this module calls it
sphere_fourier_radial = sphere.sphere_fourier_radial

EXACT = "exact_quadrature"
MONTE_CARLO = "monte_carlo"

MAX_DIMENSION = 3
DEFAULT_BUDGET = 1 << 34
# operations a table byte is priced at: DEFAULT_BUDGET then admits a
# four-point table of at most 74 support nodes (236 MB), not 124 (1.87 GB)
_BYTE_COST = 64


@dataclass(frozen=True)
class CountingParams:
    n: int
    lam: float
    eps: float = 1.0
    quadrature_nodes: int = 256
    estimator: str = EXACT
    mc_samples: int = 20000
    seed: int | None = None

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"pattern dimension must be 1..{MAX_DIMENSION}")
        if not self.lam > 0:
            raise ValueError("dilation must be positive")
        if not 0 < self.eps <= 1:
            raise ValueError("smoothing width must satisfy 0 < eps <= 1")
        _require_int("quadrature_nodes", self.quadrature_nodes, 1)
        _require_int("mc_samples", self.mc_samples, 2)
        if self.seed is not None:
            _require_int("seed", self.seed, 0)
            if self.seed >> 64:
                raise ValueError(f"seed must be below 2**64, got {self.seed!r}")
        if self.estimator not in (EXACT, MONTE_CARLO):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.estimator == MONTE_CARLO and self.seed is None:
            raise ValueError("monte_carlo estimator requires a seed")

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


# ---------------------------------------------------------------------------
# estimator internals


def _exact_cost(params: CountingParams, n_nodes: int) -> int:
    # sharp_sum evaluates one angle tuple per multiset of slot angles
    tuples = math.comb(params.quadrature_nodes + params.n - 1, params.n)
    return tuples * n_nodes**2 * (1 << params.n)


def _require_int(name: str, value, least: int):
    """Refuse a count that is not an integer (a bool is none) of at least ``least``, naming it."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_budget(cost: int, what: str):
    if cost > DEFAULT_BUDGET:
        raise ValueError(
            f"{what}: exact quadrature needs ~{cost:.3g} elementary operations, "
            f"over the budget {DEFAULT_BUDGET:.3g}; lower M/N or use monte_carlo"
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


def _ring_angles(params: CountingParams, step: float) -> int:
    # nodes at most a sixth of the smoothing width or a cell apart, rounded
    # up to a multiple of 4, which ``spectral.ring_tents`` folds onto a
    # quarter turn
    spacing = max(params.eps * params.lam, step)
    need = int(math.ceil(6.0 * math.pi * params.lam / spacing))
    return -(-max(params.quadrature_nodes, need, 64) // 4) * 4


def _pair_torus(f: PlanarGrid) -> np.ndarray:
    """The torus of ``spectral.pair_spectrum``, kept in ``f.cache``."""
    if "pair_torus" not in f.cache:
        f.cache["pair_torus"] = spectral.pair_spectrum(f.values, f.step, f.periodic)
    return f.cache["pair_torus"]


def _pair_correlation(f: PlanarGrid, lam: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, a): the 1-d offsets that ``_correlation_offsets`` gives and the
    pair correlation at the 2-d offsets they span, on the stored half of
    ``ring_tents`` (a is even, so its mirror rows hold the same values).
    """
    torus = _pair_torus(f)
    offsets = _correlation_offsets(f, lam, scale)
    at = offsets % len(torus)
    return offsets, torus[np.ix_(at, at)].ravel()[:(len(at) ** 2 + 1) // 2]


def _correlation_offsets(f: PlanarGrid, lam: float, scale: float) -> np.ndarray:
    # periodic: every offset within a tent of the ring of radius lam smoothed
    # at scale (g_s(y) / g_s(0) < 1e-17 at |y| = 3.6 s), read at d mod N;
    # zero-extended: those of the support extent e, beyond which a vanishes
    k = (math.ceil((lam + 3.6 * scale) / f.step) + 1 if f.periodic
         else spectral.support_extent(f.values) - 1)
    return np.arange(-k, k + 1)


def _form_values(f: PlanarGrid, tab: spectral.FourPointTable | None, m: int, scales,
                 tent_scales=None, params: CountingParams | None = None) -> np.ndarray:
    """A form at T scales with the Laplacian in slot m (none for m = 0),
    smoothed on the circle of radius ``params.lam`` or, with ``params``
    None, by plain Gaussians (the ring of radius 0).

    A slot takes the tents c, or -2 pi s dc/ds as the Laplacian slot.  Slot
    1 takes ``scales``, the Laplacian when m = 1; slot 2 takes
    ``tent_scales`` (default ``scales``), the Laplacian when m = 2.  n = 1
    (no ``tab``): the pair correlation contracted with slot 1.  n = 2: the
    four-point table contracted with both slots.  Nodes go in chunks whose
    blocks of ``column`` elements per node stay within
    ``_kernels.STACK_ELEMENTS``.  The tents' folded profiles are kept in
    ``f.cache`` (``grid.PlanarGrid.cache``) per chunk of scales, so forms
    that share a chunk, its radius and its angle count evaluate them once.
    """
    scales = np.asarray(scales, dtype=np.float64)
    tent_scales = scales if tent_scales is None else tent_scales
    lam = 0.0 if params is None else params.lam
    angles = 1 if params is None else _ring_angles(params, f.step)
    if tab is None:
        # the torus's transform and a scale's offsets^2 x angles tents, priced first
        torus = f.node_count if f.periodic else 2 * spectral.support_extent(f.values)
        nd = len(_correlation_offsets(f, lam, float(scales.max())))
        _require_budget(torus * torus * 8 + nd * nd * angles, "n = 1 form")
        offsets, corr = _pair_correlation(f, lam, float(scales.max()))
    else:
        offsets = tab.offsets
    nd = len(offsets)
    column = max(nd * nd, (nd + 2) * angles)

    def slot(s, laplacian):
        c = (spectral.ball_tents(offsets, f.step, s, laplacian, f.cache) if params is None
             else spectral.ring_tents(offsets, f.step, lam, s, angles, laplacian, f.cache))
        return -2.0 * math.pi * s * c if laplacian else c

    def values(sl):
        first = slot(scales[sl], m == 1)
        if tab is None:
            return corr @ first
        return spectral.assemble(tab, first, slot(tent_scales[sl], m == 2))

    size = max(1, _kernels.STACK_ELEMENTS // column)
    return np.concatenate([values(slice(i, i + size)) for i in range(0, len(scales), size)])


def _offset_table(f: PlanarGrid, what: str = "four-point table") -> spectral.FourPointTable:
    """The four-point table of f, kept in ``f.cache``.  Refused before anything is
    allocated when over ``DEFAULT_BUDGET``: a transform of the (2e)^2 support-box
    torus per stored row, (2e)^2 log2(2e) each, plus the triangle's bytes
    at ``_BYTE_COST`` each.
    """
    if f.periodic:
        raise ValueError("the exact two-slot path needs a zero-extended grid")
    side = 2 * spectral.support_extent(f.values)
    rows, entries = spectral.table_size(side // 2)
    cost = int(rows * side * side * math.log2(side)) + _BYTE_COST * 4 * entries
    _require_budget(cost, what)
    if "four_point_table" not in f.cache:
        f.cache["four_point_table"] = spectral.build_offset_table(f.values, f.step)
    return f.cache["four_point_table"]


# ---------------------------------------------------------------------------
# public counting forms


def counting_sharp(f: PlanarGrid, params: CountingParams) -> CountingReport:
    """Sharp form: angle-tuple quadrature with the exact grid x-sum."""
    if params.estimator == MONTE_CARLO:
        return _mc_report(f, params, smooth=False)
    cost = _exact_cost(params, f.node_count)
    _require_budget(cost, "counting_sharp")
    cos_t, sin_t = _kernels.circle_nodes(params.quadrature_nodes)
    val = _kernels.sharp_sum(f.values, f.step, params.lam, cos_t, sin_t,
                             params.n, f.periodic)
    return CountingReport(float(val), 0.0, params)


def counting_smooth(f: PlanarGrid, params: CountingParams) -> CountingReport:
    """Smoothed form at relative width eps: tents at the scale eps * lam, T = 1."""
    if params.estimator == MONTE_CARLO:
        return _mc_report(f, params, smooth=True)
    if params.n > 2:
        raise ValueError(
            "counting_smooth: the exact path supports n <= 2; use the monte_carlo estimator for n = 3"
        )
    tab = _offset_table(f, "counting_smooth") if params.n == 2 else None
    value = float(_form_values(f, tab, 0, [params.eps * params.lam], params=params)[0])
    return CountingReport(value, 0.0, params)


# ---------------------------------------------------------------------------
# Gowers box norms (zero-extended grids are embedded into a padded torus,
# which realises the full-plane shift integral exactly)


def gowers_norm(f: PlanarGrid, n: int) -> float:
    """Box norm of order n on the plane (nonnegative f).

    The fourth power of U^2 integrates the square of the pair correlation
    a(d) = h^2 sum_x f(x) f(x + dh), the torus the smoothed forms keep
    in ``f.cache``; the eighth power of U^3 integrates the fourth power of
    U^2(m_d), m_d = f f(. + d), over the shifts d, by Parseval.  m_-d is a
    translate of m_d, so ``spectral.offset_products`` transforms one of
    each pair, on the torus of its bounding box for a zero-extended grid.
    The tests check U^2 against two oracles that agree with it
    algebraically: direct shifted sums and the Parseval sum of the fourth
    power of the transform (``tests/conftest.py::u2_routes``).
    """
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"box norm order must be 1..{MAX_DIMENSION}")
    if float(f.values.min()) < 0:
        raise ValueError("box norms are defined here for nonnegative samples")
    h = f.step
    if n == 1:
        return abs(float(f.values.sum() * h * h))
    if n == 2:
        a = _pair_torus(f)
        return float((a * a).sum() * h * h) ** 0.25
    total = 0.0
    for d, spectra, torus, _ in spectral.offset_products(f.values, f.periodic):
        # the rfft2 half-lattice holds each frequency but its own mirror once
        mult = np.full(spectra.shape[2], 2.0)
        mult[0] = 1.0
        if torus[1] % 2 == 0:
            mult[-1] = 1.0
        power = spectra.real**2 + spectra.imag**2
        fourth = (power * power) @ mult
        pairs = 1.0 + np.any((2 * d) % f.node_count if f.periodic else d, axis=1)
        total += pairs @ fourth.sum(axis=1) / (torus[0] * torus[1])
    return float(total * h**8) ** (1.0 / 8.0)


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
    x = f.node_coords()
    cube = {"type": "rect", "x0": x0, "y0": y0, "x1": x0 + side, "y1": y0 + side}
    outside = np.where(~shape_mask([cube], x[:, None], x[None, :]), f.values, 0.0)
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
    cos_t, sin_t = _kernels.circle_nodes(m)
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
