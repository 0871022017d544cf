"""Structured / error / uniform decomposition of the sharp counting form.

The sharp form splits as

    sharp = structured + (smooth_eps - structured) + (sharp - smooth_eps)

with ``structured`` the fully smoothed form (eps = 1).  This module
computes the three parts, the scale-derivative forms that control the
error part, the scale-integrated box forms with one Laplacian slot, and
the calibration sweeps that freeze the empirical constants.

Derivative forms come in matched pairs per slot (see ``spectral``): summed
over slots they telescope the smoothed form exactly up to the outer scale
quadrature, which is log-spaced and accepted only when one refinement
moves the result by less than a set fraction.  Each integrand is one call
of ``counting._form_values`` with the Laplacian slot m: the derivative
forms on the circle of radius lam, the box forms on plain Gaussians (the
ring of radius 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .counting import (CountingParams, _form_values, _offset_table, counting_sharp,
                       counting_smooth, ring_pad)
from .grid import PlanarGrid, measure

# the outer quadrature converges when one refinement moves it by less than this
_FLAG_TOLERANCE = 0.01

# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaleLadder:
    scales: tuple[float, ...]

    def __post_init__(self):
        s = self.scales
        if not s:
            raise ValueError("empty ladder")
        if any(b < 2 * a for a, b in zip(s, s[1:])):
            raise ValueError("ladder scales must grow by at least a factor 2")
        if s[0] <= 0:
            raise ValueError("scales must be positive")

    @classmethod
    def geometric(cls, smallest: float, count: int, ratio: float = 2.0) -> "ScaleLadder":
        return cls(tuple(smallest * ratio**j for j in range(count)))

    @property
    def depth(self) -> int:
        return len(self.scales)

    def check_window(self, side: float):
        if side < 2 * self.scales[-1]:
            raise ValueError(
                f"window side {side} must be at least twice the top scale {self.scales[-1]}"
            )


# ---------------------------------------------------------------------------
# the three parts


def structured_part(f: PlanarGrid, lam: float, n: int, **kw) -> float:
    """Fully smoothed counting form (smoothing width 1)."""
    params = CountingParams(n=n, lam=lam, eps=1.0, **kw)
    return counting_smooth(f, params).value


def uniform_part(f: PlanarGrid, lam: float, eps: float, n: int, **kw) -> float:
    """|sharp - smooth_eps| at one scale."""
    params = CountingParams(n=n, lam=lam, eps=eps, **kw)
    sharp = counting_sharp(f, params).value
    smooth = counting_smooth(f, params).value
    return abs(sharp - smooth)


@dataclass(frozen=True)
class DecompositionCell:
    lam: float
    eps: float
    sharp: float
    smooth: float
    structured: float

    @property
    def error_part(self) -> float:
        return self.smooth - self.structured

    @property
    def uniform_gap(self) -> float:
        return self.sharp - self.smooth

    def parts(self) -> tuple[float, float, float]:
        """Telescoping split; the parts sum to the sharp value exactly."""
        return self.structured, self.error_part, self.uniform_gap


def decompose(f: PlanarGrid, lam: float, eps: float, n: int, **kw) -> DecompositionCell:
    sharp = counting_sharp(f, CountingParams(n=n, lam=lam, eps=eps, **kw)).value
    smooth = counting_smooth(f, CountingParams(n=n, lam=lam, eps=eps, **kw)).value
    struct = counting_smooth(f, CountingParams(n=n, lam=lam, eps=1.0, **kw)).value
    return DecompositionCell(lam, eps, sharp, smooth, struct)


# ---------------------------------------------------------------------------
# scale-derivative forms


@dataclass(frozen=True)
class QuadratureValue:
    value: float
    coarse: float
    converged: bool


def _log_nodes(lo: float, hi: float, count: int):
    u = np.linspace(math.log(lo), math.log(hi), count)
    w = np.full(count, u[1] - u[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return np.exp(u), w


def _outer_sums(integrand, lo, hi, nodes) -> tuple[float, float]:
    """Log-trapezoid sums with ``nodes`` and ``2 nodes`` nodes on [lo, hi].

    The integrand is evaluated once, on both node sets together.
    """
    sc, wc = _log_nodes(lo, hi, nodes)
    sf, wf = _log_nodes(lo, hi, 2 * nodes)
    v = integrand(np.concatenate([sc, sf]))
    return float(wc @ v[:nodes]), float(wf @ v[nodes:])


def L_form(f: PlanarGrid, lam: float, alpha: float, beta: float, m: int, n: int,
           tnodes: int = 64, quadrature_nodes: int = 256) -> QuadratureValue:
    """Scale-derivative form for slot m over the band [alpha, beta].

    Summed over m = 1..n this telescopes smooth_alpha - smooth_beta.  The
    slot carrying the Laplacian smoothing is slot 1 in the spectral sense;
    slot 2 is realised through the scale derivative of its tent weights.
    The coarse (``tnodes``) and fine (``2 tnodes``) outer quadratures come
    from one batched evaluation over both node sets.
    """
    if not 0 < alpha < beta <= 1:
        raise ValueError("need 0 < alpha < beta <= 1")
    if not 1 <= m <= n:
        raise ValueError("slot index out of range")
    if n > 2:
        raise ValueError("the exact derivative form supports n <= 2")
    params = CountingParams(n=n, lam=lam, eps=1.0, quadrature_nodes=quadrature_nodes)
    tab = _offset_table(f, ring_pad(f, lam)) if n == 2 else None
    sums = _outer_sums(lambda ts: _form_values(f, tab, m, lam, ts * lam, params=params),
                       alpha, beta, tnodes)
    coarse, fine = (v / (2.0 * math.pi) for v in sums)
    scale = max(abs(fine), 1e-300)
    return QuadratureValue(fine, coarse, abs(fine - coarse) <= _FLAG_TOLERANCE * scale)


def lp_pow_sum(f: PlanarGrid, p: float) -> float:
    """h^2 sum of values^p (the p-norm of the sample cloud, p-th power)."""
    return float((f.values**p).sum() * f.step * f.step)


def theta_form(f: PlanarGrid, gammas, m: int, s_window=None,
               nodes: int = 128) -> QuadratureValue:
    """Scale-integrated box form with the Laplacian in slot m, truncated.

    The s-window defaults to [1e-3 h, 1e3 R].  The value is nonnegative up
    to truncation and quadrature; a negative result beyond a small multiple
    of the telescoping total is an error.  The coarse (``nodes``) and fine
    (``2 nodes``) outer quadratures come from one batched evaluation over
    both node sets.
    """
    gammas = tuple(float(g) for g in gammas)
    n = len(gammas)
    if n > 2:
        raise ValueError("the box form is implemented for n <= 2")
    if not 1 <= m <= n:
        raise ValueError("slot index out of range")
    if any(g <= 0 for g in gammas):
        raise ValueError("slot scales must be positive")
    if f.periodic:
        raise ValueError("the box form needs a zero-extended grid")
    if s_window is None:
        s_window = (1e-3 * f.step, 1e3 * f.side)
    smin, smax = s_window
    if smin > 1e-2 * f.step or smax < 1e2 * f.side:
        raise ValueError("s-window must cover [1e-2 step, 1e2 side]")

    tab = _offset_table(f, ring_pad(f, 0.0)) if n == 2 else None
    coarse, fine = _outer_sums(
        lambda ss: _form_values(f, tab, m, 0.0, ss * gammas[0], ss * gammas[-1]), smin, smax, nodes)
    scale = 2.0 * math.pi * lp_pow_sum(f, 2.0**n)
    if fine < -1e-6 * scale:
        raise ArithmeticError(
            f"box form came out negative ({fine:.3e} vs scale {scale:.3e})"
        )
    return QuadratureValue(fine, coarse, abs(fine - coarse) <= _FLAG_TOLERANCE * max(scale, 1e-300))


# ---------------------------------------------------------------------------
# calibration sweeps


@dataclass(frozen=True)
class BoundCheck:
    observed: float
    bound: float
    ok: bool
    detail: dict = field(default_factory=dict)


def check_structured_bound(sets, lam_values, n: int, frozen: float | None = None,
                           **kw) -> BoundCheck:
    """Minimum of smooth_1 / ((|B|/R^2)^(2^n) R^2) over sets and scales."""
    ratios = []
    for f in sets:
        dens = measure(f) / f.side**2
        denom = dens ** (2.0**n) * f.side**2
        for lam in lam_values:
            val = structured_part(f, lam, n, **kw)
            ratios.append(val / denom)
    worst = min(ratios)
    bound = frozen if frozen is not None else 0.0
    return BoundCheck(worst, bound, worst >= bound, {"ratios": ratios})


def check_error_bound(f: PlanarGrid, ladder: ScaleLadder, eps: float, n: int,
                      frozen: float | None = None, **kw) -> BoundCheck:
    """Ladder sum of |smooth_eps - smooth_1| against the frozen constant."""
    ladder.check_window(f.side)
    diffs = []
    for lam in ladder.scales:
        ne = counting_smooth(f, CountingParams(n=n, lam=lam, eps=eps, **kw)).value
        n1 = counting_smooth(f, CountingParams(n=n, lam=lam, eps=1.0, **kw)).value
        diffs.append(abs(ne - n1))
    total = float(sum(diffs))
    if eps >= 1.0:
        bound = 0.0
    else:
        coef = frozen if frozen is not None else 0.0
        bound = coef * eps ** (-3.0 * n) * math.log(1.0 / eps) * f.side**2
    ok = total <= bound if frozen is not None else True
    return BoundCheck(total, bound, ok, {"per_scale": diffs})


def check_uniform_bound(f: PlanarGrid, lam: float, eps_values, n: int,
                        frozen: float | None = None, **kw) -> BoundCheck:
    """Sweep of |sharp - smooth_eps| / (sqrt(eps) R^2) against one constant."""
    params0 = CountingParams(n=n, lam=lam, eps=1.0, **kw)
    sharp = counting_sharp(f, params0)
    rows = []
    inconclusive = False
    for eps in eps_values:
        params = CountingParams(n=n, lam=lam, eps=float(eps), **kw)
        smooth = counting_smooth(f, params)
        diff = abs(sharp.value - smooth.value)
        noise = math.hypot(sharp.estimator_stderr, smooth.estimator_stderr)
        if noise > 0.1 * max(diff, 1e-300):
            inconclusive = True
        rows.append((float(eps), diff, diff / (math.sqrt(eps) * f.side**2)))
    worst = max(r[2] for r in rows)
    bound = frozen if frozen is not None else 0.0
    ok = (worst <= bound) if frozen is not None else True
    return BoundCheck(worst, bound, ok and not inconclusive,
                      {"rows": rows, "inconclusive": inconclusive})


# ---------------------------------------------------------------------------
# report assembly


@dataclass(frozen=True)
class DecompositionReport:
    eps: float
    n: int
    cells: tuple[DecompositionCell, ...]
    constants: dict

    def rows(self):
        for c in self.cells:
            s, e, u = c.parts()
            ok = abs((s + e + u) - c.sharp) <= 1e-9 * max(abs(c.sharp), 1.0)
            yield {
                "lambda": float(c.lam),
                "eps": float(c.eps),
                "structured": float(s),
                "error": float(e),
                "uniform": float(u),
                "sharp": float(c.sharp),
                "telescoping_ok": bool(ok),
            }

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "n": self.n,
            "constants": self.constants,
            "rows": list(self.rows()),
        }


def decomposition_report(f: PlanarGrid, ladder: ScaleLadder, eps: float, n: int,
                         constants: dict | None = None, **kw) -> DecompositionReport:
    ladder.check_window(f.side)
    cells = tuple(decompose(f, lam, eps, n, **kw) for lam in ladder.scales)
    return DecompositionReport(eps, n, cells, constants or {})
