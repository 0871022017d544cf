import numpy as np
import pytest
from hypothesis import settings

from hdlab import gowers_norm, load_constants, make_indicator, spectral
from hdlab.calibrate import random_mask

# one profile for every property test: examples drawn from the test's source
# (repeatable across runs and machines), no example database, no deadline;
# a test sets only its example count
settings.register_profile("hdlab", deadline=None, derandomize=True, database=None)
settings.load_profile("hdlab")


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def torus_values(g) -> np.ndarray:
    """The samples of g on a torus that realises the plane's shift
    integrals: a periodic grid is its own, a zero-extended one is padded
    to 2N nodes."""
    if g.periodic:
        return g.values
    n = g.node_count
    padded = np.zeros((2 * n, 2 * n))
    padded[:n, :n] = g.values
    return padded


def u2_fourth_direct(values, h):
    """The fourth power of U^2 on the torus of ``values`` by direct shifted
    sums: h^2 sum_d a(d)^2, a(d) = h^2 sum_x f(x) f(x + d)."""
    n = values.shape[0]
    total = 0.0
    for d1 in range(n):
        for d2 in range(n):
            inner = (values * np.roll(values, (-d1, -d2), axis=(0, 1))).sum()
            total += (inner * h * h) ** 2
    return total * h * h


def u2_routes(g) -> list[float]:
    """U^2 of g by ``gowers_norm`` and by two oracles: direct shifted sums
    and the Parseval sum of the fourth power of the transform."""
    vals, h = torus_values(g), g.step
    coef = np.fft.fft2(vals) * h * h
    side = len(vals) * h
    return [gowers_norm(g, 2), u2_fourth_direct(vals, h) ** 0.25,
            float((np.abs(coef) ** 4).sum() / side**2) ** 0.25]


def fold(weights):
    """Weights of all nd^2 offsets, flat index k = a nd + b, onto the
    stored half up to d = 0: row k takes W[k] + W[nd^2 - 1 - k], the weight
    of its mirror -d, and d = 0 (odd nd) its own alone."""
    size = len(weights)
    folded = weights[:(size + 1) // 2].copy()
    folded[:size // 2] += weights[::-1][:size // 2]
    return folded


_FOUR_POINT_CACHE = {}


def four_point_ref(values, step, offsets):
    """Q(d1, d2) = h^2 sum_x f(x) f(x + d1) f(x + d2) f(x + d1 + d2) of a 0/1
    grid at every pair of the 2-d offsets that ``offsets`` span, flat as the
    tent weights: f read as 0 outside the grid, one product and one
    transform of a torus of at least the window plus the largest offset per
    offset d1, with no symmetry or crop.  The sums count nodes, so they are
    rounded to their integers: the zeros of Q are exact, as tent weights far
    larger than the value can multiply them.  The last result is kept."""
    assert np.isin(values, (0.0, 1.0)).all()
    key = (values.tobytes(), values.shape, step, np.asarray(offsets).tobytes())
    if key not in _FOUR_POINT_CACHE:
        _FOUR_POINT_CACHE.clear()
        n, k = values.shape[0], int(np.abs(offsets).max())
        t = 1 << (n + k).bit_length()
        rows = []
        for da in offsets:
            m = np.zeros((len(offsets), t, t))
            for i, db in enumerate(offsets):
                m[i, max(0, -da):min(n, n - da), max(0, -db):min(n, n - db)] = (
                    values[max(0, -da):min(n, n - da), max(0, -db):min(n, n - db)]
                    * values[max(0, da):min(n, n + da), max(0, db):min(n, n + db)])
            fm = np.fft.rfft2(m)
            corr = np.fft.irfft2(fm.real**2 + fm.imag**2, s=(t, t))
            rows.append(corr[:, offsets % t][:, :, offsets % t].reshape(len(offsets), -1))
        _FOUR_POINT_CACHE[key] = np.rint(np.concatenate(rows)) * step * step
    return _FOUR_POINT_CACHE[key]


def assemble_ref(q, c1, c2):
    """(value, magnitude): c1^T Q c2 over all offsets, and the same sum over
    absolute terms."""
    return np.array([c1 @ q @ c2, np.abs(c1) @ np.abs(q) @ np.abs(c2)])


def packed_table(step, offsets, q):
    """A ``FourPointTable`` holding the dense Q of ``offsets`` in its layout."""
    nd = len(offsets)
    half, entries = spectral.table_size((nd + 1) // 2)
    tab = spectral.FourPointTable(step, np.asarray(offsets), list(range(0, half, 128)),
                                  np.zeros(entries, dtype=np.float32))
    for r0, r1, c0, block in tab.blocks():
        block[...] = q[r0:r1, c0:half]
    return tab


@pytest.fixture(scope="session")
def constants():
    return load_constants()


@pytest.fixture(scope="session")
def disk_r4():
    """Unit disk centred in a 4x4 window."""
    return make_indicator([{"type": "disk", "cx": 2, "cy": 2, "r": 1}], 4.0, 1 / 64)


@pytest.fixture(scope="session")
def unit_square():
    return make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1}], 1.0, 1 / 64)


@pytest.fixture(scope="session")
def canonical_sets():
    """Square, disk and random-mask indicators on the unit window."""
    h = 1 / 64
    square = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1}], 1.0, h)
    disk = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.45}], 1.0, h)
    mask = random_mask(1.0, 64, 0.5, 77)
    return {"square": square, "disk": disk, "mask": mask}
