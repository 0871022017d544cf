import numpy as np
import pytest
from hypothesis import settings

from hdlab import _kernels, counting, gowers_norm, load_constants, make_indicator
from hdlab.calibrate import random_mask

# one profile for every property test: examples drawn from the test's source
# (repeatable across runs and machines), no example database, no deadline;
# a test sets only its example count
settings.register_profile("hdlab", deadline=None, derandomize=True, database=None)
settings.load_profile("hdlab")


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def u2_routes(g) -> list[float]:
    """U^2 of g by ``gowers_norm`` and by its two oracles: direct shifted
    sums and the squared pair correlation."""
    vals, h = counting._torus_values(g)
    return [gowers_norm(g, 2), _kernels.u2_fourth_direct(vals, h) ** 0.25,
            counting._u2_fourth_autocorr(g) ** 0.25]


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
