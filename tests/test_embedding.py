import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlab import (CountingParams, HypercubeCopy, PlanarGrid, PlanarSet,
                   SearchSpec, avoided_distance_demo, counting_sharp,
                   degenerate_mass, estimate_banach_density, find_copy,
                   make_indicator, pigeonhole_interval, read_pgm, scale_scan,
                   verify_copy)
from hdlab.calibrate import random_mask


def full_square(side=4.0):
    return PlanarSet.from_shapes([{"type": "rect", "x0": 0, "y0": 0,
                                   "x1": side, "y1": side}], side)


def test_find_copy_full_square_n2():
    out = find_copy(full_square(), (1.0, 1.0), SearchSpec(x_step=0.25))
    assert out.status == "found"
    assert verify_copy(full_square(), out.copy)
    assert out.copy.min_pairwise_gap() >= 1e-3


def test_find_copy_disk_n3():
    disk = PlanarSet.from_shapes([{"type": "disk", "cx": 10, "cy": 10, "r": 10}], 20.0)
    out = find_copy(disk, (1.0, 1.0, 1.0), SearchSpec(x_step=0.5))
    assert out.status == "found"
    assert verify_copy(disk, out.copy)


def test_find_copy_two_points_no_pair():
    two = PlanarSet.from_shapes([{"type": "disk", "cx": 1, "cy": 1, "r": 0.01},
                                 {"type": "disk", "cx": 2, "cy": 1, "r": 0.01}], 3.0)
    out = find_copy(two, (2.0,), SearchSpec(x_step=0.02, angle_count=180))
    assert out.status == "not_found"
    assert out.copy is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_square_contains_all_small_scales(n):
    side = 4.0
    sq = full_square(side)
    for lam in (0.3, side / (n + 1)):
        spec = SearchSpec(x_step=0.25, angle_count=90 if n == 3 else 360)
        out = find_copy(sq, (lam,) * n, spec)
        assert out.status == "found", (n, lam)


def test_find_copy_rectangular_boxes():
    # per-slot target lengths: the box variant with edge ratios (1, 2)
    out = find_copy(full_square(), (0.5, 1.0), SearchSpec(x_step=0.25))
    assert out.status == "found"
    lens = [math.hypot(*e) for e in out.copy.edges]
    assert lens[0] == pytest.approx(0.5, abs=1e-12)
    assert lens[1] == pytest.approx(1.0, abs=1e-12)


def test_find_copy_shape_permutation_invariant():
    shapes = [{"type": "disk", "cx": 1, "cy": 1, "r": 0.8},
              {"type": "rect", "x0": 2, "y0": 2, "x1": 3.5, "y1": 3.5}]
    a = PlanarSet.from_shapes(shapes, 4.0)
    b = PlanarSet.from_shapes(shapes[::-1], 4.0)
    spec = SearchSpec(x_step=0.25)
    ra = find_copy(a, (0.7,), spec)
    rb = find_copy(b, (0.7,), spec)
    assert ra.status == rb.status == "found"
    assert ra.copy == rb.copy


def test_find_copy_budget_and_resume():
    rng_mask = random_mask(1.0, 128, 0.02, 5)  # sparse: the scan works for it
    A = PlanarSet.from_bitmap(rng_mask)
    spec = SearchSpec(x_step=1 / 32, angle_count=180, budget=1000)
    out = find_copy(A, (0.4,), spec)
    if out.status == "budget_exceeded":
        assert out.resume_cursor >= 1000
        again = find_copy(A, (0.4,), SearchSpec(x_step=1 / 32, angle_count=180,
                                                resume_cursor=out.resume_cursor))
        assert again.status in ("found", "not_found")


def test_find_copy_resume_past_the_end_examines_nothing():
    disk = make_indicator([{"type": "disk", "cx": 0.5, "cy": 0.5, "r": 0.3}], 1.0, 1 / 32)
    spec = SearchSpec(x_step=0.25, angle_count=8, resume_cursor=10_000)
    out = find_copy(PlanarSet.from_bitmap(disk), (0.3,), spec)
    assert (out.status, out.resume_cursor, out.examined) == ("not_found", 128, 0)


def first_copy_by_loop(A, lengths, search):
    """Reference scan: decode each cursor in order and test its 2^n vertices."""
    spec = search.resolved(lengths)
    n, m = len(lengths), spec.angle_count
    th = 2.0 * np.pi * np.arange(m) / m
    cos_t, sin_t = np.cos(th), np.sin(th)
    pts = np.arange(spec.x_step / 2, A.side, spec.x_step)
    tuples = m**n
    total = len(pts) ** 2 * tuples
    for cur in range(total):
        xi, rem = divmod(cur, tuples)
        digits = [(rem // m ** (n - 1 - k)) % m for k in range(n)]
        verts = np.empty((1 << n, 2))
        for r in range(1 << n):
            p1, p2 = pts[xi // len(pts)], pts[xi % len(pts)]
            for k in range(n):
                if (r >> k) & 1:
                    p1 = p1 + lengths[k] * cos_t[digits[k]]
                    p2 = p2 + lengths[k] * sin_t[digits[k]]
            verts[r] = p1, p2
        if not A.membership(verts[:, 0], verts[:, 1]).all():
            continue
        v1, v2 = verts[:, 0], verts[:, 1]
        d2 = (v1[:, None] - v1[None, :]) ** 2 + (v2[:, None] - v2[None, :]) ** 2
        if d2[np.triu_indices(1 << n, 1)].min(initial=np.inf) >= spec.eta_gap * spec.eta_gap:
            return "found", cur, cur + 1
    return "not_found", total, total


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), nodes=st.integers(4, 12), density=st.floats(0.3, 1.0),
       seed=st.integers(0, 2**32 - 1), data=st.data(),
       angles=st.integers(3, 6), x_step=st.sampled_from([1 / 4, 1 / 5, 1 / 6]),
       eta_gap=st.sampled_from([0.0, 0.0137, 0.29]), pieces=st.integers(2, 9))
def test_find_copy_matches_cursor_loop(n, nodes, density, seed, data, angles, x_step,
                                       eta_gap, pieces):
    # gap thresholds lie off the bounds of the length range: a threshold equal
    # to an edge length is a tie that the round-off of the vertex sums decides
    lengths = tuple(data.draw(st.lists(st.floats(0.05, 0.7), min_size=n, max_size=n,
                                       unique=True), label="lengths"))
    A = PlanarSet.from_bitmap(random_mask(1.0, nodes, density, seed))
    spec = SearchSpec(x_step=x_step, angle_count=angles, eta_gap=eta_gap)
    out = find_copy(A, lengths, spec)
    assert (out.status, out.resume_cursor, out.examined) == first_copy_by_loop(A, lengths, spec)
    # the same scan cut into budgeted pieces and resumed finds the same cursor
    total = int(round(1 / x_step)) ** 2 * angles**n
    piece = replace(spec, budget=max(1, total // pieces))
    part = find_copy(A, lengths, piece)
    examined = part.examined
    while part.status == "budget_exceeded":
        part = find_copy(A, lengths, replace(piece, resume_cursor=part.resume_cursor))
        examined += part.examined
    assert (part.status, part.resume_cursor, examined) == (out.status, out.resume_cursor,
                                                           out.examined)
    if out.status == "found":
        assert part.copy == out.copy


def test_verify_copy_rejects_nudged_vertex():
    sq = full_square()
    out = find_copy(sq, (1.0, 1.0), SearchSpec(x_step=0.25))
    good = out.copy
    assert verify_copy(sq, good)
    nudged = HypercubeCopy((good.base[0] - 3.9, good.base[1]), good.edges,
                           good.target_lengths)
    assert not verify_copy(sq, nudged)


def test_verify_copy_rejects_degenerate_edges():
    sq = full_square()
    copy = HypercubeCopy((1.0, 1.0), ((1.0, 0.0), (1.0, 0.0)), (1.0, 1.0))
    assert not verify_copy(sq, copy)  # coincident vertices


def test_verify_copy_rejects_wrong_length():
    sq = full_square()
    copy = HypercubeCopy((1.0, 1.0), ((1.1, 0.0),), (1.0,))
    assert not verify_copy(sq, copy, eta_len=1e-3)


def test_bitmap_membership_matches_shapes():
    shapes = [{"type": "disk", "cx": 2, "cy": 2, "r": 1.2}]
    g = make_indicator(shapes, 4.0, 1 / 64)
    A_shape = PlanarSet.from_shapes(shapes, 4.0)
    A_bmp = PlanarSet.from_bitmap(g)
    pts = g.node_coords()
    X1, X2 = np.meshgrid(pts, pts, indexing="ij")
    m1 = A_shape.membership(X1.ravel(), X2.ravel())
    m2 = A_bmp.membership(X1.ravel(), X2.ravel())
    assert np.array_equal(m1, m2)


# --- exact 1-d demos ----------------------------------------------------------


def test_banach_z_avoids_half_integer():
    assert avoided_distance_demo("banach_Z", Fraction(1, 2)) is False


def test_banach_z_contains_integers():
    assert avoided_distance_demo("banach_Z", 1) is True
    assert avoided_distance_demo("banach_Z", Fraction(11, 10)) is True


def test_stripes_avoid_between_blocks():
    eps = Fraction(1, 100)
    assert avoided_distance_demo("stripes", Fraction(3, 2) * eps, eps=eps) is False


def test_stripes_contain_block_period():
    eps = Fraction(1, 100)
    assert avoided_distance_demo("stripes", 3 * eps, eps=eps) is True


def test_demo_requires_eps_for_stripes():
    with pytest.raises(ValueError):
        avoided_distance_demo("stripes", Fraction(1, 2))


# --- density estimation ---------------------------------------------------------


def test_density_full_square():
    A = PlanarSet.from_shapes([{"type": "rect", "x0": 0, "y0": 0, "x1": 10, "y1": 10}], 10.0)
    assert estimate_banach_density(A, [10.0]) == pytest.approx(1.0)


def test_density_striped_pattern():
    eps = 0.005
    k = 0
    intervals = []
    while 3 * k * eps + eps <= 1.0:
        intervals.append([3 * k * eps, 3 * k * eps + eps])
        k += 1
    A = PlanarSet.from_shapes([{"type": "stripes1d", "axis": 0, "intervals": intervals}], 1.0)
    dens = estimate_banach_density(A, [0.9])
    assert dens == pytest.approx(1 / 3, rel=0.05)


def test_density_empty():
    A = PlanarSet.from_bitmap(make_indicator([], 1.0, 1 / 64))
    assert estimate_banach_density(A, [0.25, 0.5, 1.0]) == 0.0


# --- pigeonhole interval ---------------------------------------------------------


def test_pigeonhole_full_square():
    g = make_indicator([{"type": "rect", "x0": 0, "y0": 0, "x1": 1, "y1": 1}], 1.0, 1 / 256)
    res = pigeonhole_interval(PlanarSet.from_bitmap(g), 0.5, 1, 0.25, 3)
    assert res.interval == (4.0**-res.j, 2 * 4.0**-res.j)
    assert all(w is not None for w in res.witnesses)
    assert res.witness_found


def test_pigeonhole_random_mask(constants):
    mask = random_mask(1.0, 256, 0.5, 4242)
    res = pigeonhole_interval(PlanarSet.from_bitmap(mask), 0.5, 1, 0.25, 3,
                              depth_coefficient=constants.value("J_coeff"))
    assert res.length == 4.0**-res.j
    assert res.length >= 4.0**-res.depth
    assert res.witness_found
    assert res.depth_bound_ok


def test_pigeonhole_rejects_thin_sets():
    mask = random_mask(1.0, 128, 0.1, 7)
    with pytest.raises(ValueError, match="measure"):
        pigeonhole_interval(PlanarSet.from_bitmap(mask), 0.5, 1, 0.25, 2)


def test_positivity_link(constants):
    # a positive sharp count above the degenerate fraction comes with a witness
    mask = random_mask(1.0, 256, 0.5, 11)
    lam = 0.25
    params = CountingParams(n=1, lam=lam, quadrature_nodes=128)
    count = counting_sharp(mask, params).value
    degen = degenerate_mass(mask, params, 1e-9)
    assert count > degen
    out = find_copy(PlanarSet.from_bitmap(mask), (lam,), SearchSpec(x_step=1 / 64))
    assert out.status == "found"


# --- scale scan -------------------------------------------------------------------


def test_scale_scan_disk():
    disk = PlanarSet.from_shapes([{"type": "disk", "cx": 10, "cy": 10, "r": 10}], 20.0)
    rows, threshold = scale_scan(disk, np.linspace(0.5, 5.0, 10), 2,
                                 SearchSpec(x_step=0.5))
    assert all(r["found"] for r in rows)
    assert threshold == 0.5


def test_scale_scan_two_far_disks():
    shapes = [{"type": "disk", "cx": 5, "cy": 5, "r": 1},
              {"type": "disk", "cx": 105, "cy": 5, "r": 1}]
    A = PlanarSet.from_shapes(shapes, 112.0)
    spec = SearchSpec(x_step=1.0, angle_count=180)
    found = {}
    for lam in (1.0, 50.0, 100.0):
        found[lam] = find_copy(A, (lam,), spec).status == "found"
    assert found[1.0]
    assert not found[50.0]
    assert found[100.0]


def test_scale_scan_empty_set():
    A = PlanarSet.from_bitmap(make_indicator([], 1.0, 1 / 32))
    rows, threshold = scale_scan(A, [0.1, 0.2], 1, SearchSpec(x_step=1 / 16))
    assert not any(r["found"] for r in rows)
    assert threshold is None


# --- PGM ------------------------------------------------------------------------


def test_pgm_roundtrip(tmp_path):
    vals = (np.arange(64 * 64).reshape(64, 64) % 7 < 3)
    img = np.where(vals, 200, 20).astype(np.uint8)
    # file rows top-to-bottom; our sample rows run along x1 (see read_pgm)
    raster = img.T[::-1, :]
    path = tmp_path / "mask.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n# test bitmap\n64 64\n255\n")
        fh.write(raster.tobytes())
    g = read_pgm(path, side=1.0)
    assert g.node_count == 64
    assert np.array_equal(g.values.astype(bool), vals)


def test_pgm_rejects_ascii(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError, match="P5"):
        read_pgm(path)
