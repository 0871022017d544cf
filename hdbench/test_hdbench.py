"""Self-tests of the benchmark's oracles and checks.

    python3 -m pytest -q hdbench/test_hdbench.py

The oracles are compared with brute-force counts, and each workload's
check is shown to reject a deliberately wrong output.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def brute_pair_area(inside, lam, lo, hi, nodes=800, angles=128):
    """Angle average of |A intersected with (A - lam w)| by a midpoint count."""
    h = (hi - lo) / nodes
    x = lo + (np.arange(nodes) + 0.5) * h
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    base = inside(x1, x2)
    total = 0.0
    for t in 2 * np.pi * (np.arange(angles) + 0.5) / angles:
        total += np.count_nonzero(base & inside(x1 + lam * np.cos(t), x2 + lam * np.sin(t)))
    return total * h * h / angles


@pytest.mark.parametrize("lam", [0.1, 0.7, 1.5, 2.5])
def test_lens_area_matches_brute_force(lam):
    r = 1.0
    got = brute_pair_area(lambda a, b: a * a + b * b <= r * r, lam, -1.0, 1.0)
    assert oracles.lens_area(r, lam) == pytest.approx(got, rel=5e-3, abs=1e-9)


@pytest.mark.parametrize("lam", [0.2, 0.9, 1.2, 2.5])
def test_rect_pair_area_matches_brute_force(lam):
    a, b = 1.25, 0.75
    got = brute_pair_area(lambda p, q: (p >= 0) & (p <= a) & (q >= 0) & (q <= b), lam, 0.0, a)
    assert oracles.rect_pair_area(a, b, lam) == pytest.approx(got, rel=5e-3, abs=1e-9)


def test_pgm_round_trip_and_cursor(tmp_path):
    from hdlab.embedding import PlanarSet, SearchSpec, find_copy, read_pgm

    mask = oracles.raster([{"type": "disk", "cx": 0.6, "cy": 0.3, "r": 0.2}], 1.0, 1 / 32)
    oracles.write_pgm(tmp_path / "m.pgm", mask)
    g = read_pgm(tmp_path / "m.pgm", 1.0)
    assert np.array_equal(g.values >= 0.5, mask)
    out = find_copy(PlanarSet.from_bitmap(g), (0.15, 0.1), SearchSpec(x_step=1 / 16, angle_count=12))
    assert out.status == "found"
    c = out.copy
    assert oracles.scan_cursor(c.base, c.edges, 1.0, 1 / 16, 12) == out.resume_cursor
    assert oracles.lattice_count(1.0, 1 / 16) == 16


def write_report(out_dir: Path, filename: str, report: dict):
    out_dir.mkdir(parents=True)
    (out_dir / filename).write_text(json.dumps({"report": report}))


def decompose_rows(w, name, n, scale=1.0):
    rows = []
    for lam in w.lambdas():
        sharp = w.oracle(name, lam) * (scale if n == 1 else 0.5)
        rows.append({"lambda": lam, "eps": w.EPS, "structured": sharp, "error": 0.0,
                     "uniform": 0.0, "sharp": sharp, "telescoping_ok": True})
    return {"rows": rows}


def test_decompose_check_rejects_a_wrong_sharp_value(tmp_path):
    w = workloads.Decompose(1, tmp_path)
    check = {job.name: job.check for job in w.jobs()}
    good = {"rect-n1": tmp_path / "good", "rect-n2": tmp_path / "good2"}
    write_report(good["rect-n1"], "decompose.json", decompose_rows(w, "rect", 1))
    write_report(good["rect-n2"], "decompose.json", decompose_rows(w, "rect", 2))
    assert max(check["rect-n1"](good).values()) < 1e-12
    assert check["rect-n2"](good) == {}
    bad = {"rect-n1": tmp_path / "bad"}
    write_report(bad["rect-n1"], "decompose.json", decompose_rows(w, "rect", 1, scale=1.03))
    with pytest.raises(CheckFailed, match="oracle"):
        check["rect-n1"](bad)
    above = dict(good, **{"rect-n2": tmp_path / "above"})
    rows = decompose_rows(w, "rect", 2)
    rows["rows"][0]["sharp"] = rows["rows"][0]["structured"] = 2 * w.oracle("rect", w.lambdas()[0])
    write_report(above["rect-n2"], "decompose.json", rows)
    with pytest.raises(CheckFailed, match="outside"):
        check["rect-n2"](above)


class Value:
    def __init__(self, value):
        self.value = value


def test_scale_forms_check_rejects_a_broken_identity(tmp_path):
    w = workloads.ScaleForms(1, tmp_path)
    check = {job.name: job.check for job in w.jobs()}
    assert check["disk-L2"]({"disk-L2": ([Value(0.3), Value(0.2)], (1.5, 1.0))}) == {"disk-L2": 0.0}
    with pytest.raises(CheckFailed, match="L_form"):
        check["disk-L2"]({"disk-L2": ([Value(0.3), Value(0.22)], (1.5, 1.0))})
    _, side, step, _, shapes = w.grids[0]
    target = 2 * math.pi * oracles.raster(shapes, side, step).sum() * step * step
    assert check["disk-T1"]({"disk-T1": [Value(target)]}) == {"disk-T1": 0.0}
    with pytest.raises(CheckFailed, match="theta"):
        check["disk-T1"]({"disk-T1": [Value(1.05 * target)]})
    with pytest.raises(CheckFailed, match="negative"):
        check["disk-T2"]({"disk-T2": [Value(1.1 * target), Value(-0.1 * target)]})


def test_witness_check_rejects_a_vertex_outside_the_set(tmp_path):
    w = workloads.WitnessScan(1, tmp_path)
    jobs = {job.name: job for job in w.jobs()}
    config = dict(w.configs)["shapes-n1"]
    ii, jj = np.nonzero(w.shape_mask)
    h, lam = w.shape_step, config["lengths"][0]
    # a member base point on the scan lattice with its neighbour at angle 0 also a member
    for i, j in sorted(zip(ii, jj)):
        base = ((i + 0.5) * h, (j + 0.5) * h)
        if oracles.member(w.shape_mask, h, 1.0, base[0] + lam, base[1]):
            break
    cursor = oracles.scan_cursor(base, [(lam, 0.0)], 1.0, h, 90)
    report = {"status": "found", "verified": True, "resume_cursor": cursor, "examined": cursor + 1,
              "witness": {"base": list(base), "edges": [[lam, 0.0]]}}
    write_report(tmp_path / "ok", "embed.json", report)
    assert "raster-area" in jobs["shapes-n1"].check({"shapes-n1": tmp_path / "ok"})
    report["witness"]["base"] = [0.01, 0.01]
    write_report(tmp_path / "bad", "embed.json", report)
    with pytest.raises(CheckFailed, match="outside the set"):
        jobs["shapes-n1"].check({"shapes-n1": tmp_path / "bad"})
