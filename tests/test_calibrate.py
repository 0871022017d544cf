"""The frozen constants against a re-run of their calibration sweeps."""

import json

import pytest

from hdlab import calibrate

# c_str alone takes about 13 s; the CI workflow re-runs it
CHEAP = ["c_ball", "C_decay", "C_domination", "J_coeff", "C_err", "C_uni", "c_gcs"]


def inputs(settings):
    """The settings a sweep is run at: its outputs dropped, JSON types."""
    return {k: v for k, v in json.loads(json.dumps(settings)).items()
            if k not in ("observed", "attained_radius")}


def test_every_shipped_constant_has_a_sweep_and_a_side(constants):
    assert set(calibrate.SWEEPS) == set(constants.entries)
    assert {side for _, side in calibrate.SWEEPS.values()} == {"lower", "upper"}


@pytest.mark.parametrize("name", CHEAP)
def test_sweep_stays_on_the_safe_side(name, constants):
    sweep, _ = calibrate.SWEEPS[name]
    entry = sweep()
    assert inputs(entry["settings"]) == inputs(constants.settings(name))
    assert calibrate.off_safe_side({name: entry}, constants) == []


def test_off_safe_side_names_a_crossing(constants):
    # a lower bound observed below its value and an upper bound above it
    entries = {"c_str": {"settings": {"observed": 0.5 * constants.value("c_str")}},
               "C_uni": {"settings": {"observed": 2.0 * constants.value("C_uni")}},
               "C_err": {"settings": {"observed": constants.value("C_err")}}}
    bad = calibrate.off_safe_side(entries, constants)
    assert [msg.split(":")[0] for msg in bad] == ["c_str", "C_uni"]
