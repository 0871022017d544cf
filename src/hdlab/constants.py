"""Calibrated empirical constants.

The quantitative bounds assert the existence of constants without giving
values; here they are calibrated once over seeded sweeps, stored in a
versioned JSON file together with the settings that produced them, and
regression-tested afterwards.  ``hdlab calibrate`` regenerates the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

_DEFAULT_RESOURCE = "constants.json"


@dataclass(frozen=True)
class ConstantsFile:
    version: str
    entries: dict

    def value(self, name: str) -> float:
        try:
            return float(self.entries[name]["value"])
        except KeyError as exc:
            raise KeyError(f"constant {name!r} missing from constants file") from exc

    def settings(self, name: str) -> dict:
        return dict(self.entries[name].get("settings", {}))

    def to_dict(self) -> dict:
        return {"version": self.version, "entries": self.entries}


def load_constants(path=None) -> ConstantsFile:
    if path is None:
        ref = resources.files("hdlab.data").joinpath(_DEFAULT_RESOURCE)
        doc = json.loads(ref.read_text())
    else:
        with open(path) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict) or "version" not in doc or "entries" not in doc:
        raise ValueError("constants file needs 'version' and 'entries'")
    return ConstantsFile(str(doc["version"]), dict(doc["entries"]))


def save_constants(consts: ConstantsFile, path):
    with open(path, "w") as fh:
        json.dump(consts.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
