"""Result records, the JSON payload writer and the numerical failure family.

A record's payload is its dataclass fields: callers write
``dataclasses.asdict(record)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


def write_json(path: str | Path, obj) -> Path:
    """Write a payload as JSON: 2-space indent, sorted keys, final newline.

    Every JSON payload goes through here, so payloads that hold the same
    values are the same bytes.
    """
    path = Path(path)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


class NumericalFailure(Exception):
    """Base of every numerical failure; the CLI maps it to exit code 4.

    Each subclass also keeps its ValueError or RuntimeError base.
    """


@dataclass(frozen=True)
class SpeedEstimate:
    """A spreading-speed value with its method tag and error bar.

    ``optimizer`` is the minimizing p* (eigen method) or gamma* (Lyapunov
    method); it is None for the direct PDE method.  ``provenance`` carries
    realization id, window, grid and tolerance plus method-specific extras.
    """

    value: float
    method: str
    err: float
    optimizer: float | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("speed must be positive")
        if self.err < 0:
            raise ValueError("error bar must be nonnegative")
