"""Run manifests."""

from __future__ import annotations

import datetime as _dt
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .hashutil import canonical_json, content_hash


def file_sha(path: Path) -> str:
    return content_hash(path.read_bytes())


def environment(workers: int) -> dict:
    """What a run's timings depend on besides its config.

    The worker count, the numpy and scipy versions, the BLAS numpy was built
    with, the BLAS thread settings as found (None when unset) and the CPU
    count.  The tridiagonal LAPACK kernels come from scipy's own build,
    whose LAPACK is recorded next to numpy's BLAS.
    """
    def build(config: dict, key: str) -> str:
        dep = config["Build Dependencies"][key]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "workers": workers,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": build(np.show_config(mode="dicts"), "blas"),
        "scipy_lapack": build(scipy.show_config(mode="dicts"), "lapack"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


@dataclass
class RunManifest:
    """Snapshot of one orchestrated run.

    Re-running with the same config snapshot and master seed reproduces the
    listed CSV/JSON payloads byte-for-byte; the manifest itself carries
    timestamps and the environment, and is excluded from that guarantee.
    Neither enters the run key.
    """

    config: dict
    master_seed: int
    tool_version: str = __version__
    started_at: str = ""
    finished_at: str = ""
    outputs: list = field(default_factory=list)  # [{path, sha}]
    environment: dict = field(default_factory=dict)

    def start(self) -> "RunManifest":
        self.started_at = _dt.datetime.now(_dt.timezone.utc).isoformat()
        return self

    def finish(self) -> "RunManifest":
        self.finished_at = _dt.datetime.now(_dt.timezone.utc).isoformat()
        return self

    def record_output(self, path: str | Path) -> None:
        path = Path(path)
        self.outputs.append({"path": path.name, "sha": file_sha(path)})

    def content_key(self) -> str:
        return content_hash(canonical_json(self.config),
                            str(self.master_seed))

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir) / "manifest.json"
        payload = {
            "config": self.config,
            "master_seed": self.master_seed,
            "tool_version": self.tool_version,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "environment": self.environment,
            "outputs": sorted(self.outputs, key=lambda d: d["path"]),
            "run_key": self.content_key(),
        }
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return out

    @staticmethod
    def read(path: str | Path) -> dict:
        return json.loads(Path(path).read_text())

