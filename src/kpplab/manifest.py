"""Run manifests.

A suite run writes ``manifest.json`` next to its payloads: the config
snapshot, the master seed, the tool version, start and finish timestamps,
the environment and the sha of each payload.  Re-running with the same
config snapshot and master seed reproduces the listed payloads byte for
byte; the manifest itself carries timestamps and the environment, and is
excluded from that guarantee.  Neither enters the run key.
"""

from __future__ import annotations

import datetime as _dt
import os
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .hashutil import canonical_json, content_hash
from .results import write_json


def file_sha(path: Path) -> str:
    return content_hash(path.read_bytes())


def utc_now() -> str:
    """The current UTC time in ISO 8601."""
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


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


def run_key(config: dict, master_seed: int) -> str:
    """Content key of a run: its config snapshot and master seed."""
    return content_hash(canonical_json(config), str(master_seed))


def write_manifest(out_dir: str | Path, config: dict, master_seed: int,
                   started_at: str, environment: dict,
                   outputs: list[Path]) -> Path:
    """Write ``manifest.json`` into out_dir, finished now.

    ``outputs`` are the payload files of the run; each is recorded by name
    with the sha of its bytes.
    """
    records = [{"path": Path(p).name, "sha": file_sha(Path(p))}
               for p in outputs]
    return write_json(Path(out_dir) / "manifest.json", {
        "config": config,
        "master_seed": master_seed,
        "tool_version": __version__,
        "started_at": started_at,
        "finished_at": utc_now(),
        "environment": environment,
        "outputs": sorted(records, key=lambda d: d["path"]),
        "run_key": run_key(config, master_seed),
    })
