"""Run manifests and the on-disk result cache."""

from __future__ import annotations

import datetime as _dt
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .hashutil import canonical_json, content_hash


def file_sha(path: Path) -> str:
    return content_hash(path.read_bytes())


@dataclass
class RunManifest:
    """Snapshot of one orchestrated run.

    Re-running with the same config snapshot and master seed reproduces the
    listed CSV/JSON payloads byte-for-byte; the manifest itself carries
    timestamps and is excluded from that guarantee.
    """

    config: dict
    master_seed: int
    tool_version: str = __version__
    started_at: str = ""
    finished_at: str = ""
    outputs: list = field(default_factory=list)  # [{path, sha}]

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
            "outputs": sorted(self.outputs, key=lambda d: d["path"]),
            "run_key": self.content_key(),
        }
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return out

    @staticmethod
    def read(path: str | Path) -> dict:
        return json.loads(Path(path).read_text())


class ResultCache:
    """Content-addressed store for expensive scalar results.

    Keys hash the realization bytes together with the operation name and its
    canonical parameter JSON.  Reads are lock-free; writes go through a
    temporary file and an atomic rename, so concurrent writers of the same
    key are last-write-wins.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.hits: list[str] = []

    def key(self, realization_bytes: bytes, op_name: str, params: dict) -> str:
        return content_hash(realization_bytes, op_name, canonical_json(params))

    def get(self, key: str):
        path = self.root / f"{key}.json"
        if not path.exists():
            return None
        with self._lock:
            self.hits.append(key)
        return json.loads(path.read_text())

    def put(self, key: str, payload: dict) -> None:
        path = self.root / f"{key}.json"
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
