"""64-bit seed derivation and stable content hashing."""

from __future__ import annotations

import hashlib
import json

_MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64 finalizer; a bijective scramble of a 64-bit word."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def hash64(*words: int) -> int:
    """Order-sensitive 64-bit hash of integer words.

    Child seeds are derived as hash64(master_seed, stream_id) so that sweeps
    can pair realizations across parameter values (common random numbers).
    """
    h = 0
    for w in words:
        h = mix64(h ^ (int(w) & _MASK64))
    return h


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _blake2b(parts, digest_size: int) -> bytes:
    h = hashlib.blake2b(digest_size=digest_size)
    for p in parts:
        h.update(p.encode("utf-8") if isinstance(p, str) else p)
    return h.digest()


def content_hash(*parts) -> str:
    """Hex blake2b digest of a sequence of bytes/str parts."""
    return _blake2b(parts, 16).hex()


def content_hash64(*parts) -> int:
    """64-bit integer digest, used for derived realization ids."""
    return int.from_bytes(_blake2b(parts, 8), "little")
