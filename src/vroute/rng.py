"""Deterministic counter-based random streams.

Every stream is fully identified by the triple ``(seed, stream_id, counter)``;
replaying the triple replays the draws bit for bit, and derived streams for
per-layer / per-example work need no shared mutable state.  Backed by the
Philox counter-based generator, so distinct stream ids give statistically
independent sequences.
"""
from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Uniform draws feeding the Gumbel transform are clamped this far away from
# {0, 1} so -log(-log(v)) stays finite.
GUMBEL_CLAMP = 1e-12


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; the standard way to spawn subkeys."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def gumbel_from_uniform(v: np.ndarray) -> np.ndarray:
    """Map uniform (0,1) draws to standard Gumbel via -log(-log(v))."""
    v = np.clip(np.asarray(v, dtype=np.float64), GUMBEL_CLAMP, 1.0 - GUMBEL_CLAMP)
    return -np.log(-np.log(v))


class RngStream:
    """One logical stream of a counter-based generator.

    Each draw call consumes one counter tick, so a stream rewound to the same
    counter reproduces the same values.  ``derive`` spawns independent child
    streams (fresh stream_id, counter 0) without touching the parent.
    """

    __slots__ = ("seed", "stream_id", "counter")

    def __init__(self, seed: int, stream_id: int = 0, counter: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self.counter = int(counter) & _MASK64

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"

    def derive(self, *ids: int | str) -> "RngStream":
        """Child stream keyed by ints or string tags; independent of the parent."""
        sid = self.stream_id
        for i in ids:
            if isinstance(i, str):
                digest = hashlib.blake2b(i.encode(), digest_size=8).digest()
                i = int.from_bytes(digest, "little")
            sid = _splitmix64(sid ^ ((int(i) & _MASK64) * _GOLDEN & _MASK64))
        return RngStream(self.seed, sid, 0)

    def derive_from_bytes(self, payload: bytes) -> "RngStream":
        """Child stream keyed by content, e.g. a token's raw feature bytes."""
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return self.derive(int.from_bytes(digest, "little"))

    def _generator(self) -> np.random.Generator:
        bg = np.random.Philox(key=[self.seed, self.stream_id],
                              counter=[0, 0, self.counter, 0])
        return np.random.Generator(bg)

    def _tick(self) -> np.random.Generator:
        g = self._generator()
        self.counter = (self.counter + 1) & _MASK64
        return g

    def normal(self, shape=()) -> np.ndarray:
        """I.i.d. standard normal draws."""
        return self._tick().standard_normal(shape, dtype=np.float64)

    def uniform(self, shape=()) -> np.ndarray:
        """I.i.d. uniform draws on [0, 1)."""
        return self._tick().random(shape, dtype=np.float64)

    def permutation(self, n: int) -> np.ndarray:
        return self._tick().permutation(n)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._tick().integers(low, high, size=shape)
