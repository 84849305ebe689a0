"""Deterministic counter-based random streams.

A stream is the triple ``(seed, stream_id, counter)``; replaying the triple
replays the draws bit for bit, and derived streams for per-layer /
per-example work need no shared mutable state.  Backed by the Philox
counter-based generator, so distinct stream ids give statistically
independent sequences.

The Philox key is ``[seed, stream_id]`` converted the way numpy converts a
key list: when either word is >= 2**63 the list goes through float64, so
the key keeps only each word's top 53 bits.  Two such ids that differ only
in their low 11 bits therefore draw the same numbers; about half of all
derived ids are >= 2**63.  Every pinned result depends on this rounding, so
it stays.
"""
from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Uniform draws feeding the Gumbel transform are clamped this far away from
# {0, 1} so -log(-log(v)) stays finite.
GUMBEL_CLAMP = 1e-12


# One Philox and one Generator over it serve every stream: a draw sets the
# key and counter of the stream it draws from, instead of building a bit
# generator (which would first gather OS entropy for a seed the key then
# overrides).  The state it sets is one dict, refilled in place per draw;
# the setter copies the words out, so the arrays are never shared.
_PHILOX = np.random.Philox(0)
_GENERATOR = np.random.Generator(_PHILOX)
_STATE = {"bit_generator": "Philox",
          "state": {"key": np.zeros(2, dtype=np.uint64),
                    "counter": np.zeros(4, dtype=np.uint64)},
          "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
          "has_uint32": 0, "uinteger": 0}
_KEY = _STATE["state"]["key"]
_COUNTER = _STATE["state"]["counter"]
# float64 staging for a key that numpy would round (see _generator).
_ROUNDED_KEY = np.zeros(2)
# Raw words per block of a thresholded uniform draw: 64 KiB, under glibc's
# default 128 KiB mmap threshold, above which a fresh array is mmapped and
# faulted in page by page.
_RAW_BLOCK = 1 << 13


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; the standard way to spawn subkeys."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=1024)
def _tag_id(tag: str) -> int:
    """The 64-bit id of a string tag: the first 8 bytes of its blake2b
    digest, little-endian.  A run derives from a few dozen tags, so each is
    hashed once."""
    return int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=8).digest(),
                          "little")


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
                i = _tag_id(i)
            sid = _splitmix64(sid ^ ((int(i) & _MASK64) * _GOLDEN & _MASK64))
        return RngStream(self.seed, sid, 0)

    def derive_from_bytes(self, payload: bytes) -> "RngStream":
        """Child stream keyed by content, e.g. a token's raw feature bytes."""
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return self.derive(int.from_bytes(digest, "little"))

    def _generator(self) -> np.random.Generator:
        """The shared generator, set to this stream's key and counter.

        It stays valid only until the next draw from any stream, so every
        method draws from it at once.  The key and counter words are those
        of ``np.asarray([seed, stream_id]).astype(np.uint64)`` and
        ``np.asarray([0, 0, counter, 0]).astype(np.uint64)``, as in
        ``Philox(key=..., counter=...)``.  numpy gives a list of ints one
        integer type when its words are all below 2**63 or all at least
        2**63, so those words are exact; a list with both goes through
        float64, and such a key gets the same float64 cast here, rounding
        and invalid casts included.  A counter at 2**63 or above keeps the
        list expression.
        """
        seed, sid, counter = self.seed, self.stream_id, self.counter
        if (seed ^ sid) >> 63:
            _ROUNDED_KEY[0], _ROUNDED_KEY[1] = seed, sid
            np.copyto(_KEY, _ROUNDED_KEY, casting="unsafe")
        else:
            _KEY[0], _KEY[1] = seed, sid
        if counter >> 63:
            _COUNTER[:] = np.asarray([0, 0, counter, 0]).astype(np.uint64)
        else:
            _COUNTER[2] = counter
        _PHILOX.state = _STATE
        return _GENERATOR

    def _tick(self) -> np.random.Generator:
        g = self._generator()
        self.counter = (self.counter + 1) & _MASK64
        return g

    def normal(self, shape=()) -> np.ndarray:
        """I.i.d. standard normal draws."""
        return self._tick().standard_normal(shape, dtype=np.float64)

    def uniform(self, shape=(), at_least=None) -> np.ndarray:
        """I.i.d. uniform draws on [0, 1); with ``at_least=t``, the boolean
        array ``uniform(shape) >= t`` of the same draws, bit for bit, with
        no float64 array of ``shape``.

        numpy's ``random()`` maps a raw Philox word w to
        ``(w >> 11) * 2**-53``, so ``v >= t`` is
        ``w >= ceil(t * 2**53) * 2**11``: the mask is compared from the raw
        words, a block at a time.  t must lie in [0, 1), where that bound
        fits in 64 bits."""
        if at_least is None:
            return self._tick().random(shape, dtype=np.float64)
        if not 0.0 <= at_least < 1.0:
            raise ValueError(f"at_least must be in [0, 1), got {at_least!r}")
        bound = np.uint64(math.ceil(at_least * 2.0**53) << 11)
        self._tick()
        out = np.empty(shape, dtype=np.bool_)
        flat = out.reshape(-1)
        for i in range(0, flat.size, _RAW_BLOCK):
            words = _PHILOX.random_raw(min(_RAW_BLOCK, flat.size - i))
            np.greater_equal(words, bound, out=flat[i:i + words.size])
        return out

    def permutation(self, n: int) -> np.ndarray:
        return self._tick().permutation(n)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._tick().integers(low, high, size=shape)
