"""Deterministic, stream-splittable sampling for the simulation experiments.

Every sampler is a pure function of its parameters and a :class:`SeedStream`.
Streams are realized with the counter-based Philox generator keyed by
``(master_seed, stream_index)``, so replicate ``r`` of experiment ``e`` can be
regenerated bit-for-bit regardless of scheduling order, and distinct streams
are statistically independent.  Philox is counter-based, so a stream's start
is just its state (key, counter 0, empty buffer): ``SeedStream.rekey`` writes
that state into a generator a replicate runner already holds, and the
generator then replays ``SeedStream.generator()`` bit for bit.  The runners
keep one generator per block of replicates and re-key it for each stream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeedStream",
    "derive_stream_index",
    "sample_gaussian_vector",
]

_MASK64 = (1 << 64) - 1
# counter and buffer of a fresh Philox stream
_ZEROS4 = np.zeros(4, dtype=np.uint64)


def derive_stream_index(*parts) -> int:
    """Map an arbitrary tuple (experiment label, n, replicate, role, ...) to a
    64-bit stream index through a stable cryptographic hash.

    Unlike built-in ``hash``, the result does not depend on the interpreter
    session, so seeds recorded in a manifest stay reproducible.
    """
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class SeedStream:
    """Identifier of one independent random stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {type(v).__name__}")

    def key(self) -> np.ndarray:
        """The Philox key, converted as ``Philox(key=list)`` converts it: a
        list that holds an integer >= 2^63 goes through float64, which drops
        its low 11 bits (``test_philox_key_keeps_a_high_stream_index_exactly``)."""
        return np.asarray([self.master_seed & _MASK64, self.stream_index & _MASK64]).astype(
            np.uint64
        )

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; calling twice replays the stream."""
        return np.random.Generator(np.random.Philox(key=self.key()))

    def rekey(self, gen: np.random.Generator) -> np.random.Generator:
        """Reset the Philox generator ``gen`` to this stream's start and
        return it: its draws then equal those of a fresh ``generator()``."""
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS4, "key": self.key()},
            "buffer": _ZEROS4,
            "buffer_pos": 4,  # empty: the next draw runs the counter
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    def child(self, *parts) -> "SeedStream":
        """Derived stream for a sub-task, mixing the parent index in."""
        return SeedStream(self.master_seed, derive_stream_index(self.stream_index, *parts))


def sample_gaussian_vector(cov: np.ndarray, stream: SeedStream, draws: int) -> np.ndarray:
    """A (draws, d) matrix of draws from N(0, cov), through the Cholesky
    factor of the positive-definite (d, d) array ``cov``."""
    root = np.linalg.cholesky(cov)
    return stream.generator().standard_normal((draws, len(cov))) @ root.T
