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
    "CovMatrix",
    "IndefiniteCovarianceError",
    "sample_two_line",
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


def sample_two_line(n: int, stream: SeedStream, x_column: int = 0) -> np.ndarray:
    """``n`` points (x, y) with x = +/-1 equiprobable and, independently,
    y standard double exponential: the planar law concentrated on two parallel
    lines whose two optimal 2-means configurations tie exactly.

    Returns an (n, 2) array with x in column ``x_column`` and y in the
    other; the draws do not depend on the layout.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = stream.generator()
    pts = np.empty((n, 2))
    x, y = pts[:, x_column], pts[:, 1 - x_column]
    # both columns first hold +/-1: x, then the sign of y
    for col in (x, y):
        col[:] = gen.integers(0, 2, size=n)
        col *= 2.0
        col -= 1.0
    y *= gen.standard_exponential(size=n, method="inv")
    return pts


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric positive-semidefinite covariance matrix."""

    dimension: int
    entries: np.ndarray

    def __init__(self, entries):
        m = np.asarray(entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if not np.allclose(m, m.T, atol=1e-12, rtol=0.0):
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "dimension", m.shape[0])
        object.__setattr__(self, "entries", m)


class IndefiniteCovarianceError(ValueError):
    """Square-root factorization failed: the matrix has a negative eigenvalue."""


def _sqrt_factor(cov: CovMatrix) -> np.ndarray:
    """Symmetric square root via eigendecomposition; rejects indefinite input."""
    w, q = np.linalg.eigh(cov.entries)
    scale = max(abs(w[-1]), 1.0)
    if w[0] < -1e-10 * scale:
        raise IndefiniteCovarianceError(
            f"smallest eigenvalue {w[0]:.3e} is negative; matrix is not PSD"
        )
    w = np.clip(w, 0.0, None)
    return (q * np.sqrt(w)) @ q.T


def sample_gaussian_vector(cov: CovMatrix, stream: SeedStream, draws: int) -> np.ndarray:
    """A (draws, d) matrix of draws from N(0, cov), through the symmetric
    square root of ``cov``."""
    root = _sqrt_factor(cov)
    return stream.generator().standard_normal((draws, cov.dimension)) @ root.T
