"""Deterministic random-number streams.

Every source of randomness in the package is a numpy PCG64 generator keyed
by a pair of 64-bit integers ``(seed, stream_id)``.  The pair is mixed into
generator state by ``numpy.random.SeedSequence((seed, stream_id))``, so the
mapping from pair to output sequence is a fixed, published algorithm:
identical pairs give identical sequences on every platform running the same
numpy.  Experiment trials use ``stream_id = trial index``, which makes
parallel and serial execution produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream", "as_generator", "DEFAULT_SEED"]

# default CLI/suite seed: fixed so every run is reproducible unless the
# caller opts into entropy explicitly
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class RngStream:
    """A reproducible stream spec: (seed, stream_id) -> PCG64 generator.

    Instances are immutable; ``generator()`` returns a fresh generator
    positioned at the start of the stream every time it is called.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not (0 <= int(self.stream_id) < 2**64):
            raise ValueError("stream_id must be an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        """Materialize the stream as a numpy Generator."""
        ss = np.random.SeedSequence((int(self.seed), int(self.stream_id)))
        return np.random.Generator(np.random.PCG64(ss))


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream, a live Generator, or a bare int seed.

    An RngStream (or int) materializes a fresh generator; a Generator is
    returned as-is so sequential operations can share one stream.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator()
    raise TypeError(f"expected RngStream, numpy Generator, or int; got {type(rng)!r}")
