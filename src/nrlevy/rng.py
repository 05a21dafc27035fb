"""Reproducible random-number streams and the replica-block layout.

An :class:`RngStream` is identified by a 64-bit master seed plus a stream id;
identical identifiers always reproduce identical draws, and distinct ids or
subkeys yield statistically independent generators via ``SeedSequence``
spawn keys.  Block plans and experiments take a stream (argument ``rng``) and
split it into per-block generators with :func:`iter_blocks`, the only place
that does so; single-stream samplers take the ``np.random.Generator`` they
advance (argument ``gen``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """Addressable source of pseudo-randomness.

    ``seed`` is the experiment-level master seed, ``stream_id`` the replica
    (or replica-block) index.  ``substream`` derives further independent
    streams for internal decompositions without consuming any draws.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if not (0 <= int(self.stream_id) < 2**64):
            raise ValueError("stream_id must fit in 64 bits")

    def _seed_sequence(self, subkeys: tuple[int, ...]) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream_id), *map(int, subkeys))
        )

    def generator(self, *subkeys: int) -> np.random.Generator:
        """Return a fresh Generator for this stream (optionally sub-keyed)."""
        return np.random.default_rng(self._seed_sequence(subkeys))

    def substream(self, *subkeys: int) -> "RngStream":
        """Derive a child stream; children with distinct keys are independent."""
        # Fold the spawn key into a fresh 64-bit seed so the child is again
        # a plain (seed, stream_id) pair.
        seq = self._seed_sequence(subkeys)
        return RngStream(seed=int(seq.generate_state(1, dtype=np.uint64)[0]), stream_id=0)


BLOCK_SIZE = 1024
"""Replicas per vectorized block.

Fixed independently of the worker count so that experiment outputs are
bitwise identical for any degree of parallelism.  Block ``b`` of an
experiment draws from the generator that :func:`iter_blocks` pairs with it,
``stream.generator(b)``, and results are reduced in block order.
"""


def iter_blocks(stream: RngStream, total: int, block_size: int = BLOCK_SIZE):
    """Yield ``(gen, start, count)`` covering ``range(total)`` in order.

    The b-th block's ``gen`` is ``stream.generator(b)``, made when the block
    is reached.
    """
    for b, start in enumerate(range(0, total, block_size)):
        yield stream.generator(b), start, min(block_size, total - start)


def map_blocks(fn, blocks, threads: int) -> list:
    """``[fn(*b) for b in blocks]``, on a pool of ``threads`` threads if above 1.

    Results come back in block order whatever the schedule, so a block
    function that draws only from its own block's generator gives the same
    list for every thread count.
    """
    if threads <= 1:
        return [fn(*b) for b in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda args: fn(*args), blocks))
