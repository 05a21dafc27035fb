"""The replica-block layout: which generator each block of replicas draws from."""

import numpy as np
import pytest

from nrlevy.rng import BLOCK_SIZE, RngStream, iter_blocks

pytestmark = pytest.mark.bytes


class TestIterBlocks:
    @pytest.mark.parametrize("total, size", [(0, 4), (1, 4), (8, 4), (9, 4), (700, 256)])
    def test_blocks_cover_the_range_with_the_stream_generators(self, total, size):
        stream = RngStream(17, 3)
        blocks = list(iter_blocks(stream, total, size))
        covered = [i for _, start, count in blocks for i in range(start, start + count)]
        assert covered == list(range(total))
        assert all(0 < count <= size for _, _, count in blocks)
        for b, (gen, _, _) in enumerate(blocks):
            ref = stream.generator(b)
            assert np.array_equal(gen.random(5), ref.random(5))
            assert gen.integers(2**62) == ref.integers(2**62)

    def test_default_block_size(self):
        counts = [count for _, _, count in iter_blocks(RngStream(1), 2 * BLOCK_SIZE + 5)]
        assert counts == [BLOCK_SIZE, BLOCK_SIZE, 5]
