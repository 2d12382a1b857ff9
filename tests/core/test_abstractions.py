"""Tests of the abstraction/extension API (paper Listings 1-2)."""

import numpy as np
import pytest

from repro.collectives import available_a2a, get_a2a
from repro.compression import (
    CompressedTensor,
    available_compressors,
    get_compressor,
)
from repro.core import AbsAlltoAll, AbsCompressor, register_plugins


def test_register_custom_compressor_via_listing2_api():
    class HalfTheBytes(AbsCompressor):
        """Toy codec: keeps every other element (lossy, 2x)."""

        name = "toy-half"
        bits_per_value = 16.0

        def compress(self, tensor):
            arr = np.ascontiguousarray(tensor, dtype=np.float32)
            return CompressedTensor(
                codec=self.name,
                shape=arr.shape,
                dtype=np.dtype(np.float32),
                payload={"data": arr.reshape(-1)[::2].copy()},
                meta={"n": arr.size},
            )

        def decompress(self, compressed):
            out = np.zeros(compressed.meta["n"], dtype=np.float32)
            out[::2] = compressed.payload["data"]
            out[1::2] = compressed.payload["data"][
                : out[1::2].size
            ]
            return out.reshape(compressed.shape)

    register_plugins(compressor=HalfTheBytes)
    assert "toy-half" in available_compressors()
    codec = get_compressor("toy-half")
    x = np.arange(8, dtype=np.float32)
    assert codec.roundtrip(x).shape == x.shape


def test_register_custom_a2a_via_listing2_api(small_spec):
    from repro.collectives import measure_a2a

    class BroadcastishA2A(AbsAlltoAll):
        """Toy algorithm: plain sequential transfers, rank order."""

        name = "toy-seq"

        def schedule(self, cluster, streams, nbytes):
            chunk = nbytes / cluster.world_size
            done = []
            for rank in cluster.iter_ranks():
                for peer in cluster.iter_ranks():
                    done.append(
                        streams[rank].comm.submit(
                            self._xfer(cluster, rank, peer, chunk)
                        )
                    )
            return done

        @staticmethod
        def _xfer(cluster, src, dst, chunk):
            def work():
                yield from cluster.transfer(src, dst, chunk)

            return work

    register_plugins(a2a=BroadcastishA2A)
    assert "toy-seq" in available_a2a()
    result = measure_a2a(get_a2a("toy-seq"), small_spec, 1e6)
    assert result.seconds > 0


def test_duplicate_registration_rejected():
    from repro.collectives.base import register_a2a
    from repro.collectives.nccl_a2a import NcclA2A

    class Impostor(NcclA2A):
        name = "nccl"

    with pytest.raises(ValueError):
        register_a2a(Impostor)


def test_registration_requires_name():
    class Nameless(AbsCompressor):
        def compress(self, tensor):  # pragma: no cover
            raise NotImplementedError

        def decompress(self, compressed):  # pragma: no cover
            raise NotImplementedError

    with pytest.raises(ValueError):
        register_plugins(compressor=Nameless)


def test_custom_plugins_schedulable_end_to_end(paper_spec, rng):
    """A registered custom codec + A2A work through ScheMoELayer.plan
    unchanged — the paper's core extensibility claim."""
    from repro.core import ScheMoELayer

    layer = ScheMoELayer(
        model_dim=32,
        hidden_dim=64,
        num_experts=32,
        rng=rng,
        compress_name="toy-half" if "toy-half" in available_compressors() else "fp16",
        comm_name="toy-seq" if "toy-seq" in available_a2a() else "nccl",
    )
    plan = layer.plan(paper_spec, batch_per_gpu=2, seq_len=64)
    assert plan.total_s > 0
