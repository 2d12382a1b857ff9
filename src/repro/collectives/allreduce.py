"""Hierarchical allreduce time model.

The non-MoE parameters of the models in the paper (attention layers,
embeddings, gating networks) are trained data-parallel, so every step
ends with an allreduce of their gradients.  The step-time simulator
prices this as NCCL runs it on a multi-node cluster: reduce
intra-node, ring across nodes, broadcast intra-node.
"""

from __future__ import annotations

from ..cluster.topology import ClusterSpec


def hierarchical_allreduce_time(spec: ClusterSpec, nbytes: float) -> float:
    """Reduce intra-node, ring across nodes, broadcast intra-node.

    This is how NCCL actually handles multi-node allreduce.
    """
    if nbytes < 0:
        raise ValueError(f"negative payload: {nbytes}")
    if nbytes == 0:
        return 0.0
    gpn = spec.gpus_per_node
    nodes = spec.num_nodes
    # Intra-node reduce + broadcast: each stage moves (gpn-1)/gpn of
    # the payload per GPU across the shared fabric as fused bulk
    # copies (NCCL's ring uses large pipelined chunks here).
    intra = 0.0
    if gpn > 1:
        stage = spec.intra_bulk_link.transfer_time(
            nbytes * (gpn - 1) / gpn * gpn
        )
        intra = 2.0 * stage
    inter = 0.0
    if nodes > 1:
        steps = 2 * (nodes - 1)
        inter = steps * spec.inter_link.transfer_time(nbytes / nodes)
    return intra + inter
