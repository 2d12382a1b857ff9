#!/usr/bin/env python
"""Quickstart: the ScheMoE layer as module and as system.

Mirrors the paper's Listing 2: build an MoE layer configured with a
compressor, an all-to-all algorithm and a scheduler; train it for a
few steps like any module; then ask it how it would execute on the
paper's 32-GPU testbed.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ScheMoELayer, paper_testbed
from repro.nn import Adam, Tensor


def main() -> None:
    rng = np.random.default_rng(0)

    # --- Listing 2: moe_module = schemoe.MoE(...) ---------------------
    layer = ScheMoELayer(
        model_dim=64,
        hidden_dim=128,
        num_experts=8,
        rng=rng,
        top_k=2,
        capacity_factor=1.25,
        compress_name="zfp",      # AbsCompressor plugin
        comm_name="pipe",         # AbsAlltoAll plugin (Pipe-A2A)
        scheduler_name="optsche", # the Theorem-1 optimal order
        partitions=2,
    )

    # --- it is a normal module: fit a toy regression ------------------
    x = rng.standard_normal((64, 64)).astype(np.float32)
    target = np.tanh(x[:, ::-1].copy())
    optimizer = Adam(layer.parameters(), lr=3e-3)
    print("training the MoE layer on a toy target:")
    for step in range(40):
        optimizer.zero_grad()
        out = layer(Tensor(x))
        loss = ((out - Tensor(target)) ** 2).mean()
        loss = loss + 0.01 * layer.last_aux_loss
        loss.backward()
        optimizer.step()
        if step % 10 == 0 or step == 39:
            gate = layer.last_gate_output
            print(
                f"  step {step:>2}: loss={float(loss.data):.4f} "
                f"expert load={gate.expert_load.tolist()} "
                f"dropped={gate.dropped_tokens}"
            )

    # --- and a system object: plan execution on the testbed -----------
    spec = paper_testbed()
    plan = layer.plan(spec, batch_per_gpu=8, seq_len=512)
    print(f"\nexecution plan on {spec.name} "
          f"({spec.world_size} simulated GPUs):")
    print(f"  per-chunk durations: compress={plan.durations.compress*1e3:.3f}ms "
          f"a2a={plan.durations.a2a*1e3:.3f}ms "
          f"decompress={plan.durations.decompress*1e3:.3f}ms "
          f"expert={plan.durations.expert*1e3:.3f}ms")
    print(f"  forward makespan:  {plan.forward.makespan*1e3:.3f} ms "
          f"(hidden {plan.forward.hidden_time*1e3:.3f} ms)")
    print(f"  backward makespan: {plan.backward.makespan*1e3:.3f} ms")
    print(f"  layer total:       {plan.total_s*1e3:.3f} ms at r={plan.partitions}")
    print("\nforward timeline (paper Fig. 5(c) shape):")
    print(plan.forward.render(width=64))


if __name__ == "__main__":
    main()
