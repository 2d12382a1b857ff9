"""Command-line interface: reproduce any paper experiment in one line.

Usage::

    python -m repro list                 # available experiments
    python -m repro table7               # CT-MoE-x system comparison
    python -m repro fig9                 # A2A algorithm sweep
    python -m repro a2a --algo pipe --size 256e6
    python -m repro step --model ct_moe --layers 12 --policy ScheMoE
    python -m repro plan                 # auto-tune the system config
    python -m repro faults               # straggler / flapping / retries
    python -m repro reshard              # kill -> recover -> scale-up
    python -m repro pipeline --num-chunks 4 --workers 4
    python -m repro infer --tokens 4096 --experts 32
    python -m repro trace --out /tmp/schedule.json

The table commands (``table1``, ``table7``, ``table8``, ``table10``,
``fig9``) print the exact text their bench saves under
``benchmarks/out/``: both run the one builder and renderer of
:mod:`repro.systems.tables`, the CLI on any ``--cluster`` preset and
the bench on the paper testbed, where it also asserts the paper's
shape.  ``plan``, ``faults`` and ``reshard`` do the same for the
studies of :mod:`repro.systems.planner`, :mod:`repro.systems.faults`
and :mod:`repro.systems.recovery`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .cluster import get_preset
from .collectives import get_a2a, measure_a2a
from .models import PAPER_MODELS, ct_moe
from .systems import ALL_POLICIES, SystemRunner
from .systems.tables import TABLES


#: Printed under the wall-clock lines of ``pipeline`` and ``infer``.
SINGLE_SAMPLE_NOTE = (
    "timing: one warm-up pass, then a single timed sample per side; the "
    "paired A/B claim is benchmarks/bench_hotpath.py"
)


def cmd_list(_args) -> int:
    """List experiments, policies, models and cluster presets."""
    print("experiments:", " ".join(c for c in COMMANDS if c != "list"))
    print("policies:   ", ", ".join(sorted(ALL_POLICIES)))
    print("models:     ", ", ".join(sorted(PAPER_MODELS)))
    from .cluster.presets import PRESETS

    print("clusters:   ", ", ".join(sorted(PRESETS)))
    return 0


def cmd_table(args) -> int:
    """Print one paper table exactly as its bench's sidecar renders it."""
    table = TABLES[args.command]
    print(table.render(table.build(get_preset(args.cluster))))
    return 0


def cmd_a2a(args) -> int:
    """Measure one all-to-all call on the selected cluster."""
    spec = get_preset(args.cluster)
    result = measure_a2a(get_a2a(args.algo), spec, args.size)
    if result.oom:
        print(f"{args.algo} @ {args.size:.3e} B: OOM "
              f"(peak {result.peak_bytes_per_gpu / 2**30:.1f} GiB/GPU)")
        return 1
    print(
        f"{args.algo} @ {args.size:.3e} B/GPU: {result.seconds * 1e3:.3f} ms"
        f"  busbw {result.busbw_bps / 1e9:.2f} GB/s"
        f"  intra {result.stats['intra_bytes'] / 1e6:.1f} MB"
        f"  inter {result.stats['inter_bytes'] / 1e6:.1f} MB"
    )
    return 0


def cmd_faults(args) -> int:
    """Schedules and A2A algorithms under injected faults.

    Prints the fault study of :mod:`repro.systems.faults` on
    ``--cluster`` — the exact text ``bench_ablation_faults.py`` saves
    on the paper testbed.  Exit status is 0 iff every acceptance check
    holds; the failing checks are named otherwise.
    """
    from .systems import faults

    report = faults.run_faults_study(get_preset(args.cluster))
    print(faults.render(report))
    failed = faults.failed_checks(report)
    for name in failed:
        print(f"FAILED: {name}")
    return 1 if failed else 0


def cmd_reshard(args) -> int:
    """Elastic re-sharding: kill → recover → scale-up, then priced.

    Prints the recovery study of :mod:`repro.systems.recovery` on
    ``--cluster`` — the exact text ``bench_ablation_recovery.py``
    saves on the paper testbed.  Exit status is 0 iff every parity
    check and acceptance flag holds.
    """
    from .systems import recovery

    spec = get_preset(args.cluster)
    report = recovery.run_recovery_study(spec)
    print(recovery.render(report, spec))
    return 0 if all(report["acceptance"].values()) else 1


def cmd_step(args) -> int:
    """Per-component breakdown of one model step under a policy."""
    if args.model == "ct_moe":  # CT-MoE takes its depth from --layers
        cfg = ct_moe(args.layers)
    else:
        cfg = PAPER_MODELS[args.model]()
    policy = ALL_POLICIES[args.policy]
    result = SystemRunner(get_preset(args.cluster)).step(cfg, policy)
    if result.oom:
        print(f"{cfg.name} under {policy.name}: OOM "
              f"({result.memory_bytes / 2**30:.1f} GiB needed)")
        return 1
    print(f"{cfg.name} under {policy.name}: {result.total_s * 1e3:.1f} ms/step")
    print(f"  MoE layers: {result.moe_total_s * 1e3:9.1f} ms "
          f"(A2A tasks {result.a2a_total_s * 1e3:.1f} ms, "
          f"ratio {result.a2a_ratio * 100:.1f}%)")
    print(f"  attention:  {result.attention_s * 1e3:9.1f} ms")
    print(f"  gate:       {result.gate_s * 1e3:9.1f} ms")
    print(f"  embed/head: {result.head_s * 1e3:9.1f} ms")
    print(f"  allreduce:  {result.allreduce_s * 1e3:9.1f} ms")
    print(f"  optimizer:  {result.optimizer_s * 1e3:9.1f} ms")
    print(f"  memory:     {result.memory_bytes / 2**30:9.1f} GiB/GPU")
    return 0


def cmd_plan(args) -> int:
    """Auto-tune the system configuration for CT-MoE-12.

    Prints the planner study of :mod:`repro.systems.planner` on
    ``--cluster`` — the exact text ``bench_planner.py`` saves on the
    paper testbed.  Exit status is 0 iff every acceptance check holds;
    the failing checks are named otherwise.
    """
    from .systems import planner

    report = planner.plan(get_preset(args.cluster))
    print("\n".join(report.summary_lines()))
    failed = planner.failed_checks(report)
    for name in failed:
        print(f"FAILED: {name}")
    return 1 if failed else 0


def cmd_pipeline(args) -> int:
    """Sync-vs-overlap chunked expert-parallel forward on real numerics.

    Builds one MoE layer shared by ``--workers`` logical workers, runs
    the chunked task-graph forward in both pipeline modes over the
    same shards, verifies the outputs are bit-identical, and reports
    the wall-clock per mode plus the speedup (a single timed pass per
    mode after one warm-up; the paired claim is
    ``benchmarks/bench_hotpath.py``).  This is the paper's central
    mechanism on the numerical substrate — not the simulator.

    It also reports the cross-worker bytes the A2As put on the wire
    beside the codec's nominal ``compressed_bytes`` of the same
    payloads in fp32 (measured on a codec-free twin of the layer), and
    fails unless they agree within 1%.  zfp pads each payload to whole
    64-value blocks, so rows narrower than 64 values can miss that on
    tiny shapes.
    """
    import time

    import numpy as np

    from .compression import get_compressor
    from .moe import MoELayer
    from .moe.parallel import ExpertParallelGroup

    def build_layer(codec):
        return MoELayer(
            model_dim=args.model_dim,
            hidden_dim=args.hidden_dim,
            num_experts=args.experts,
            rng=np.random.default_rng(0),
            top_k=2,
            capacity_factor=2.0,
            compressor=codec,
        ).eval()

    def cross_worker_bytes(group):
        return (
            group.last_dispatch_traffic.off_diagonal_bytes
            + group.last_combine_traffic.off_diagonal_bytes
        )

    codec = get_compressor(args.compressor) if args.compressor else None
    layer = build_layer(codec)
    rng = np.random.default_rng(1)
    tokens = rng.standard_normal(
        (args.tokens, args.model_dim)
    ).astype(np.float32)
    shards = list(np.split(tokens, args.workers))

    outputs, seconds = {}, {}
    for pipeline in ("sync", "overlap"):
        group = ExpertParallelGroup(
            layer,
            args.workers,
            pipeline=pipeline,
            num_chunks=args.num_chunks,
            scheduler=args.scheduler,
            link_bandwidth=(
                args.link_gbps * 1e9 / 8 if args.link_gbps else None
            ),
        )
        group.forward(shards)  # warm caches and the buffer pool
        t0 = time.perf_counter()
        outputs[pipeline] = group.forward_concatenated(shards)
        seconds[pipeline] = time.perf_counter() - t0
    wire = cross_worker_bytes(group)
    fp32_group = ExpertParallelGroup(
        build_layer(None), args.workers, num_chunks=args.num_chunks
    )
    fp32_group.forward(shards)
    fp32 = cross_worker_bytes(fp32_group)
    nominal = codec.compressed_bytes(fp32) if codec else fp32

    exact = bool(np.array_equal(outputs["sync"], outputs["overlap"]))
    bytes_ok = abs(wire - nominal) <= 0.01 * nominal
    print(
        f"chunked expert-parallel forward: E={args.experts} "
        f"M={args.model_dim} T={args.tokens} P={args.workers} "
        f"r={args.num_chunks} codec={args.compressor or 'none'} "
        f"scheduler={args.scheduler}"
    )
    print(f"  sync:    {seconds['sync'] * 1e3:8.2f} ms")
    print(f"  overlap: {seconds['overlap'] * 1e3:8.2f} ms "
          f"({seconds['sync'] / seconds['overlap']:.2f}x)")
    print(f"  {SINGLE_SAMPLE_NOTE}")
    print(f"  outputs bit-identical: {exact}")
    print(
        f"  cross-worker wire bytes (dispatch + combine): {wire:,.0f}; "
        f"codec nominal {nominal:,.0f} of fp32 {fp32:,.0f}; "
        f"within 1%: {bytes_ok}"
    )
    return 0 if exact and bytes_ok else 1


def cmd_infer(args) -> int:
    """Autograd-free inference forward vs the training-tape forward.

    Builds one MoE layer, runs the same batch through the regular
    (tape-building) ``eval()`` forward and through
    ``forward_inference`` — the process-wide ``inference_mode()`` plus
    an arena of pooled scratch buffers — verifies the outputs are
    bit-identical, and reports forward tokens/sec for both paths (a
    single timed pass each after one warm-up) plus the arena's
    buffer-pool reuse counters.  A steady-state inference
    loop should show zero new pool misses after its first step.
    """
    import time

    import numpy as np

    from .moe import MoELayer

    layer = MoELayer(
        model_dim=args.model_dim,
        hidden_dim=args.hidden_dim,
        num_experts=args.experts,
        rng=np.random.default_rng(0),
        top_k=2,
        capacity_factor=2.0,
    ).eval()
    from .nn.tensor import Tensor

    rng = np.random.default_rng(1)
    tokens = rng.standard_normal(
        (args.tokens, args.model_dim)
    ).astype(np.float32)
    x = Tensor(tokens)

    # Training-tape forward, eval mode: warm-up and parity baseline.
    baseline = layer(x).data.copy()

    t0 = time.perf_counter()
    layer(x)
    train_s = time.perf_counter() - t0
    inferred = layer.forward_inference(x).data  # warm-up and parity
    exact = bool(np.array_equal(baseline, inferred))
    misses_after_warmup = layer._inference_arena.pool.misses
    t0 = time.perf_counter()
    layer.forward_inference(x)
    infer_s = time.perf_counter() - t0
    stats = layer._inference_arena.stats()

    print(
        f"inference fast path: E={args.experts} M={args.model_dim} "
        f"H={args.hidden_dim} T={args.tokens} k=2"
    )
    print(f"  training-tape forward: {train_s * 1e3:8.2f} ms "
          f"({args.tokens / train_s:,.0f} tok/s)")
    print(f"  inference forward:     {infer_s * 1e3:8.2f} ms "
          f"({args.tokens / infer_s:,.0f} tok/s, "
          f"{train_s / infer_s:.2f}x)")
    print(f"  {SINGLE_SAMPLE_NOTE}")
    print(f"  outputs bit-identical: {exact}")
    print(f"  arena pool: hits={stats['hits']} misses={stats['misses']} "
          f"bytes_allocated={stats['bytes_allocated']:,}")
    steady = stats["misses"] == misses_after_warmup
    print(f"  steady-state reuse (no new misses after warmup): {steady}")
    return 0 if exact and steady else 1


def cmd_trace(args) -> int:
    """Export a ScheMoE layer's forward schedule as a chrome trace.

    Plans the layer's shape the way :meth:`ScheMoELayer.plan` does,
    without building its expert weights.
    """
    from .core.moe_layer import layer_only_config, layer_policy
    from .core.system import simulate_model_step
    from .core.trace import export_schedule_trace

    cfg = layer_only_config(
        args.model_dim, args.hidden_dim, 32, args.batch, args.seq
    )
    policy = layer_policy(
        args.compressor, args.algo, args.scheduler, args.partitions
    )
    spec = get_preset(args.cluster)
    plan = simulate_model_step(cfg, spec, policy).moe_layer
    export_schedule_trace(plan.forward, path=args.out)
    print(f"forward makespan {plan.forward.makespan * 1e3:.3f} ms; "
          f"trace written to {args.out}")
    print("open chrome://tracing or https://ui.perfetto.dev and load it")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser (one subcommand per experiment)."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--cluster", default="paper_testbed",
        help="cluster preset (default: paper_testbed)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments/policies/models")
    for name, table in TABLES.items():
        sub.add_parser(name, help=table.title)

    p_a2a = sub.add_parser("a2a", help="measure one all-to-all")
    p_a2a.add_argument("--algo", default="pipe")
    p_a2a.add_argument("--size", type=float, default=2.56e8)

    p_step = sub.add_parser("step", help="one model step breakdown")
    p_step.add_argument("--model", default="ct_moe",
                        choices=sorted(PAPER_MODELS) + ["ct_moe"])
    p_step.add_argument("--layers", type=int, default=12)
    p_step.add_argument("--policy", default="ScheMoE",
                        choices=sorted(ALL_POLICIES))

    sub.add_parser(
        "plan", help="auto-tuning planner study: calibrate, search, validate"
    )

    sub.add_parser(
        "faults",
        help="fault study: straggler, flapping link, transient retries",
    )

    sub.add_parser(
        "reshard",
        help="elastic re-sharding study: kill -> recover -> scale-up",
    )

    p_pipe = sub.add_parser(
        "pipeline",
        help="sync vs overlap chunked expert-parallel (real numerics)",
    )
    p_pipe.add_argument("--experts", type=int, default=32)
    p_pipe.add_argument("--tokens", type=int, default=4096)
    p_pipe.add_argument("--model-dim", type=int, default=256)
    p_pipe.add_argument("--hidden-dim", type=int, default=512)
    p_pipe.add_argument("--workers", type=int, default=4)
    p_pipe.add_argument("--num-chunks", type=int, default=4)
    p_pipe.add_argument("--scheduler", default="optsche")
    p_pipe.add_argument(
        "--compressor", default="zfp",
        help="codec on the A2A hops ('' disables; default: zfp)",
    )
    p_pipe.add_argument(
        "--link-gbps", type=float, default=1.0,
        help="modeled interconnect bandwidth for cross-worker bytes "
             "(Gbit/s; 0 disables the wire-time model; default: 1.0, "
             "scaled to this substrate's FLOP rate — see docs §7)",
    )

    p_infer = sub.add_parser(
        "infer",
        help="autograd-free inference forward vs training-tape forward",
    )
    p_infer.add_argument("--experts", type=int, default=32)
    p_infer.add_argument("--tokens", type=int, default=4096)
    p_infer.add_argument("--model-dim", type=int, default=256)
    p_infer.add_argument("--hidden-dim", type=int, default=256)

    p_trace = sub.add_parser("trace", help="export a chrome trace")
    p_trace.add_argument("--out", default="schedule_trace.json")
    p_trace.add_argument("--model-dim", type=int, default=1024)
    p_trace.add_argument("--hidden-dim", type=int, default=4096)
    p_trace.add_argument("--batch", type=int, default=8)
    p_trace.add_argument("--seq", type=int, default=1024)
    p_trace.add_argument("--compressor", default="zfp")
    p_trace.add_argument("--algo", default="pipe")
    p_trace.add_argument("--scheduler", default="optsche")
    p_trace.add_argument("--partitions", type=int, default=2)
    return parser


COMMANDS = {
    "list": cmd_list,
    **{name: cmd_table for name in TABLES},
    "a2a": cmd_a2a,
    "faults": cmd_faults,
    "reshard": cmd_reshard,
    "step": cmd_step,
    "plan": cmd_plan,
    "pipeline": cmd_pipeline,
    "infer": cmd_infer,
    "trace": cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
