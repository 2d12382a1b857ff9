"""The paper's timing-substrate tables, each built in one place.

Every table has a builder that simulates its rows on a
:class:`~repro.cluster.topology.ClusterSpec` and a renderer that
formats them.  The benches under ``benchmarks/`` run the builder on
``paper_testbed()``, assert the paper's shape on the rows and save the
rendered text as their sidecar; ``python -m repro <table>`` prints the
same text for any cluster preset.  :data:`TABLES` maps each CLI name
to its sidecar name, builder and renderer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

from ..cluster.topology import ClusterSpec
from ..collectives import get_a2a, measure_a2a, theoretical_max_speedup
from ..models import ablation_layer, bert_large_moe, ct_moe
from .policies import ablation_suite, comparison_suite, tutel
from .runner import SystemRunner

#: CT-MoE-x depths of paper Tables 1 and 7.
CT_MOE_DEPTHS = (12, 16, 20, 24)


def table1(spec: ClusterSpec) -> list:
    """Paper Table 1: ``(cfg, Tutel step)`` per CT-MoE depth."""
    runner = SystemRunner(spec)
    cfgs = [ct_moe(layers) for layers in CT_MOE_DEPTHS]
    return [(cfg, runner.step(cfg, tutel())) for cfg in cfgs]


def render_table1(rows) -> str:
    lines = [
        f"{'#Layers':>8} {'#Params(M)':>11} {'A2A(ms)':>9} "
        f"{'Step(ms)':>9} {'Ratio(%)':>9}"
    ]
    for cfg, step in rows:
        lines.append(
            f"{cfg.num_layers:>8} {cfg.total_params / 1e6:>11.0f} "
            f"{step.a2a_total_s * 1e3:>9.1f} {step.total_s * 1e3:>9.1f} "
            f"{step.a2a_ratio * 100:>9.1f}"
        )
    return "\n".join(lines)


def table7(spec: ClusterSpec) -> list:
    """Paper Table 7: ``(layers, {system: step})`` per CT-MoE depth."""
    runner = SystemRunner(spec)
    return [
        (layers, runner.compare(ct_moe(layers), comparison_suite()))
        for layers in CT_MOE_DEPTHS
    ]


def render_table7(rows) -> str:
    lines = [
        f"{'x':>4} {'Tutel(ms)':>10} {'FasterMoE(ms)':>14} "
        f"{'ScheMoE(ms)':>12} {'T/S':>6} {'F/S':>6}"
    ]
    for layers, results in rows:
        t = results["Tutel"].total_s
        f = results["Faster-MoE"].total_s
        s = results["ScheMoE"].total_s
        lines.append(
            f"{layers:>4} {t * 1e3:>10.0f} {f * 1e3:>14.0f} "
            f"{s * 1e3:>12.0f} {t / s:>6.2f} {f / s:>6.2f}"
        )
    return "\n".join(lines)


def table8(spec: ClusterSpec) -> dict:
    """Paper Table 8: BERT-Large-MoE, ``{system: step}``."""
    return SystemRunner(spec).compare(bert_large_moe(), comparison_suite())


def render_table8(results) -> str:
    tutel_t = results["Tutel"].total_s
    lines = [f"{'Name':<12} {'Time(ms)':>10} {'Speedup':>8} {'Mem(GiB)':>9}"]
    for name in ("Tutel", "Faster-MoE", "ScheMoE"):
        r = results[name]
        time_s = "OOM" if r.oom else f"{r.total_s * 1e3:.1f}"
        speed = "-" if r.oom else f"{tutel_t / r.total_s:.2f}x"
        lines.append(
            f"{name:<12} {time_s:>10} {speed:>8} "
            f"{r.memory_bytes / 2**30:>9.1f}"
        )
    return "\n".join(lines)


#: Paper Table 10's rows, from no optimization to full ScheMoE.
ABLATION_ORDER = ("Naive", "ScheMoE-Z", "ScheMoE-ZP", "ScheMoE")


def table10(spec: ClusterSpec) -> dict:
    """Paper Table 10: the ablation layer, ``{policy: step}``."""
    return SystemRunner(spec).compare(ablation_layer(), ablation_suite())


def render_table10(results) -> str:
    base = results["Naive"].total_s
    lines = [f"{'Name':<12} {'Time(ms)':>10} {'Speedup':>8}"]
    for name in ABLATION_ORDER:
        r = results[name]
        lines.append(
            f"{name:<12} {r.total_s * 1e3:>10.0f} "
            f"{base / r.total_s:>7.2f}x"
        )
    return "\n".join(lines)


A2A_ALGORITHMS = ("nccl", "1dh", "2dh", "pipe")
#: Paper Fig. 9's three message-size regimes (bytes per GPU).
A2A_SIZES = {
    "small": [1e3, 1e4, 1e5, 1e6],
    "median": [4e6, 1.6e7, 6.4e7, 2e8],
    "large": [4e8, 6.4e8, 1e9, 2e9],
}


def fig9(spec: ClusterSpec) -> List[dict]:
    """Paper Fig. 9: seconds per algorithm (``inf`` on OOM) and size."""
    rows = []
    for regime, sizes in A2A_SIZES.items():
        for size in sizes:
            entry = {"regime": regime, "size": size}
            for name in A2A_ALGORITHMS:
                result = measure_a2a(get_a2a(name), spec, size)
                entry[name] = float("inf") if result.oom else result.seconds
            entry["eq18"] = theoretical_max_speedup(spec, size)
            rows.append(entry)
    return rows


def render_fig9(rows) -> str:
    lines = [
        f"{'regime':>7} {'size(B)':>9} "
        + " ".join(f"{n + '(ms)':>10}" for n in A2A_ALGORITHMS)
        + f" {'p/nccl':>7} {'p/2dh':>6} {'eq18':>5}"
    ]
    for e in rows:
        cells = [
            "OOM".rjust(10) if e[n] == float("inf") else f"{e[n] * 1e3:>10.3f}"
            for n in A2A_ALGORITHMS
        ]
        p_nccl = e["nccl"] / e["pipe"]
        p_2dh = (
            float("nan") if e["2dh"] == float("inf") else e["2dh"] / e["pipe"]
        )
        lines.append(
            f"{e['regime']:>7} {e['size']:>9.0e} "
            + " ".join(cells)
            + f" {p_nccl:>7.2f} {p_2dh:>6.2f} {e['eq18']:>5.2f}"
        )
    return "\n".join(lines)


class PaperTable(NamedTuple):
    """One table: its bench's sidecar name, builder, renderer and title."""

    sidecar: str
    build: Callable[[ClusterSpec], object]
    render: Callable[[object], str]
    title: str


TABLES: Dict[str, PaperTable] = {
    "table1": PaperTable("table1_a2a_ratio", table1, render_table1,
                         "A2A ratio on CT-MoE-x (Table 1)"),
    "table7": PaperTable("table7_ct_moe", table7, render_table7,
                         "CT-MoE-x system comparison (Table 7)"),
    "table8": PaperTable("table8_bert_large", table8, render_table8,
                         "BERT-Large-MoE comparison (Table 8)"),
    "table10": PaperTable("table10_ablation", table10, render_table10,
                          "component ablation (Table 10)"),
    "fig9": PaperTable("fig9_a2a_algorithms", fig9, render_fig9,
                       "A2A algorithm sweep (Figure 9)"),
}
