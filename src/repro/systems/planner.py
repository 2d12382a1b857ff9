"""The planner study: profile -> fit cost models -> search the grid.

One study, built once and shared by ``benchmarks/bench_planner.py``
(which saves the rendered text as its sidecar) and
``python -m repro plan`` (which prints the same text for any
``--cluster`` preset).

The repo exposes many orthogonal knobs — scheduler policy, all-to-all
algorithm, compressor, partition degree ``r``, capacity factor — and
the paper's question is which combination wins on a given cluster.
This module answers it the way FSMoE-style systems do: run a *small
seeded set of probe measurements* through the existing
:class:`~repro.core.profiler.Profiler` machinery, fit alpha-beta link
parameters and a GEMM roofline from them
(:func:`~repro.cluster.costmodel.fit_link_model` /
:func:`~repro.cluster.costmodel.fit_gemm_roofline`), then score the
*entire* :data:`GRID` against the fitted models — which is pure
arithmetic, no event-engine simulation — and validate only the top
:data:`TOP_K` analytic candidates with real
:func:`~repro.systems.sweep.run_sweep` simulations.

Three stages, three artefacts:

1. **calibrate** — :class:`Calibration`: per-(a2a, codec) affine A2A
   models fitted in wire-byte space (plus the equivalent fitted
   :class:`~repro.cluster.costmodel.LinkModel` view), per-codec
   compress/decompress models, and a fitted GEMM roofline.
2. **search** — every candidate of :data:`GRID` is priced by running
   the unchanged :func:`~repro.core.system.simulate_model_step` with a
   :class:`FittedProfiler` (predictions instead of measurements), so
   scheduling, memory accounting and OOM pruning stay bit-faithful to
   the real simulator's logic; only the task *durations* are modeled.
3. **report** — :class:`PlanReport`: the recommended
   :class:`~repro.core.system.SystemPolicy` + layer config with
   predicted-vs-measured step time for every validated candidate, and
   the regret against the exhaustive sweep of the same grid.
   ``PlanReport.to_json()`` is byte-deterministic for a given cluster.

Everything is deterministic: probe sizes come from a generator seeded
with :data:`SEED`, fits are least squares, ranking breaks ties
lexicographically, and every simulation runs serially.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster.costmodel import (
    GpuModel,
    LinkModel,
    ffn_forward_flops,
    fit_alpha_beta,
    fit_gemm_roofline,
    fit_link_model,
)
from ..cluster.topology import ClusterSpec
from ..collectives.base import get_a2a
from ..compression.base import get_compressor
from ..core.profiler import LinearPerfModel, Profiler
from ..core.system import StepBreakdown, SystemPolicy, simulate_model_step
from ..models import ct_moe
from ..models.configs import MoEModelConfig
from .sweep import SweepTask, run_sweep

__all__ = [
    "GRID",
    "MODEL",
    "Calibration",
    "FittedProfiler",
    "PlanCandidate",
    "PlanReport",
    "PlanSpace",
    "calibrate",
    "failed_checks",
    "plan",
    "predict_step",
]


# -- the study ---------------------------------------------------------------


@dataclass(frozen=True)
class PlanSpace:
    """The joint knob grid the planner searches.

    The numerical-substrate knobs (``pipeline`` / ``num_chunks`` of
    :class:`~repro.moe.parallel.ExpertParallelGroup`) are not part of
    the analytic search — the hot-path benchmarks show one dominant
    choice (overlap iff r > 1), which the report derives from the
    winning partition degree (see :func:`layer_recommendation`).
    """

    schedulers: Tuple[str, ...]
    a2a_algorithms: Tuple[str, ...]
    compressors: Tuple[str, ...]
    partition_degrees: Tuple[int, ...]
    capacity_factors: Tuple[float, ...]

    @property
    def size(self) -> int:
        return (
            len(self.schedulers)
            * len(self.a2a_algorithms)
            * len(self.compressors)
            * len(self.partition_degrees)
            * len(self.capacity_factors)
        )

    @property
    def pairs(self) -> List[Tuple[str, str]]:
        """All (a2a, codec) pairs needing a fitted communication model."""
        return [
            (a, c) for a in self.a2a_algorithms for c in self.compressors
        ]

    def candidates(self) -> List["PlanCandidate"]:
        """Every point of the joint space, in deterministic order."""
        return [
            PlanCandidate(s, a, c, r, f)
            for s in self.schedulers
            for a in self.a2a_algorithms
            for c in self.compressors
            for r in self.partition_degrees
            for f in self.capacity_factors
        ]

    def to_dict(self) -> dict:
        return {
            "schedulers": list(self.schedulers),
            "a2a_algorithms": list(self.a2a_algorithms),
            "compressors": list(self.compressors),
            "partition_degrees": list(self.partition_degrees),
            "capacity_factors": list(self.capacity_factors),
        }


#: The workload every candidate trains.
MODEL = ct_moe(12)
#: 3 schedulers x 2 A2A x 2 codecs x 3 degrees x 2 capacity factors.
GRID = PlanSpace(
    schedulers=("sequential", "chunk-pipeline", "optsche"),
    a2a_algorithms=("nccl", "pipe"),
    compressors=("none", "zfp"),
    partition_degrees=(1, 2, 4),
    capacity_factors=(1.0, 1.2),
)
#: Seeds the probe sizes' jitter.
SEED = 0
#: Probe points per (a2a, codec) pair and for the GEMM curve.
A2A_PROBES = 5
GEMM_PROBES = 5
#: Cap on calibration measurements (A2A runs + GEMM points).
PROBE_BUDGET = 40
#: Analytic candidates validated by real simulation.
TOP_K = 6


@dataclass(frozen=True)
class PlanCandidate:
    """One point of the joint space: a policy plus a capacity factor."""

    scheduler: str
    a2a: str
    compressor: str
    partitions: int
    capacity_factor: float

    @property
    def label(self) -> str:
        return (
            f"{self.scheduler}+{self.a2a}+{self.compressor}"
            f"+r{self.partitions}+f{self.capacity_factor:g}"
        )

    def policy(self) -> SystemPolicy:
        """The candidate as an explicit-degree system policy."""
        return SystemPolicy(
            name=f"plan[{self.label}]",
            compressor=self.compressor,
            a2a=self.a2a,
            scheduler=self.scheduler,
            partitions=(self.partitions,),
        )

    def config(self) -> MoEModelConfig:
        """:data:`MODEL` at this candidate's capacity factor."""
        return replace(MODEL, capacity_factor=self.capacity_factor)

    def task(self) -> SweepTask:
        return SweepTask(self.config(), self.policy())

    def to_dict(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "a2a": self.a2a,
            "compressor": self.compressor,
            "partitions": self.partitions,
            "capacity_factor": self.capacity_factor,
        }


def layer_recommendation(partitions: int) -> dict:
    """Numerical-substrate knobs implied by the winning degree.

    ``pipeline`` and ``num_chunks`` are those of the
    :class:`~repro.moe.parallel.ExpertParallelGroup` that runs the
    layer chunked.  Pipelined overlap only exists for r > 1 and the
    chunk count mirrors the timing substrate's partition degree.
    """
    return {
        "pipeline": "overlap" if partitions > 1 else "sync",
        "num_chunks": partitions,
    }


# -- stage 1: calibration ----------------------------------------------------


@dataclass
class Calibration:
    """Fitted cost models recovered from the probe measurements."""

    #: (a2a, codec) -> affine seconds-vs-wire-bytes model.
    a2a_models: Dict[Tuple[str, str], LinearPerfModel]
    #: (a2a, codec) -> the same fit in LinkModel (alpha-beta) form.
    fitted_links: Dict[Tuple[str, str], LinkModel]
    #: (a2a, codec) -> smallest probed wire size that OOM'd (inf: none).
    a2a_oom_wire_bytes: Dict[Tuple[str, str], float]
    #: codec -> (compress, decompress) seconds-vs-raw-bytes models.
    codec_models: Dict[str, Tuple[LinearPerfModel, LinearPerfModel]]
    #: Fitted GEMM roofline (GpuModel form) and its affine view.
    gemm: GpuModel
    gemm_model: LinearPerfModel
    #: Probe schedule actually used.
    probe_raw_bytes: Tuple[float, ...]
    probe_tokens: Tuple[int, ...]
    #: Measurements charged against the budget (A2A runs + GEMM points).
    num_probes: int

    def to_dict(self) -> dict:
        """Deterministic JSON view (tuple keys become ``a2a+codec``)."""
        return {
            "a2a": {
                f"{a}+{c}": {
                    "alpha_s": m.alpha,
                    "beta_s_per_byte": m.beta,
                    "fitted_latency_s": self.fitted_links[(a, c)].latency_s,
                    "fitted_bandwidth_bps": self.fitted_links[
                        (a, c)
                    ].bandwidth_bps,
                    "oom_wire_bytes": self.a2a_oom_wire_bytes[(a, c)],
                }
                for (a, c), m in sorted(self.a2a_models.items())
            },
            "codecs": {
                name: {
                    "compress_alpha_s": comp.alpha,
                    "compress_beta_s_per_byte": comp.beta,
                    "decompress_alpha_s": dec.alpha,
                    "decompress_beta_s_per_byte": dec.beta,
                }
                for name, (comp, dec) in sorted(self.codec_models.items())
            },
            "gemm": {
                "alpha_s": self.gemm_model.alpha,
                "beta_s_per_flop": self.gemm_model.beta,
                "effective_flops": self.gemm.peak_flops,
                "launch_s": self.gemm.kernel_launch_s,
            },
            "probe_raw_bytes": list(self.probe_raw_bytes),
            "probe_tokens": list(self.probe_tokens),
            "num_probes": self.num_probes,
        }


def _probe_raw_sizes(count: int, rng: np.random.Generator) -> List[float]:
    """Seeded raw-payload probe sizes spanning the search's chunk range."""
    payloads = [
        replace(MODEL, capacity_factor=f).a2a_bytes
        for f in GRID.capacity_factors
    ]
    lo = max(1.0, min(payloads) / max(GRID.partition_degrees))
    hi = max(max(payloads), lo * 1.01)
    base = np.geomspace(lo, hi, count)
    jitter = rng.uniform(0.85, 1.15, size=count)
    return sorted(float(s) for s in base * jitter)


def _probe_token_counts(count: int, rng: np.random.Generator) -> List[int]:
    """Seeded expert-token probe counts spanning the per-chunk range."""
    totals = [
        replace(MODEL, capacity_factor=f).expert_tokens_per_gpu
        for f in GRID.capacity_factors
    ]
    lo = max(1, min(totals) // max(GRID.partition_degrees))
    hi = max(max(totals), lo + 1)
    base = np.geomspace(lo, hi, count)
    jitter = rng.uniform(0.9, 1.1, size=count)
    tokens = sorted({max(1, int(round(t))) for t in base * jitter})
    # De-duplication may shrink tiny ranges below `count`; that is
    # fine — the fit needs two distinct points, which hi > lo ensures.
    return tokens


def calibrate(spec: ClusterSpec) -> Calibration:
    """Stage 1: run the seeded probe set and fit every cost model.

    Probes run through the existing :class:`Profiler` machinery — real
    :func:`~repro.collectives.base.measure_a2a` event simulations for
    the A2A curve, the codec and GPU cost models for the rest — at
    sizes drawn deterministically from :data:`SEED` around the payload
    and token ranges the search will actually query.  Pairs whose
    probes leave no usable fit (fewer than two finite points, or a
    non-physical slope) simply get no model and are pruned from the
    search.
    """
    needed = len(GRID.pairs) * A2A_PROBES + GEMM_PROBES
    if needed > PROBE_BUDGET:
        raise ValueError(
            f"the grid needs {needed} probes ({len(GRID.pairs)} (a2a, "
            f"codec) pairs x {A2A_PROBES} + {GEMM_PROBES} GEMM points), "
            f"more than PROBE_BUDGET={PROBE_BUDGET}"
        )
    rng = np.random.default_rng(SEED)
    raw_sizes = _probe_raw_sizes(A2A_PROBES, rng)
    token_counts = _probe_token_counts(GEMM_PROBES, rng)

    a2a_models: Dict[Tuple[str, str], LinearPerfModel] = {}
    fitted_links: Dict[Tuple[str, str], LinkModel] = {}
    oom_wire: Dict[Tuple[str, str], float] = {}
    codec_models: Dict[str, Tuple[LinearPerfModel, LinearPerfModel]] = {}
    num_probes = 0

    for a2a_name, codec_name in GRID.pairs:
        profiler = Profiler(
            spec, a2a=get_a2a(a2a_name), compressor=get_compressor(codec_name)
        )
        codec = profiler.compressor
        wire_sizes = [codec.compressed_bytes(s) for s in raw_sizes]
        points = [(s, profiler.measure_a2a_seconds(s)) for s in wire_sizes]
        num_probes += profiler.a2a_measurements
        finite = [(s, t) for s, t in points if np.isfinite(t)]
        oom_sizes = [s for s, t in points if not np.isfinite(t)]
        oom_wire[(a2a_name, codec_name)] = (
            min(oom_sizes) if oom_sizes else float("inf")
        )
        sizes = [s for s, _ in finite]
        times = [t for _, t in finite]
        try:
            link = fit_link_model(
                sizes, times, name=f"fit[{a2a_name}+{codec_name}]"
            )
        except ValueError:
            pass  # too few finite probes or a degenerate fit: prune
        else:
            a2a_models[(a2a_name, codec_name)] = LinearPerfModel(
                *fit_alpha_beta(sizes, times)
            )
            fitted_links[(a2a_name, codec_name)] = link
        if codec_name not in codec_models:
            comp = [profiler.compress_seconds(s) for s in raw_sizes]
            dec = [profiler.decompress_seconds(s) for s in raw_sizes]
            codec_models[codec_name] = (
                LinearPerfModel(*fit_alpha_beta(raw_sizes, comp)),
                LinearPerfModel(*fit_alpha_beta(raw_sizes, dec)),
            )

    gemm_profiler = Profiler(
        spec,
        a2a=get_a2a(GRID.a2a_algorithms[0]),
        compressor=get_compressor("none"),
    )
    dims = (MODEL.model_dim, MODEL.hidden_dim)
    flops = [ffn_forward_flops(t, *dims) for t in token_counts]
    times = [gemm_profiler.expert_seconds(t, *dims) for t in token_counts]
    num_probes += len(token_counts)
    gemm = fit_gemm_roofline(flops, times, name=f"fit[{spec.gpu.name}]")
    gemm_model = LinearPerfModel(*fit_alpha_beta(flops, times))

    return Calibration(
        a2a_models=a2a_models,
        fitted_links=fitted_links,
        a2a_oom_wire_bytes=oom_wire,
        codec_models=codec_models,
        gemm=gemm,
        gemm_model=gemm_model,
        probe_raw_bytes=tuple(raw_sizes),
        probe_tokens=tuple(token_counts),
        num_probes=num_probes,
    )


# -- stage 2: analytic search ------------------------------------------------


class FittedProfiler(Profiler):
    """A :class:`Profiler` answering from fitted models, not the engine.

    Drop-in for :func:`simulate_model_step`: the schedule construction,
    memory accounting and OOM logic run unchanged; only the four task
    measurements are replaced by predictions, which turns one step
    simulation from an event-engine run into a handful of multiplies.
    A pair with no fitted model (all probes OOM'd) predicts ``inf``,
    as does any wire size at or beyond the pair's observed OOM
    boundary — the analytic estimate inherits the feasibility cliff.
    """

    def __init__(self, spec, a2a, compressor, calibration: Calibration):
        super().__init__(spec, a2a, compressor)
        self._calibration = calibration
        self._pair = (a2a.name, compressor.name)

    def measure_a2a_seconds(self, wire_bytes: float) -> float:
        calib = self._calibration
        model = calib.a2a_models.get(self._pair)
        if model is None:
            return float("inf")
        if wire_bytes >= calib.a2a_oom_wire_bytes.get(
            self._pair, float("inf")
        ):
            return float("inf")
        return model.predict(wire_bytes)

    def compress_seconds(self, raw_bytes: float) -> float:
        return self._calibration.codec_models[self.compressor.name][
            0
        ].predict(raw_bytes)

    def decompress_seconds(self, raw_bytes: float) -> float:
        return self._calibration.codec_models[self.compressor.name][
            1
        ].predict(raw_bytes)

    def expert_seconds(
        self, tokens: int, model_dim: int, hidden_dim: int
    ) -> float:
        flops = ffn_forward_flops(tokens, model_dim, hidden_dim)
        return self._calibration.gemm.gemm_time(flops)


def predict_step(
    cand: PlanCandidate, spec: ClusterSpec, calibration: Calibration
) -> StepBreakdown:
    """Analytic step-time estimate of one candidate (no event engine)."""
    policy = cand.policy()
    profiler = FittedProfiler(
        spec,
        a2a=get_a2a(policy.a2a),
        compressor=get_compressor(policy.compressor),
        calibration=calibration,
    )
    return simulate_model_step(cand.config(), spec, policy, profiler=profiler)


# -- stage 3: validate + report ----------------------------------------------


@dataclass
class PlanReport:
    """The planner's full output; ``to_json()`` is byte-deterministic."""

    workload: str
    cluster: str
    calibration: Calibration
    #: All candidates with a finite analytic estimate, best first.
    scored: int
    #: Candidates validated with real simulations (== len(validated)).
    simulated: int
    recommended: PlanCandidate
    predicted_s: float
    measured_s: float
    validated: List[dict]
    #: Regret vs the exhaustive sweep of :data:`GRID`.
    regret: dict

    @property
    def prediction_error_pct(self) -> float:
        """Signed analytic-vs-simulated error of the recommendation."""
        return (self.predicted_s - self.measured_s) / self.measured_s * 100.0

    def recommendation(self) -> dict:
        """The deployable config: policy knobs + layer knobs."""
        rec = self.recommended.to_dict()
        rec["layer"] = layer_recommendation(self.recommended.partitions)
        return rec

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "cluster": self.cluster,
            "seed": SEED,
            "budget": PROBE_BUDGET,
            "top_k": TOP_K,
            "space": GRID.to_dict(),
            "space_size": GRID.size,
            "calibration": self.calibration.to_dict(),
            "scored": self.scored,
            "simulated": self.simulated,
            "recommendation": self.recommendation(),
            "predicted_s": self.predicted_s,
            "measured_s": self.measured_s,
            "prediction_error_pct": self.prediction_error_pct,
            "validated": self.validated,
            "regret": self.regret,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def summary_lines(self) -> List[str]:
        """The study's text: CLI output and the bench's sidecar lines."""
        rec = self.recommended
        layer = layer_recommendation(rec.partitions)
        return [
            f"workload {self.workload} on {self.cluster}",
            f"probes: {self.calibration.num_probes} (budget {PROBE_BUDGET})",
            f"space: {GRID.size} configurations, "
            f"{self.scored} analytically feasible, "
            f"{self.simulated} simulated for validation",
            f"recommendation: scheduler={rec.scheduler} a2a={rec.a2a} "
            f"codec={rec.compressor} r={rec.partitions} "
            f"capacity_factor={rec.capacity_factor:g}",
            f"  layer: pipeline={layer['pipeline']} "
            f"num_chunks={layer['num_chunks']}",
            f"predicted {self.predicted_s * 1e3:.2f} ms, simulated "
            f"{self.measured_s * 1e3:.2f} ms "
            f"({self.prediction_error_pct:+.1f}% analytic error)",
            f"regret vs exhaustive sweep "
            f"({self.regret['exhaustive_simulated']} configs): "
            f"{self.regret['regret_pct']:+.2f}% "
            f"(optimum {self.regret['best_label']}, "
            f"{self.regret['best_s'] * 1e3:.2f} ms)",
        ]


def plan(spec: ClusterSpec) -> PlanReport:
    """Run all three planner stages on ``spec`` and return the report.

    Only the analytic top :data:`TOP_K` candidates are validated with
    real simulations; the exhaustive sweep over :data:`GRID` then
    prices the recommendation's regret against the true optimum.
    Every simulation runs serially.
    """
    calibration = calibrate(spec)

    candidates = GRID.candidates()
    estimates = [
        (cand, predict_step(cand, spec, calibration)) for cand in candidates
    ]
    feasible = [
        (cand, est)
        for cand, est in estimates
        if not est.oom and np.isfinite(est.total_s)
    ]
    if not feasible:
        raise RuntimeError(
            "planner found no feasible candidate: every configuration "
            "in the grid OOMs under the fitted models"
        )
    feasible.sort(key=lambda pair: (pair[1].total_s, pair[0].label))
    top = feasible[:TOP_K]

    results = run_sweep([cand.task() for cand, _ in top], spec, processes=1)

    validated = []
    best: Optional[Tuple[PlanCandidate, float, float]] = None
    for (cand, est), measured in zip(top, results):
        validated.append({
            "candidate": cand.to_dict(),
            "label": cand.label,
            "predicted_s": est.total_s,
            "measured_s": measured.total_s,
            "oom": measured.oom,
        })
        if measured.oom or not np.isfinite(measured.total_s):
            continue
        if best is None or (measured.total_s, cand.label) < (
            best[2],
            best[0].label,
        ):
            best = (cand, est.total_s, measured.total_s)
    if best is None:
        raise RuntimeError(
            "planner validation failed: every top-K candidate OOM'd in "
            "the real simulator — the analytic estimate missed a "
            "feasibility cliff"
        )

    exhaustive = run_sweep(
        [cand.task() for cand in candidates], spec, processes=1
    )
    best_s, best_label = min(
        (r.total_s, cand.label)
        for cand, r in zip(candidates, exhaustive)
        if not r.oom and np.isfinite(r.total_s)
    )

    return PlanReport(
        workload=MODEL.name,
        cluster=spec.name,
        calibration=calibration,
        scored=len(feasible),
        simulated=len(top),
        recommended=best[0],
        predicted_s=best[1],
        measured_s=best[2],
        validated=validated,
        regret={
            "exhaustive_simulated": len(exhaustive),
            "best_s": best_s,
            "best_label": best_label,
            "regret_pct": (best[2] - best_s) / best_s * 100.0,
        },
    )


def failed_checks(report: PlanReport) -> List[str]:
    """Names of the acceptance checks ``report`` fails (empty: all hold).

    The planner must simulate strictly fewer configurations than the
    exhaustive sweep, and still land within 5% of its optimum with an
    analytic estimate within 5% of the simulated step time.
    """
    checks = {
        "simulated_fewer_than_grid": report.simulated < GRID.size,
        "regret_measured": bool(np.isfinite(report.regret["regret_pct"])),
        "regret_within_5pct": report.regret["regret_pct"] <= 5.0,
        "prediction_error_within_5pct": (
            abs(report.prediction_error_pct) <= 5.0
        ),
    }
    return [name for name, ok in checks.items() if not ok]
