"""Analytic cost models for simulated hardware.

Communication follows the classic alpha-beta model: a transfer of *n*
bytes over a link costs ``alpha + n / bandwidth`` seconds of link
occupancy.  Computation follows a throughput model: a GEMM of *f* flops
runs at ``peak_flops * efficiency`` where efficiency degrades for
low-arithmetic-intensity (small) kernels, which is what makes a high
partition degree *r* unattractive in the paper's discussion of
pipelining (Section 4).

The default constants in :mod:`repro.cluster.presets` are calibrated to
the paper's testbed (RTX 2080 Ti, PCIe3 x16 staged through host memory,
100 Gb/s InfiniBand) so that Table 1's regime — A2A occupying 50-60 % of
step time — is reproduced.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class LinkModel:
    """Alpha-beta cost model of a communication resource.

    Attributes
    ----------
    latency_s:
        Per-message fixed cost (software stack + wire latency).
    bandwidth_bps:
        Effective bandwidth in bytes/second of the serializing
        resource (a node's NIC, or a node's intra-node fabric in
        aggregate).
    """

    name: str
    latency_s: float
    bandwidth_bps: float

    def transfer_time(self, nbytes: float) -> float:
        """Occupancy of the link for one message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        return self.latency_s + nbytes / self.bandwidth_bps


@dataclass(frozen=True)
class GpuModel:
    """Throughput model of a single accelerator.

    ``gemm_efficiency`` follows a saturating curve in the kernel's flop
    count: tiny kernels are launch/memory bound, large GEMMs approach
    ``peak_efficiency`` of the theoretical peak.
    """

    name: str
    peak_flops: float  # fp32 FLOP/s
    memory_bandwidth_bps: float
    memory_bytes: float
    peak_efficiency: float = 0.68
    # Mixed-precision (tensor core) peak; 0 means "no tensor cores",
    # falling back to the fp32 path.  Expert fflayers run here (the
    # standard mixed-precision setup the paper assumes when it notes
    # FP16 "enables mixed-precision training ... with tensor cores").
    tensor_flops: float = 0.0
    tensor_efficiency: float = 0.70
    # Kernel flop count at which efficiency reaches half of peak.
    half_saturation_flops: float = 2.0e9
    kernel_launch_s: float = 8.0e-6

    def gemm_efficiency(self, flops: float, tensor_core: bool = False) -> float:
        """Fraction of peak achieved by a kernel of ``flops`` flops."""
        peak_eff = (
            self.tensor_efficiency
            if tensor_core and self.tensor_flops > 0
            else self.peak_efficiency
        )
        if flops <= 0:
            return peak_eff
        return peak_eff * flops / (flops + self.half_saturation_flops)

    def gemm_time(self, flops: float, tensor_core: bool = False) -> float:
        """Wall time of a dense kernel with ``flops`` total flops.

        ``tensor_core=True`` prices the kernel at the mixed-precision
        rate when the device has tensor cores.
        """
        if flops < 0:
            raise ValueError(f"negative flop count: {flops}")
        if flops == 0:
            return self.kernel_launch_s
        use_tc = tensor_core and self.tensor_flops > 0
        peak = self.tensor_flops if use_tc else self.peak_flops
        eff = self.gemm_efficiency(flops, tensor_core=use_tc)
        return self.kernel_launch_s + flops / (peak * eff)

    def memory_time(self, nbytes: float) -> float:
        """Wall time of a memory-bound kernel touching ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes}")
        return self.kernel_launch_s + nbytes / self.memory_bandwidth_bps


def ffn_forward_flops(tokens: int, model_dim: int, hidden_dim: int) -> float:
    """Flops of one expert FFN forward pass (two GEMMs M->H->M)."""
    return 2.0 * tokens * model_dim * hidden_dim * 2.0


def attention_forward_flops(tokens: int, model_dim: int, seq_len: int) -> float:
    """Approximate flops of a multi-head attention block forward.

    QKV + output projections (4 GEMMs of M x M) plus the two
    (tokens x seq_len x dim) batched products.
    """
    proj = 2.0 * tokens * model_dim * model_dim * 4.0
    scores = 2.0 * tokens * seq_len * model_dim * 2.0
    return proj + scores


def check_count(name: str, value) -> int:
    """``value`` as an int >= 1, checked where a size, degree or count
    enters: an integer in the sense of :func:`operator.index` (a float,
    NaN or a bool raises ``TypeError``), else ``ValueError``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    return n


def check_routing(top_k, capacity_factor) -> None:
    """Raise unless ``top_k`` is an integer >= 1 (:func:`check_count`)
    and ``capacity_factor`` a finite number > 0.

    The gate and the simulator's model config both check here, at
    construction, so a bad value never reaches :func:`expert_capacity`.
    """
    check_count("top_k", top_k)
    if not (math.isfinite(capacity_factor) and capacity_factor > 0):
        raise ValueError(
            f"capacity_factor must be finite and positive, got {capacity_factor}"
        )


def expert_capacity(
    tokens: int, num_experts: int, capacity_factor: float, top_k: int
) -> int:
    """Paper Eq. (1): slots per expert, ``C = ceil(f * k * T / E)``.

    ``T`` is the B*L tokens routed together.  Clamped to ``[1, T]``:
    a token contributes at most one assignment per expert (its top-k
    experts are distinct), so slots beyond ``T`` can never fill and
    would only pad every (E, C, M) buffer; zero tokens need zero
    slots.  Both substrates size their buffers from this one rule.
    """
    if tokens < 0 or num_experts < 1:
        raise ValueError(
            f"need tokens >= 0 and num_experts >= 1, got {tokens} and "
            f"{num_experts}"
        )
    if tokens == 0:
        return 0
    cap = math.ceil(capacity_factor * top_k * tokens / num_experts)
    return max(1, min(cap, tokens))


# -- fitting measured costs back into model form -----------------------------
#
# The auto-tuning planner (repro.systems.planner) runs a handful of
# probe measurements and recovers the cost-model parameters from them
# by least squares.  Both model families above are affine in their
# size argument, which makes the fits exact on synthetic data:
#
# * a LinkModel transfer is  t(n) = latency + n / bandwidth  — affine
#   in bytes with alpha = latency, beta = 1 / bandwidth;
# * a GpuModel GEMM is  t(f) = launch + f / (peak * eff(f))  with the
#   saturating  eff(f) = peak_eff * f / (f + K),  which collapses to
#   t(f) = [launch + K / (peak * peak_eff)] + f / (peak * peak_eff)
#   — affine in flops.  The roofline's saturated rate is exactly
#   1 / beta; launch and K are not separately identifiable from step
#   times alone, so the fit pins K and solves for the launch term.


def fit_alpha_beta(
    sizes: Sequence[float], times: Sequence[float]
) -> Tuple[float, float]:
    """Least-squares ``(alpha, beta)`` of ``t(size) = alpha + beta*size``.

    The slope is only identifiable from at least two distinct sizes,
    and every size and time must be finite.
    """
    x, y = np.asarray(sizes, float), np.asarray(times, float)
    if x.shape != y.shape or len(np.unique(x)) < 2:
        raise ValueError(
            "need (size, time) measurements at two or more distinct sizes"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("sizes and times must be finite")
    a = np.vstack([np.ones(len(x)), x]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(coef[0]), float(coef[1])


#: A slope whose rise over the probed sizes is within this many ulps of
#: the largest time is rounding noise of the fit, not a measured slope
#: (flat data fits to a few ulps either side of zero).
_FLAT_FIT_ULPS = 64


def _grows(
    sizes: Sequence[float], times: Sequence[float], beta: float
) -> bool:
    """Whether slope ``beta`` can be told from zero at the data's scale."""
    x, t = np.asarray(sizes, float), np.abs(np.asarray(times, float))
    rise = beta * (x.max() - x.min())
    return bool(rise > _FLAT_FIT_ULPS * np.finfo(float).eps * t.max())


def fit_link_model(
    sizes: Sequence[float], times: Sequence[float], name: str = "fitted"
) -> LinkModel:
    """Recover a :class:`LinkModel` from (bytes, seconds) measurements.

    ``alpha`` maps to the per-message latency (clipped at zero: noisy
    fits may place the intercept marginally below it) and ``beta`` to
    the inverse bandwidth.  A slope that is not positive at the data's
    scale means the points do not describe a link at all and is
    rejected.
    """
    alpha, beta = fit_alpha_beta(sizes, times)
    if not _grows(sizes, times, beta):
        raise ValueError(
            f"non-physical link fit (beta={beta:.3e} s/B): time must "
            "grow with message size"
        )
    return LinkModel(
        name=name, latency_s=max(alpha, 0.0), bandwidth_bps=1.0 / beta
    )


def fit_gemm_roofline(
    flops: Sequence[float],
    times: Sequence[float],
    name: str = "fitted-gpu",
    half_saturation_flops: float = 2.0e9,
    memory_bandwidth_bps: float = 1.0e12,
    memory_bytes: float = float("inf"),
) -> GpuModel:
    """Recover a :class:`GpuModel` from (flops, seconds) measurements.

    The fitted model reproduces the affine fit exactly through
    :meth:`GpuModel.gemm_time` (see the identity above): the saturated
    rate is ``1/beta`` (expressed as ``peak_flops`` at efficiency 1.0)
    and the launch cost absorbs the remainder of the intercept after
    the pinned ``half_saturation_flops``.  The memory-side parameters
    are pass-throughs for callers that know them; GEMM probes carry no
    information about them.  Like :func:`fit_link_model` it rejects a
    slope that is not positive at the data's scale.
    """
    alpha, beta = fit_alpha_beta(flops, times)
    if not _grows(flops, times, beta):
        raise ValueError(
            f"non-physical GEMM fit (beta={beta:.3e} s/flop): time "
            "must grow with flop count"
        )
    return GpuModel(
        name=name,
        peak_flops=1.0 / beta,
        memory_bandwidth_bps=memory_bandwidth_bps,
        memory_bytes=memory_bytes,
        peak_efficiency=1.0,
        half_saturation_flops=half_saturation_flops,
        kernel_launch_s=max(alpha - half_saturation_flops * beta, 0.0),
    )
