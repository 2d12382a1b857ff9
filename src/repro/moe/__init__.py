"""Mixture-of-experts algorithms: gating, dispatch/combine, experts.

The numerical MoE layer (GShard semantics: top-k gate, expert
capacity per paper Eq. 1, token dropping, load-balancing loss) used by
the models and the Table 6 convergence experiments.  The distributed
*timing* of this layer is handled by :mod:`repro.core`.
"""

from .dispatch import combine_grouped, dispatch_grouped
from .experts import Experts
from .gating import GateOutput, TopKGate, load_balancing_loss
from .layer import MoELayer
from .parallel import A2ATraffic, ExpertParallelGroup
from .placement import (
    ExpertPlacement,
    expert_param_bytes,
    reshard_moves,
    reshard_traffic,
)
from .routing import RoutingPlan, route_fused

__all__ = [
    "A2ATraffic",
    "ExpertParallelGroup",
    "ExpertPlacement",
    "Experts",
    "expert_param_bytes",
    "GateOutput",
    "MoELayer",
    "RoutingPlan",
    "TopKGate",
    "combine_grouped",
    "dispatch_grouped",
    "load_balancing_loss",
    "reshard_moves",
    "reshard_traffic",
    "route_fused",
]
