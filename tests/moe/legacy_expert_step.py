"""The expert step's composed forms, kept as test references.

Production runs the expert FFN as one fused node
(:func:`~repro.nn.fused.expert_ffn`, biases folded in), weights the
combine's rows as it stages them into the occurrence-round scatter
(:func:`~repro.nn.fused.weighted_scatter_add`), scatters repeated rows
through the occurrence-round :func:`~repro.nn.tensor._scatter_add_rows`,
runs :meth:`~repro.nn.optim.Adam.step` in place and squares large
gradients slice by slice in :func:`~repro.nn.optim.clip_grad_norm`.
These are the forms they replaced — two unbucketed segment GEMM loops
(``tests/nn/legacy_segment_matmul.py``) around a ReLU node, each with
a per-row bias ``gather`` plus an add node, the combine as a product
node followed by ``np.add.at``, ``np.add.at`` for every accumulating
scatter, Adam over fresh temporaries and the clip's ``(g**2).sum()``
— and the whole-step parity suite checks that a training step does
not move by a single bit against them.
"""

import numpy as np

from repro.nn import functional as F
from repro.nn.optim import BETA1, BETA2, EPS
from repro.nn.tensor import Tensor, gather

from ..nn.legacy_segment_matmul import legacy_segment_matmul


def legacy_gathered_bias_ffn(rows, w1, b1, w2, b2, segment_counts):
    """``expert_ffn`` with the per-row bias gather chain."""
    counts = np.asarray(segment_counts)
    (num_experts, _, hidden), model_dim = w1.shape, w2.shape[2]
    expert_of_row = np.repeat(np.arange(num_experts), counts.astype(np.int64))
    b1 = b1.reshape(num_experts, hidden)
    b2 = b2.reshape(num_experts, model_dim)
    h = F.relu(
        legacy_segment_matmul(rows, w1, counts) + gather(b1, expert_of_row)
    )
    return legacy_segment_matmul(h, w2, counts) + gather(b2, expert_of_row)


def legacy_run_grouped(self, rows, segment_counts):
    """``Experts.run_grouped`` with the per-row bias gather chain."""
    return legacy_gathered_bias_ffn(
        rows, self.w1, self.b1, self.w2, self.b2, segment_counts
    )


def legacy_scatter_add_rows(out, idx, values):
    """The accumulating scatter as the unvectorized ``np.add.at``."""
    np.add.at(out, idx, values)


def legacy_adam_step(self):
    """``Adam.step`` over fresh temporaries."""
    self._step += 1
    bc1 = 1.0 - BETA1**self._step
    bc2 = 1.0 - BETA2**self._step
    for p, m, v in zip(self.parameters, self._m, self._v):
        if p.grad is None:
            continue
        g = p.grad
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
        p.data -= self.lr * update


def legacy_weighted_scatter_add(values, weights, idx, num_rows):
    """``weighted_scatter_add`` as a product node, then ``np.add.at``."""
    weighted = values * weights
    out = np.zeros((num_rows, weighted.shape[1]), np.float32)
    np.add.at(out, idx, weighted.data)

    def backward(g):
        return (g[idx],)

    return Tensor._make(out, (weighted,), backward)


def legacy_combine_grouped(expert_rows, plan, gate_weights):
    """``combine_grouped`` as a product node, then ``np.add.at``."""
    idx = plan.grouped_token_ids
    weights = gate_weights[idx, plan.grouped_choice_ids].reshape(-1, 1)
    return legacy_weighted_scatter_add(
        expert_rows, weights, idx, plan.num_tokens
    )


def legacy_clip_grad_norm(parameters, max_norm):
    """``clip_grad_norm`` squaring each whole gradient."""
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total
