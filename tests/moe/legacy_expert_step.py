"""The expert step's composed forms, kept as test references.

Production folds the expert biases into
:func:`~repro.nn.tensor.segment_matmul`, scatters repeated rows through
the occurrence-round :func:`~repro.nn.tensor._scatter_add_rows`, and
runs :meth:`~repro.nn.optim.Adam.step` in place.  These are the forms
they replaced — a per-row bias ``gather`` plus an add node after each
segment GEMM, ``np.add.at`` for every accumulating scatter, and Adam
over fresh temporaries — and the whole-step parity suite checks that a
training step does not move by a single bit against them.
"""

import numpy as np

from repro.nn import functional as F
from repro.nn.optim import BETA1, BETA2, EPS
from repro.nn.tensor import gather, segment_matmul


def legacy_run_grouped(self, rows, segment_counts):
    """``Experts.run_grouped`` with the per-row bias gather chain."""
    counts = np.asarray(segment_counts)
    expert_of_row = np.repeat(
        np.arange(self.num_experts), counts.astype(np.int64)
    )
    b1 = self.b1.reshape(self.num_experts, self.hidden_dim)
    b2 = self.b2.reshape(self.num_experts, self.model_dim)
    h = F.relu(
        segment_matmul(rows, self.w1, counts) + gather(b1, expert_of_row)
    )
    return segment_matmul(h, self.w2, counts) + gather(b2, expert_of_row)


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
