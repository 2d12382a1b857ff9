"""A steady training step reuses the heap the previous step freed.

At ``layer_train``'s shape (one Table-4 MoE layer with Adam) glibc's
default thresholds hand ~120 MiB back to the kernel at every
``zero_grad``, and the next step faults it back in: ~6,600 minor
faults a step.  :mod:`repro.nn._heap` keeps the heap, and leaf
gradients adopted instead of copied keep the step from allocating more.

The steps run in a fresh interpreter.  After the rest of the suite the
heap holds ~130 MiB of free holes, too scattered for some of the
step's 16 MiB arrays, so now and then a step grows the heap top
(~1,300 faults once in several steps): fragmentation, not trimming.
"""

import ctypes
import json
import os
import subprocess
import sys

import pytest

import repro

resource = pytest.importorskip("resource")

_STEPS = """
import json, resource
import numpy as np
from repro.moe import MoELayer
from repro.nn import Adam, Tensor, _heap, clip_grad_norm

rng = np.random.default_rng(0)
layer = MoELayer(256, 512, 32, rng, top_k=2, capacity_factor=1.2)
opt = Adam(layer.parameters(), lr=1e-3)
x = Tensor(rng.standard_normal((4096, 256)).astype(np.float32))

def step():
    opt.zero_grad()
    loss = (layer(x) ** 2).mean() + 0.01 * layer.last_aux_loss
    loss.backward()
    clip_grad_norm(opt.parameters, 1.0)
    opt.step()

for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(2):
    step()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"keeps_heap": _heap.KEEPS_HEAP, "per_step": faults / 2}))
"""


def test_steady_training_step_takes_few_page_faults():
    libc = ctypes.CDLL(None)  # resource exists, so this is a Unix
    if not hasattr(libc, "mallopt"):
        pytest.skip("no mallopt in this C library")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    out = subprocess.run(
        [sys.executable, "-c", _STEPS],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    if hasattr(libc, "gnu_get_libc_version"):
        assert result["keeps_heap"]
    per_step = result["per_step"]
    assert per_step < 256, f"{per_step:.0f} minor page faults per step"
