"""How fast the host runs right now, from a fixed calibration kernel.

On a shared host, other tenants can slow every core by up to ~1.5x for
seconds to minutes at a time.  On a 2-vCPU Xeon VM a pure-Python loop,
small numpy calls and a detac training run all slowed together, and 35 s
benchmark runs of one workload spread by 26% between the quartiles (3-4%
once scaled as below).  The benchmark therefore times this kernel every
fifth of a second while an operation runs and scales the wall time
between two samples by ``REF_KERNEL_S`` over their mean: the result, in
reference seconds, is what the operation would take with the host at the
kernel's reference speed.  A set-up probe, which runs in a child
process, is scaled by the kernel's time just before and after it.
"""

from __future__ import annotations

from time import perf_counter

PY_STEPS = 6000
NP_STEPS = 800
# the kernel's time on the reference host (2-vCPU Intel Xeon VM, Python
# 3.11, numpy 2.4) at its faster speed; it sets the scale of every
# reference-second figure, not their spread
REF_KERNEL_S = 2.0e-3


def kernel_seconds():
    """Wall time of one run of the kernel: an interpreter loop and small
    numpy calls, in about the mix of detac's own loops."""
    # imported here, so that importing this module leaves the time of
    # detac's import (numpy's included) to detac
    import numpy as np

    w = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32) / 8.0
    x = np.full(32, 0.1)
    s = 0
    start = perf_counter()
    for i in range(PY_STEPS):
        s += i * i % 7
    for _ in range(NP_STEPS):
        x = np.tanh(x @ w)
    return perf_counter() - start


def reference_seconds(wall_s, kernel_s):
    """``wall_s`` in reference seconds, given the kernel's time beside it."""
    return wall_s * REF_KERNEL_S / kernel_s
