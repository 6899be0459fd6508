"""A fixed piece of work whose CPU time tracks how fast the host runs right now.

The benchmark's host is a guest on a shared machine.  Its speed changes from
second to second and from minute to minute, by up to about 1.5x, while the
process runs alone on its vCPU: the same verify-n8 case took 47-60 ms of
CPU time in some seconds and 75-83 ms in others.  CPU time leaves out the
time the hypervisor gives the vCPU to other guests, but not this slow-down.

``probe`` does the same work every call and returns its CPU seconds: an
interpreter loop, like the Python code of qperm's CLI and oracle, and a
write and a read of a fresh array, like its dense matrix code.  Each
workload sizes that array near its own matrices: 32 MB for dense-n40,
whose 1600x1600 matrices fall out of a shared cache that neighbours fill,
and 8 MB for the others.  On that host, over 22 windows of 8 s, the median
CPU time of one case ranged over ±8% on dense-n40 and ±14% on cli-n24;
divided by the time of the probes run just before and after each
instance, it ranged over ±5% on both.

The benchmark divides each instance's CPU time by the mean of those two
probes and multiplies by REFERENCE_S, the probe's time on the reference
host, so the result reads as milliseconds at the reference host's speed.

The probe calls no qperm code, so a change to qperm cannot move it.
"""

from __future__ import annotations

from time import process_time

import numpy as np

# CPU seconds of one probe of each size on the reference host (2-vCPU shared
# guest, "Intel(R) Xeon(R) Processor", Python 3.11.7, numpy 2.4.6, one BLAS
# thread), the first quartile over 150 calls.
REFERENCE_S = {8: 0.0107, 32: 0.0242}
LOOP = 100_000


def probe(megabytes: int) -> float:
    """CPU seconds of one fixed mix of interpreter and memory-bound work.

    The array is freed before the probe returns, so between instances it
    adds to the process's memory only while the probe runs.
    """
    start = process_time()
    total = 0
    for i in range(LOOP):
        total += i * i
    block = np.ones(megabytes << 17)
    np.multiply(block, 1.0, out=block)
    float(block @ block)
    del block
    return process_time() - start
