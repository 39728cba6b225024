"""Host probe and process-resource readings.

``nproc`` and ``sched_getaffinity`` report the CPUs a process may run on,
not the CPU time it actually gets.  On a shared host the two differ, and
every parallel figure means something only next to the second, so the
probe measures it: two processes burn CPU at once for a fixed wall time,
and the effective CPU count is their summed CPU time over that wall time.

The host's speed also drifts: the same call on the same graph runs up to
1.6x slower for seconds at a time.  :func:`speed_probe` times a fixed
reference computation, so a measured time can be scaled to the speed of
a reference host (see ``adjusted`` in ``run.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import random
import resource
import subprocess
import sys
import time

BURN_SECONDS = 0.5

#: a burner: spin for argv[1] seconds of wall time, print the CPU it got.
#: A plain interpreter, not a multiprocessing child: the spawn start method
#: would also launch a resource-tracker process that outlives the run.
_BURN = """\
import sys, time
seconds = float(sys.argv[1])
start, cpu, x = time.perf_counter(), time.process_time(), 0
while time.perf_counter() - start < seconds:
    for i in range(2000):
        x += i * i
print(time.process_time() - cpu)
"""


def effective_cpus(workers: int = 2, seconds: float = BURN_SECONDS) -> dict:
    """Burn CPU in ``workers`` processes at once; CPUs = their CPU / wall."""
    procs: list[subprocess.Popen] = []
    cpu: list[float] = []
    try:
        for _ in range(workers):
            procs.append(subprocess.Popen(
                [sys.executable, "-c", _BURN, str(seconds)],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True))
        for proc in procs:
            out, _ = proc.communicate(timeout=seconds + 30)
            cpu.append(float(out))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return {
        "burners": workers,
        "burn_wall_s": seconds,
        "cpu_s_per_burner": [round(c, 4) for c in cpu],
        "effective_cpus": round(sum(cpu) / seconds, 3),
    }


#: the speed reference's time on the build host in its fast phase; adjusted
#: times are seconds on a host where :func:`speed_probe` takes this long.
REFERENCE_SECONDS = 0.010

_REF_N = 70


def _reference_graph() -> list[int]:
    rng = random.Random(12345)
    adj = [0] * _REF_N
    for u in range(_REF_N):
        for v in range(u + 1, _REF_N):
            if rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


_REF_ADJ = _reference_graph()


def _count(p: int, x: int) -> int:
    """Maximal cliques of the reference graph under (P, X), Tomita pivot."""
    if not p:
        return 0 if x else 1
    adj = _REF_ADJ
    best, pivot = -1, 0
    m = p | x
    while m:
        low = m & -m
        u = low.bit_length() - 1
        c = (p & adj[u]).bit_count()
        if c > best:
            best, pivot = c, u
        m ^= low
    total = 0
    cand = p & ~adj[pivot]
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        total += _count(p & adj[v], x & adj[v])
        p &= ~low
        x |= low
        cand ^= low
    return total


def speed_probe() -> float:
    """Seconds this process takes for a fixed reference computation.

    The reference is the benchmark's own frozen clique counter (big-int
    bitsets, like the program's engines) on a fixed graph, so its time
    moves with the host's speed and never with the program.
    """
    start = time.perf_counter()
    _count((1 << _REF_N) - 1, 0)
    return time.perf_counter() - start


def probe() -> dict:
    """Host header for the result: CPUs, versions, pool start method."""
    import numpy  # the program's optional backend dependency

    methods = multiprocessing.get_all_start_methods()
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **effective_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pool_start_method": "fork" if "fork" in methods else methods[0],
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB.

    ``ru_maxrss`` of ``RUSAGE_CHILDREN`` is the largest single descendant
    that has been waited for (pool workers, the server and its workers).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
