"""Machine-speed probe sampled in the measured thread while kzcal runs.

On a small virtual machine on a shared host (2 vCPUs), the speed of a fixed
CPU-bound loop drifts by up to 1.6x within a minute, and a process's CPU
time drifts with it: the slowdown is contention for the core, not time spent
descheduled, so neither CPU time nor more repetitions remove it.  A fixed
reference computation timed at the same moments as the measured work sees
the same slowdown, so dividing by it cancels most of it.

``SpeedProbe.start`` arms a SIGALRM interval timer.  Every ``PERIOD_S`` the
handler runs, in the main thread between two bytecodes of whatever kzcal is
doing, a fixed kernel: the eigenvalues of a fixed complex 3 x 3 matrix at 40
digits, by ``mpmath.eig`` in a private ``mpmath`` context (the precision of
``mpmath.mp``, which kzcal sets, is neither read nor changed).  Of the
kernels tried (plain Python big-integer arithmetic, mpmath scalar
arithmetic, Python object sorting, numpy gathers from a 4 MiB table) it is
the one whose worst workload is tracked least badly: Python kernels track
the mpmath workloads but over-correct the memory-bound float64 one, numpy
gathers the opposite; see ``perfbench/README.md``.  The kernel uses no kzcal
code and no state kzcal reads, so it cannot alter the program's results.  The
handler's own time is recorded so that it can be taken out of the measured
wall time.
"""

from __future__ import annotations

import signal
import time

import mpmath

PERIOD_S = 0.25


class SpeedProbe:
    def __init__(self):
        self.ctx = mpmath.MPContext()
        self.ctx.dps = 40
        n = 3
        self.matrix = self.ctx.matrix(n, n)
        for i in range(n):
            for j in range(n):
                self.matrix[i, j] = (
                    self.ctx.mpc(i + 0.5, 0.1) if i == j else self.ctx.mpf(i + 1) / (j + 2)
                )
        self.kernel_s: list[float] = []
        self.overhead_s = 0.0

    def kernel(self) -> None:
        self.ctx.eig(self.matrix, left=False, right=False)

    def _handler(self, signum, frame):
        entered = time.perf_counter()
        self.kernel()
        done = time.perf_counter()
        self.kernel_s.append(done - entered)
        self.overhead_s += done - entered

    def start(self) -> None:
        self.kernel()  # warm-up
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
