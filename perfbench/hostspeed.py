"""Host speed, sampled while a pass runs, and times scaled to a reference speed.

The benchmark's host shares its CPUs with other machines' work, and the
speed it delivers drifts by a fifth or more over minutes.  Steal time
stays near zero, so the drift is in what each instruction costs, not in
scheduling.  A sample is one run of a fixed pure-Python integer loop
owned by the benchmark, so no change to the library moves it.  Sampled
through a pass, it follows the host's drift (see the README's "Host
noise").

``scaled(a, b)`` turns the wall time between a and b into seconds at the
reference speed, at which one kernel run takes ``REF_KERNEL_S``: each
stretch between two samples is multiplied by ``REF_KERNEL_S`` over the
mean kernel time of the samples at its ends.  Time spent sampling is
left out.

Run as a script, this module runs the CLI in its own process with the
host speed sampled in it, and writes the samples to a file:

    python3 perfbench/hostspeed.py SAMPLES.json CLI-ARGS...
"""

from __future__ import annotations

import signal
import sys
from time import perf_counter

LOOPS = 12000
PERIOD_S = 0.2
BOUNDARY_RUNS = 5  # kernel runs in a sample at the ends of a short stretch
# One kernel run's time on a quiet host (2.0 GHz Xeon VM, Python 3.11).
REF_KERNEL_S = 0.0009


def kernel() -> float:
    t0 = perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return perf_counter() - t0


class HostSpeed:
    """Speed samples of this process: (start, end, kernel seconds) of each."""

    def __init__(self, samples=()):
        self.samples = list(samples)

    def sample(self, *_, runs=1):
        """Take a sample: the median time of runs kernel runs."""
        t0 = perf_counter()
        k = sorted(kernel() for _ in range(runs))[runs // 2]
        self.samples.append((t0, perf_counter(), k))

    def start(self, runs=1):
        """Sample now and every PERIOD_S until stop(), from a SIGALRM handler."""
        self.sample(runs=runs)
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self, runs=1):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample(runs=runs)

    def scaled(self, a: float, b: float) -> float:
        """Seconds at the reference speed for the wall time from a to b.

        a and b must lie between the first and the last sample.
        """
        total = 0.0
        for (_, e0, k0), (s1, _, k1) in zip(self.samples, self.samples[1:]):
            overlap = min(b, s1) - max(a, e0)
            if overlap > 0:
                total += overlap * REF_KERNEL_S / ((k0 + k1) / 2)
        return total

    def unscaled(self, a: float, b: float) -> float:
        """Wall time from a to b without the time spent sampling."""
        spent = sum(min(b, e) - max(a, s) for s, e, _ in self.samples if min(b, e) > max(a, s))
        return b - a - spent

    def factor(self) -> float:
        """Reference over actual speed, from the mean of all samples."""
        times = self.kernel_times()
        return REF_KERNEL_S / (sum(times) / len(times))

    def kernel_times(self):
        return [k for _, _, k in self.samples]


if __name__ == "__main__":
    import json

    samples_file, args = sys.argv[1], sys.argv[2:]
    speed = HostSpeed()
    speed.start(runs=BOUNDARY_RUNS)
    try:
        from segal_abacus import cli

        sys.argv = [cli.__file__, *args]  # as ``python -m segal_abacus.cli`` sees it
        code = cli.main(args)
    finally:
        speed.stop(runs=BOUNDARY_RUNS)
        with open(samples_file, "w") as fh:
            json.dump(speed.samples, fh)
    sys.exit(code)
