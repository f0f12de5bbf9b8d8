"""Machine-speed probe that runs beside a benchmark run.

Usage: ``python probe.py`` -- stops on SIGTERM.

On a shared 2-vCPU virtual machine (Intel Xeon) CPU throughput drifts by
up to 2x within minutes, because of load outside the VM.  The drift hits
every process, so this probe times a fixed pure-Python loop in CPU seconds
every ``INTERVAL`` seconds while the workload runs (about 6 % of one
core).  The loop does integer arithmetic and then a memoised recursion
over complex numbers, the call-heavy shape of decision-diagram code.  On
SIGTERM it prints one ``<monotonic instant> <loop CPU seconds>`` line per
sample.  harness.py divides the mean sample inside a measured window into
:data:`REFERENCE` to get that window's speed factor.
"""

import signal
import sys
import time

#: Iterations of the arithmetic part.
LOOP = 20000
#: Recursion depth, number of roots per sample, and index modulus of the
#: recursive part.
DEPTH = 9
ROOTS = 6
MODULUS = 977
INTERVAL = 0.05
#: Mean CPU seconds of one loop on the reference machine when it is otherwise idle.
REFERENCE = 3.0e-3


def _recurse(level: int, index: int, memo: dict) -> complex:
    if level == 0:
        return complex(index & 3, 1)
    key = (level, index)
    value = memo.get(key)
    if value is None:
        value = (_recurse(level - 1, 2 * index % MODULUS, memo) * 0.5
                 + _recurse(level - 1, (2 * index + 1) % MODULUS, memo) * 0.5j)
        memo[key] = value
    return value


def main() -> None:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    samples = []
    offset = 0
    while not stopping:
        started = time.process_time()
        total = 0
        for value in range(LOOP):
            total += value * value % 7
        memo: dict = {}
        for root in range(ROOTS):
            _recurse(DEPTH, offset + root, memo)
        offset += ROOTS
        samples.append(f"{time.monotonic()!r} {time.process_time() - started!r}")
        time.sleep(INTERVAL)
    sys.stdout.write("\n".join(samples) + "\n")


if __name__ == "__main__":
    main()
