"""Host-speed calibration: how much slower than the reference host this
host runs right now.

    python3 perfbench/calibrate.py

Prints one number, the host factor: the kernel's host seconds divided by
its time on the reference host. It runs in a process of its own, between
repetitions, so its memory never counts toward a repetition's peak RSS.

Other tenants of a shared host slow a simulation by up to 1.8x, for
stretches of a second to minutes. The kernel below is the benchmark's own
code, which no change to aggsim moves. Like the simulator, it hashes,
appends small tuples to many short lists and drops them, over a working set
of tens of MB, so it slows with the simulator. Across SSSP repetitions on a
2-core VM its speed correlated with items/s at 0.82, against 0.73 for a
kernel with a tiny working set.
"""
import random
import time

# the kernel's time on the reference host, a round figure near its time on
# a 2-core 2.1 GHz Xeon VM with Python 3.11 when least contended (0.18-0.2 s)
REFERENCE_S = 0.2
KEYS = 300_000


def kernel_seconds() -> float:
    rng = random.Random(0xCA11B)
    keys = [rng.randrange(1 << 22) for _ in range(KEYS)]
    t0 = time.perf_counter()
    table = {}
    rows = [[] for _ in range(4096)]
    for i, k in enumerate(keys):
        row = rows[k & 4095]
        row.append((k, i))
        table[k] = table.get(k, 0) + 1
        if len(row) == 64:
            rows[k & 4095] = []
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(kernel_seconds() / REFERENCE_S)
