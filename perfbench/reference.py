"""Reference loop that measures the machine's speed while the engine runs.

Usage: python3 perfbench/reference.py OUT_FILE

run.py starts this at the lowest priority on the CPU its runs are pinned
to, so it gets about 1.5% of that CPU while a run is busy. It sees the
same vCPU at the same moments as the run. For each repetition of a fixed
loop it appends a line with the CLOCK_MONOTONIC reading at the end of the
repetition and the CPU seconds that repetition took. It stops on SIGTERM.
"""

import os
import signal
import sys
import time

import numpy as np


def main(path: str):
    os.nice(19)
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4000, 4))
    text = [f"{v:.4f}" for v in rng.normal(size=400)]
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    with open(path, "w", encoding="utf-8") as out:
        j = 0
        while not stopping:
            start = time.process_time()
            acc = {}
            for i in range(4):
                column = values[(j + i) % 8 * 500:((j + i) % 8 + 1) * 500, i]
                acc[i] = float(np.cumsum(column[np.argsort(column)])[-1])
            for k, cell in enumerate(text):
                acc[k % 7] = acc.get(k % 7, 0.0) + float(cell)
            cpu = time.process_time() - start
            out.write(f"{time.clock_gettime(time.CLOCK_MONOTONIC)!r} {cpu!r}\n")
            j += 1


if __name__ == "__main__":
    main(sys.argv[1])
