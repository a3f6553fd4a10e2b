"""A reference loop that tells how fast the machine runs Python at the moment.

On a shared VM the speed of pure-Python code can drift by 1.5-2x within a
minute.  The drift is much the same for hermkq's queries and for a plain
arithmetic loop: on a 2-vCPU VM the time of 40 fixed queries moved by 1.8x
over 80 s while its ratio to this loop's time stayed within about 6%.  So the
benchmark times this loop between queries and reports every time scaled to a
fixed reference speed:

    scaled time = measured time * REFERENCE_S / (the loop's time around it)

A change to hermkq moves the measured times and leaves the loop alone, so it
shows in the scaled times in full.
"""

from __future__ import annotations

import time

# the loop's time at the reference speed (about its median on the VM above)
REFERENCE_S = 0.0015
LOOP = 20000


def loop_s():
    """The least of three timings of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(LOOP):
            x += i * i
        best = min(best, time.perf_counter() - start)
    return best
