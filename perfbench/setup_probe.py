"""Time one set-up of crprolong in a fresh interpreter, and the host's speed.

Set-up is what a user pays before the first check: importing the package,
building the model catalog, and filling the Hall-basis and group-law
series caches up to the workload's word length.

    python3 perfbench/setup_probe.py <src dir> <max word length>

prints the set-up time in seconds and, after it, the time of the
host-speed reference loop (``hostspeed.reference``) at the mean host
speed around the set-up: the loop is timed just before and just after it,
in the same interpreter.
"""

import statistics
import sys
import time

from hostspeed import reference

# reference samples taken before and again after the set-up
REFERENCE_REPS = 12


def set_up(max_length: int):
    import crprolong.bch as bch
    import crprolong.frames as frames
    import crprolong.freelie as freelie

    frames.builtin_catalog()
    freelie.hall_basis(max_length)
    bch.bch_series(max_length)


if __name__ == "__main__":
    refs = [reference() for _ in range(REFERENCE_REPS)]
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    set_up(int(sys.argv[2]))
    setup_s = time.perf_counter() - t0
    refs += [reference() for _ in range(REFERENCE_REPS)]
    print(repr(setup_s), repr(statistics.harmonic_mean(refs)))
