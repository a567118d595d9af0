"""Time one fresh process's set-up: import legcable and build atlases.

    python3 setup_probe.py <src dir> [builtin atlas name ...]

Prints the seconds from before the import to after the last atlas is built,
then the median calibration sample taken after it.  Interpreter start-up is
not included.
"""

import sys
from time import perf_counter

CALIBRATION_SAMPLES = 15

start = perf_counter()
sys.path.insert(0, sys.argv[1])
import legcable  # noqa: E402
import legcable.cli  # noqa: E402,F401

atlases = [legcable.builtin_atlas(name) for name in sys.argv[2:]]
setup = perf_counter() - start

import os  # noqa: E402
import statistics  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calibrate  # noqa: E402

print(setup, statistics.median(calibrate.sample() for _ in range(CALIBRATION_SAMPLES)))
