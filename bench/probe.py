"""Set-up probe: import the package, parse one config, print the clock.

``run.py`` reads ``time.monotonic()`` just before it starts this script in
a fresh interpreter; the difference to the first value printed here is the
set-up time a CLI user pays before the first solver call. The second value
is the host-speed factor REFERENCE_S / kernel wall time of the calibration
kernel, run afterwards (calibrate.py).
"""

import sys
import time

import atomsqueeze.cli  # noqa: F401  (the CLI imports every module)
from atomsqueeze.config import load_config

if __name__ == "__main__":
    load_config(sys.argv[1])
    ready = time.monotonic()
    import calibrate

    print(repr(ready), repr(calibrate.REFERENCE_S / calibrate.measure()[0]))
