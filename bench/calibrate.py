"""Host-speed calibration kernel.

The benchmark host shares its cores with other tenants. The same pass runs
20-50 % slower while neighbours are busy, for minutes at a time, and CPU
time slows down with wall time, so longer runs do not average it away. A
fixed kernel, timed right before and right after every operation, tracks
that slowdown: an operation's time scaled by ``REFERENCE_S`` / (mean kernel
time around it) is its time at the host speed the kernel had when
``REFERENCE_S`` was measured. The kernel mixes the three kinds of work the
workloads do: interpreted Python, 1-D transforms and 2-D array traffic.
It is benchmark code, so a change to atomsqueeze cannot move it.
``python3 bench/calibrate.py`` prints the kernel's median time.
"""

import time

import numpy as np
from scipy.fft import dst, idst

#: Median kernel wall time on the reference host (Intel Xeon, 2 vCPUs,
#: numpy 2.4, scipy 1.17), in seconds.
REFERENCE_S = 0.12

_N = 3199
_VEC = np.exp(0.01j * np.arange(_N))
_PHASE = np.exp(-0.005j * np.linspace(0.0, 100.0, _N) ** 2)
_PHI = np.linspace(0.0, 0.01, _N) + 0.0j
_GRID = np.linspace(0.0, 1.0, 255)
_PAIR = np.outer(_GRID, 1.0 + _GRID) + 0.5j
_PHASE2 = np.exp(-1j * _GRID ** 2)
_POT = np.exp(-0.01j * np.add.outer(_GRID, _GRID))


def kernel():
    # interpreted scalar code, as in the per-point spectrum loops
    total = 0
    for i in range(600_000):
        total += i * i
    # split-step pattern on a 3199-point line: transforms and local 2x2 mixing
    u, w = _VEC, _VEC.conj()
    for _ in range(75):
        u = idst(dst(u, type=1) * _PHASE, type=1)
        w = idst(dst(w, type=1) * _PHASE.conj(), type=1)
        c, s = np.cos(_PHI), np.sin(_PHI)
        u, w = c * u - 1j * s * w, c * w + 1j * s * u
    # pair-amplitude pattern: 2-D transforms of a 255 x 255 complex array
    f = _PAIR
    for _ in range(8):
        f = idst(dst(f, type=1, axis=0) * _PHASE2[:, None], type=1, axis=0)
        f = idst(dst(f, type=1, axis=1) * _PHASE2[None, :], type=1, axis=1)
        f = f * _POT
    return total, u, w, f


#: Kernel runs per measurement; more runs average out the host's faster
#: fluctuations at the cost of time between operations.
REPEATS = 2


def measure():
    """(wall, cpu) seconds of one kernel run, averaged over REPEATS runs."""
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(REPEATS):
        kernel()
    return ((time.perf_counter() - w0) / REPEATS, (time.process_time() - c0) / REPEATS)


if __name__ == "__main__":
    samples = sorted(measure()[0] for _ in range(50))
    print(f"median kernel time {samples[len(samples) // 2]:.4f} s")
