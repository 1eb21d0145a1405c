"""Test-session set-up: one BLAS and OpenMP thread, where the environment
sets no count.

The matrices here are 1x1 to 3x3, so a thread pool only adds stalls when
another process keeps the cores busy. The counts are read once, when numpy
loads, so they are set here, before any test module imports it; the
subprocesses that tests start inherit them.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
