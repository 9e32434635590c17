"""Test-session setup, run before any test module imports numpy."""

import os

# BLAS pinned to one thread, as perfbench/run.py pins it: the hot path is Python around
# small matmuls, and a second thread waiting for a core that other processes share only
# makes a test's time vary.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
