"""Settings shared by the whole test session.

BLAS runs one thread per process. The models here are small, so extra BLAS
threads only spin against each other and against the acceptance harness's
two training workers (``tests/test_acceptance.py``); results are the same
either way. This file is loaded before any test module imports numpy, which
reads these variables once, at import. A value already set in the
environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
