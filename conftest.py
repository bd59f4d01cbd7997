"""Pin numpy's BLAS to one thread for the test session, before any test module imports numpy.

OpenBLAS reads its thread count once, when numpy loads it. At the tests'
widths a multithreaded BLAS doubles the CPU time of training and keeps
training's helper process off (training._helper_pays), so the suite runs
one thread per process unless the environment already chose a count.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
