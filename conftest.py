"""Test-session setup shared by ``tests/`` and ``bench/``.

BLAS runs on one thread, as in ``bench/run.py``: the small dense solves of
the theta interior-point method gain nothing from more threads and slow down
sharply when another process shares the cores.  The variables are read when
numpy is first imported, so they are set here, before any test module loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
