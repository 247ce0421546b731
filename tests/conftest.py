"""Pin BLAS to one thread before any test module imports numpy.

OpenBLAS otherwise starts one thread per core, which slows the suite's many
small matrix products, and ``sasrel.parallel.blas_threads`` then keeps the
HPCFE fit's optimizer starts in one process.  With one BLAS thread the starts
run in forked workers, as they do under ``studybench``.  A value already set
in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
