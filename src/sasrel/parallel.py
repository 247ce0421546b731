"""Sizing of the package's worker pools from what the process can observe."""

from __future__ import annotations

import os


def usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def blas_threads() -> int:
    """Threads one OpenBLAS call may use, read as OpenBLAS reads them.

    ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else every usable
    core; a value that is not a positive integer counts as unset.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return usable_cores()
