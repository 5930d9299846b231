"""Pin BLAS to one thread for the whole suite, before numpy is imported.

The first multi-threaded OpenBLAS ``eigvalsh`` after the host has been idle
can take over 1 s on its own (its thread pool wakes up), which is more than
the timed region of criterion 01 allows.  One thread keeps each call at its
usual cost; ``perfbench/run.py`` pins its own runs the same way.  Child
processes the tests start inherit the setting.
"""

import os

os.environ.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")})
