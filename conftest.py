"""Test-session setup for tests/ and perfbench/tests/.

The tier-1 suite pins digests of trained weights, datasets and seeded
rollouts, and those depend on how the BLAS kernel that OpenBLAS picks for
the CPU rounds: the SkylakeX kernel's 2-vector ddot fuses a multiply-add,
the Haswell kernel's does not. Every x86-64 CPU with AVX2 can run the
Haswell kernel, so the suite forces it and the digests are taken under it.
OpenBLAS reads the variable once, when numpy loads it, so it must be set
before anything imports numpy. ARM builds and macOS Accelerate are not
covered.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before conftest.py set OPENBLAS_CORETYPE, "
                       "so the pinned digests would depend on the CPU's BLAS kernel")
os.environ["OPENBLAS_CORETYPE"] = "Haswell"
