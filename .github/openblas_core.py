"""Print the kernel OpenBLAS picked for this CPU, or "unknown" when numpy's
bundled OpenBLAS cannot be found or asked; it never fails.

    python .github/openblas_core.py
"""

import ctypes
import glob
import os

import numpy

libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
try:
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    print("OpenBLAS core:", corename().decode())
except (IndexError, OSError, AttributeError):
    print("OpenBLAS core: unknown")
