"""Print the kernel OpenBLAS picked for this CPU and the number of threads
it runs, each "unknown" when numpy's bundled OpenBLAS cannot be found or
asked; it never fails.

    python .github/openblas_core.py
"""

import ctypes
import glob
import os

import numpy

libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
try:
    lib = ctypes.CDLL(libs[0])
except (IndexError, OSError):
    lib = None


def ask(name, restype, show):
    """show(name()) from the library, or "unknown"."""
    try:
        function = getattr(lib, name)
        function.restype = restype
        return show(function())
    except (AttributeError, OSError, TypeError, ValueError):
        return "unknown"


print("OpenBLAS core:", ask("scipy_openblas_get_corename64_", ctypes.c_char_p, bytes.decode))
print("OpenBLAS threads:", ask("scipy_openblas_get_num_threads64_", ctypes.c_int, str))
