"""Process set-up shared by the benchmark scripts: one BLAS thread, attnloc from src/.

Import this module before numpy. It pins every BLAS backend to one thread,
puts the checkout's `src/` first on `sys.path`, and refuses to run when
`src/attnloc` is missing, so an installed copy elsewhere is never measured.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"


class MissingProgram(RuntimeError):
    """The checkout holds no attnloc sources to measure."""


def import_attnloc():
    """Import attnloc from this checkout's src/ and return the package."""
    if not (SRC / "attnloc" / "__init__.py").is_file():
        raise MissingProgram(f"no attnloc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import attnloc

    if Path(attnloc.__file__).resolve().parent != SRC / "attnloc":
        raise MissingProgram(f"attnloc imported from {attnloc.__file__}, not {SRC}")
    return attnloc


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, read through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if line.count(" ") >= 5}
    except OSError:
        return None
    libs = [p for p in paths if "openblas" in p.lower() and ".so" in p]
    if not libs:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest() -> str:
    """SHA-256 over src/attnloc/*.py (names and bytes), identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "attnloc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    """What the figures depend on: interpreter, numpy, BLAS, cores and code."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }
