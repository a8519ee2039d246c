"""Build and load the compiled lane kernels (``_lanes.c``).

The C source is compiled once per source-and-flags hash with ``cc -O3
-ffp-contract=off -fPIC -shared`` into the package's ``__pycache__/`` and
loaded with :mod:`ctypes` at import.  Only when that directory cannot be
written does the library go to a private per-user directory under the
system temp directory, made ``0700`` and refused unless this user owns it
and nobody else can reach it: the library's name is predictable, and a
shared object planted there would run as whoever imports the package.
``-ffp-contract=off`` forbids fused multiply-adds, so every operation
rounds as written; ``-ffast-math`` and ``-march=native`` are never used, so
the bits do not depend on the machine's vector units.  The build writes a
temporary file and renames it into place, so processes racing on a cold
cache each load a complete library.  There is no fallback: without a
working compiler, import raises :class:`KernelBuildError`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

from repro.errors import KernelBuildError

SOURCE = Path(__file__).with_name("_lanes.c")
PACKAGE_CACHE = SOURCE.parent / "__pycache__"
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

_INT, _INT64, _DBL, _PTR = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_PARAMS = [_DBL] * 5  # q, T_MM, T_GM, T_MG, T_GG
_SIGNATURES = {
    "forward": [_INT, _INT, _INT, _INT, _PTR, _PTR, _PTR, _PTR, *_PARAMS, _PTR, _PTR],
    "backward_deposit": [
        _INT, _INT, _INT, _INT, _INT, _PTR, _PTR, _PTR, _PTR, _PTR, *_PARAMS, _INT,
        _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
    ],
    "scatter_add": [_INT64, _PTR, _PTR, _PTR],
    "chardisc_quantize": [_INT64, _PTR, _PTR, _PTR],
    "chardisc_add": [_INT64, _PTR, _PTR, _PTR, _PTR],
    "centroid_nearest": [_INT64, _PTR, _PTR, _PTR, _PTR],
    "centdisc_add": [_INT64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR],
    "qgram_filter": [_INT64, _INT, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR],
    "lower_bound": [_INT64, _PTR, _PTR, _INT64, _INT, _PTR],
}


def compiler() -> str | None:
    """The C compiler on ``PATH``, or ``None``."""
    return shutil.which("cc")


def library_name() -> str:
    """The library's file name: a hash of the source and the flags."""
    tag = hashlib.sha256(SOURCE.read_bytes() + " ".join(FLAGS).encode()).hexdigest()[:16]
    return f"_lanes-{tag}.so"


def private_dir() -> Path:
    """``<tmp>/repro-<uid>``, made ``0700``; :class:`KernelBuildError`
    unless it is a directory (not a link) this user owns with no group or
    other permission bits."""
    path = Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"
    try:
        path.mkdir(mode=0o700, exist_ok=True)
        st = os.lstat(path)
    except OSError as exc:
        raise KernelBuildError(f"cannot make the private kernel cache {path}: {exc}") from exc
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid() or st.st_mode & 0o077:
        raise KernelBuildError(
            f"refusing the kernel cache {path}: it must be a directory owned by uid "
            f"{os.getuid()} with mode 0700, found uid {st.st_uid} mode "
            f"{stat.filemode(st.st_mode)}"
        )
    return path


def cache_dir() -> Path:
    """Where the library is looked for and built: the package's
    ``__pycache__`` when it holds the library or can be written, else
    :func:`private_dir`."""
    if (PACKAGE_CACHE / library_name()).is_file():
        return PACKAGE_CACHE
    try:
        PACKAGE_CACHE.mkdir(exist_ok=True)
        if os.access(PACKAGE_CACHE, os.W_OK):
            return PACKAGE_CACHE
    except OSError:
        pass
    return private_dir()


def _build(target: Path) -> None:
    cc = compiler()
    if cc is None:
        raise KernelBuildError("cannot build the lane kernels: no C compiler ('cc') on PATH")
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", dir=target.parent)
    os.close(fd)
    cmd = [cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            raise KernelBuildError(
                f"building the lane kernels failed: {' '.join(cmd)}\n{done.stderr.strip()}"
            )
        os.chmod(tmp, 0o755)  # mkstemp's 0600 would hide it from other users
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load() -> ctypes.CDLL:
    """The kernel library, built first if the cache directory lacks it."""
    path = cache_dir() / library_name()
    if not path.is_file():
        _build(path)
    lib = ctypes.CDLL(str(path))
    for fn, argtypes in _SIGNATURES.items():
        getattr(lib, fn).argtypes = argtypes
        getattr(lib, fn).restype = None
    return lib


LIB = load()
