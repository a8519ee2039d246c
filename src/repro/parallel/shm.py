"""Zero-copy shared-memory publication of read-only NumPy arrays.

The persistent worker pool broadcasts the big immutable per-engine state —
genome codes and the CSR index arrays — through POSIX shared memory
(:mod:`multiprocessing.shared_memory`) instead of pickling it into every
worker: the parent publishes once, workers attach by name and wrap
zero-copy ``ndarray`` views over the same physical pages (the
``shared_mem_bcast`` idiom).  A respawned worker re-attaches from the same
tiny :class:`SharedArraySpec` (name/shape/dtype) instead of re-receiving
the data, so crash recovery costs an ``mmap``, not a genome pickle.

Segment-ownership protocol (DESIGN.md §14; ``tests/parallel/test_pool.py``):

* the **parent** creates segments through :class:`SharedArrayBundle`, which
  owns them: every handle is stored on the bundle, and ``close()`` closes
  *and unlinks* each segment exactly once (idempotent).  The bundle's owner
  (:class:`repro.parallel.pool.PersistentPool`) holds the crash net that
  calls it when a parent interrupted mid-run (``KeyboardInterrupt``) never
  reaches ``close()``.  The parent's own reads go through
  :meth:`SharedArrayBundle.view`, a separate mapping that the array
  holds, so ``close()`` never meets an exported buffer;
* **workers** attach via :func:`attach_array` and must keep the returned
  handle alive as long as the view (the buffer is only mapped while the
  handle is open) and only ever ``close()`` it — ``unlink`` is the
  parent's alone.  Worker processes hold the handles in their worker
  state for their lifetime; process exit closes the mapping.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import CommError

__all__ = ("SharedArrayBundle", "SharedArraySpec", "attach_array")


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable recipe for attaching one published array.

    ``name`` is the OS-assigned shared-memory segment name; ``shape`` and
    ``dtype`` (an endian-explicit dtype string) reconstruct the ndarray
    view on the worker side.  Specs are a few dozen bytes — cheap enough
    to ship through worker ``initargs`` on every (re)spawn.
    """

    name: str
    shape: "tuple[int, ...]"
    dtype: str

    @property
    def nbytes(self) -> int:
        """Bytes of array payload the segment carries."""
        return int(np.dtype(self.dtype).itemsize) * int(math.prod(self.shape))


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create one segment; the caller (the bundle) takes ownership."""
    # SharedMemory rejects size=0; a one-byte segment backs empty arrays.
    shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    return shm


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment; the caller takes ownership."""
    shm = shared_memory.SharedMemory(name=name)
    return shm


class SharedArrayBundle:
    """Parent-side owner of a set of published shared-memory arrays.

    ``publish`` copies an array into a fresh segment and returns the spec
    workers attach with; ``specs`` is the full picklable publication map.
    The bundle is the single owner of every segment it created: ``close()``
    closes and unlinks them all, and is safe to call any number of times.
    """

    def __init__(self) -> None:
        self._segments: "dict[str, shared_memory.SharedMemory]" = {}
        self._specs: "dict[str, SharedArraySpec]" = {}
        self._closed = False

    def publish(self, key: str, array: np.ndarray) -> SharedArraySpec:
        """Copy ``array`` into a new shared segment; returns its spec."""
        if self._closed:
            raise CommError("cannot publish through a closed SharedArrayBundle")
        if key in self._specs:
            raise CommError(f"array {key!r} is already published")
        src = np.ascontiguousarray(array)
        shm = _create_segment(src.nbytes)
        view: np.ndarray = np.ndarray(src.shape, dtype=src.dtype, buffer=shm.buf)
        view[...] = src
        spec = SharedArraySpec(
            name=shm.name, shape=tuple(src.shape), dtype=src.dtype.str
        )
        self._segments[key] = shm
        self._specs[key] = spec
        return spec

    def view(self, key: str) -> np.ndarray:
        """The parent's read-only view of a published array.

        It is a mapping of its own (of the segment's POSIX descriptor),
        taken before :meth:`close`: it stays valid after close() unlinks
        the segment, which lives on until its last mapping goes.
        """
        spec = self._specs[key]
        pages = mmap.mmap(self._segments[key]._fd, 0, access=mmap.ACCESS_READ)
        return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=pages)

    @property
    def specs(self) -> "dict[str, SharedArraySpec]":
        """Publication map (key -> spec) to ship through worker initargs."""
        return dict(self._specs)

    @property
    def nbytes(self) -> int:
        """Total array payload bytes across all published segments."""
        return sum(spec.nbytes for spec in self._specs.values())

    @property
    def segment_names(self) -> "list[str]":
        """OS segment names currently owned (leak-check introspection)."""
        return [spec.name for spec in self._specs.values()]

    def close(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shm in self._segments.values():
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments.clear()


def attach_array(
    spec: SharedArraySpec,
) -> "tuple[np.ndarray, shared_memory.SharedMemory]":
    """Worker-side attach: a read-only zero-copy view plus its handle.

    The caller must keep the handle alive as long as the view is in use
    (closing the handle unmaps the buffer under the array) and close — but
    never unlink — it when done; the publishing parent owns unlink.
    """
    shm = _attach_segment(spec.name)
    view: np.ndarray = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf
    )
    view.setflags(write=False)
    return view, shm
