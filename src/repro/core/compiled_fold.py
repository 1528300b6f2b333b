"""The compiled tile fold: ``_fold.c``, built by the system C compiler
on first use and loaded through :mod:`ctypes` (DESIGN.md §10,
"Compiled fold").

:class:`~repro.core.column.TileState` asks :func:`kernels` once per
scan.  The fold is single precision, as the paper's CPU kernel is: a
float32 tile runs it, a float64 tile (the reference precision) always
runs the NumPy fold.  The library is built or loaded once per process,
on the first fold; with no compiler, a failed build or a library that
will not load, :func:`kernels` is ``None`` and the NumPy fold runs
float32 tiles too — :func:`fold_backend` says which fold is active and
why.  There is no switch: the tile's dtype and whether the library
loads decide.  The same library carries the bag-of-words embedding
(:func:`bow_kernels`; float32 and float64 outputs), whose one caller
is :class:`~repro.core.numerics.BowEmbedder`, with the NumPy embedding
(:func:`~repro.core.numerics.bow_embed_each`) as its fallback and
referee, and the float32 answer layer (``repro_answer``), whose one
caller is :class:`~repro.core.early_exit.AnswerLayer`, with ``u @ W.T``
and the NumPy margin as its fallback and referee.

A resident scan (``repro_scan``) calls the BLAS NumPy loaded from C
(:func:`blas_entries`); where no entry resolves, the NumPy fold runs.

Build and cache rules:

* The source ships as package data (``repro/core/_fold.c``) and is
  compiled with :data:`FLAGS` — tuned for the CPU it runs on.
* The library is cached under ``$XDG_CACHE_HOME/repro`` (default
  ``~/.cache/repro``), or a per-user directory in the temp dir when
  that is not usable, as ``fold-<key>.so``.  The key digests the
  source, the compiler binary, the flags, ``platform.machine()`` and
  the CPU's ISA flags, so a cache hit runs no compiler and a library
  built for one CPU is never loaded on another.
* A build writes a temp file in the cache directory and ``os.replace``-s
  it into place, so process workers building at once each end up with a
  whole library.  A cached file shorter than its own ELF header says (a
  truncated or overwritten library) is rebuilt, not loaded.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import hashlib
import importlib.resources
import os
import platform
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "BLAS_ENTRIES", "FLAGS", "AnswerPass", "AnswerState", "FoldState", "ScanPlan",
    "bow_kernels", "exp", "fold_backend", "kernels", "load", "structs",
]  # fmt: skip

#: ``-march=native``: the vector width and FMA of the host (a generic
#: ``-O3`` build folds a 16-question tile at 1.7x the NumPy fold's
#: speed, this one at 3.3x — DESIGN.md §10).  ``-ffp-contract=off``: the
#: only fused multiply-adds are the ones ``_fold.c`` writes, so vector
#: and scalar code round alike.
FLAGS = (
    "-O3", "-march=native", "-fopenmp-simd", "-ffp-contract=off",
    "-fPIC", "-shared",
)  # fmt: skip

#: A build slower than this is abandoned (the NumPy fold runs).
BUILD_TIMEOUT_S = 120

#: ``repro_fold``'s and ``repro_hop``'s negative returns: which
#: argument failed its check (nothing was written), or an empty scan.
FOLD_ERRORS = {
    -1: "scores must be a writable, aligned (nq, n) float32 block",
    -2: "output rows must be an aligned (n, ed) float32 array",
    -3: "RunRows pieces must tile the block and index rows of the memory",
    -4: "u must be a writable, C-ordered (nq, ed) float64 array",
    -5: "u_tile must be a writable, C-ordered (nq, ed) float32 array",
    -6: "cannot finalize a partial with an empty denominator",
    -7: "a scan plan's memory must be (n, ed) float32 pairs, M_IN feature-major",
}

#: ``(sgemm's symbol, its integers' width)``, tried in this order in the
#: OpenBLAS NumPy's wheel bundles; ``sdot`` and ``sgemv`` are named alike.
BLAS_ENTRIES = (
    ("scipy_cblas_sgemm64_", 64), ("cblas_sgemm64_", 64),
    ("scipy_cblas_sgemm", 32), ("cblas_sgemm", 32),
)  # fmt: skip

#: ``repro_answer``'s negative returns: which argument failed its check
#: (nothing was written).
ANSWER_ERRORS = {
    -1: "u must be an aligned (nq, ed) float32 or float64 array",
    -2: "logits must be a writable (nq, na) float32 or float64 array, column stride 1",
    -3: "top must be a writable, C-ordered (nq,) int64 array",
    -4: "confidence must be a writable, C-ordered (nq,) float64 array",
    -5: "out of memory",
}

#: ``repro_bow``'s returns: an out-of-range word ID (nothing written), and
#: an array the C loop does not take (the NumPy embedding runs instead).
BOW_BAD_WORD = -1
BOW_REFUSED = -2

#: ``struct_pointer(array.__array_struct__, None)``: the address of the
#: array's ``PyArrayInterface`` (NumPy's array interface protocol), valid
#: while the capsule is alive.  It carries data pointer, shape, strides,
#: dtype and flags in one ~0.4 us lookup — ``array.ctypes.data`` alone
#: costs ~1.2 us, a quarter of a one-question tile's whole fold.
struct_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def structs(arrays) -> tuple[list, list]:
    """The ``__array_struct__`` capsules of ``arrays`` and their
    addresses (``None`` for ``None``).  An address is valid while its
    capsule is referenced: keep the capsules as long as the addresses."""
    capsules = [None if a is None else a.__array_struct__ for a in arrays]
    return capsules, [None if c is None else struct_pointer(c, None) for c in capsules]


def pair_structs(a, b) -> tuple[tuple, tuple]:
    """``structs((a, b, None, None))`` without its loops (≈ 0.5 us less
    a call): a tile's ``(scores, rows)``, or a hop's ``(u, u_tile)``."""
    held = (a.__array_struct__, b.__array_struct__)
    at = struct_pointer(held[0], None), struct_pointer(held[1], None), None, None
    return held, at


class BlasEntries(ctypes.Structure):
    """``blas_entries`` of ``_fold.c``: ``sdot``, ``sgemv``, ``sgemm``
    and the width of their integers."""

    _fields_ = [
        ("sdot", ctypes.c_void_p), ("sgemv", ctypes.c_void_p),
        ("sgemm", ctypes.c_void_p), ("width", ctypes.c_int64),
    ]  # fmt: skip


class FoldState(ctypes.Structure):
    """``fold_state`` of ``_fold.c``: one scan's running state, by
    pointer into the arrays a :class:`~repro.core.column.TileState`
    owns (they must outlive it); ``pending``: add ``contrib`` into
    ``acc``; ``blas``: the process's :class:`BlasEntries`."""

    _fields_ = [
        ("nq", ctypes.c_int64),
        ("ed", ctypes.c_int64),
        ("denom", ctypes.c_void_p),
        ("acc", ctypes.c_void_p),
        ("log_max", ctypes.c_void_p),
        ("threshold", ctypes.c_double),
        ("floor", ctypes.c_double),
        ("folded", ctypes.c_int64),
        ("contrib", ctypes.c_void_p),
        ("pending", ctypes.c_int64),
        ("blas", ctypes.c_void_p),
    ]


class ScanPlan(ctypes.Structure):
    """``scan_plan`` of ``_fold.c``: a memory's (M_IN, M_OUT) pieces'
    and the score workspace's ``array_interface`` pointers."""

    _fields_ = [
        ("pieces", ctypes.c_int64), ("chunk", ctypes.c_int64),
        ("memory", ctypes.c_void_p), ("scores", ctypes.c_void_p),
    ]  # fmt: skip


class AnswerPass(ctypes.Structure):
    """``answer_pass`` of ``_fold.c``: a one-call answer's parts, by
    address."""

    _fields_ = [
        ("hops", ctypes.c_int64), ("states", ctypes.c_void_p),
        ("plans", ctypes.c_void_p), ("layer", ctypes.c_void_p),
        ("encoding", ctypes.c_void_p), ("table", ctypes.c_void_p),
        ("u", ctypes.c_void_p), ("u_tile", ctypes.c_void_p),
        ("logits", ctypes.c_void_p), ("top", ctypes.c_void_p),
        ("kept", ctypes.c_void_p),
    ]  # fmt: skip


class AnswerState(ctypes.Structure):
    """``answer_layer`` of ``_fold.c``: the answer matrix ``W`` packed in
    16-answer panels, by pointer into an array its
    :class:`~repro.core.early_exit.AnswerLayer` owns."""

    _fields_ = [
        ("na", ctypes.c_int64),
        ("ed", ctypes.c_int64),
        ("panels", ctypes.c_int64),
        ("packed", ctypes.c_void_p),
        ("floor", ctypes.c_double),
    ]


def find_compiler() -> str | None:
    """The system C compiler, or ``None``."""
    return shutil.which("cc")


def _cpu_flags() -> str:
    """The CPU's ISA flags (``/proc/cpuinfo``), else its name."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _cache_dir() -> Path | None:
    """The first usable cache directory: ours, writable, and writable
    by no one else (a library loaded from it runs in this process)."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    uid = os.getuid() if hasattr(os, "getuid") else None
    for directory in (
        Path(base) / "repro",
        Path(tempfile.gettempdir()) / f"repro-{uid if uid is not None else 'cache'}",
    ):
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            status = directory.stat()
        except OSError:
            continue
        private = uid is None or (
            status.st_uid == uid and not status.st_mode & 0o022
        )
        if private and os.access(directory, os.W_OK):
            return directory
    return None


def _key(compiler: str, source: bytes) -> str:
    binary = os.path.realpath(compiler)
    stat = os.stat(binary)
    digest = hashlib.sha256()
    for part in (
        source,
        f"{binary}:{stat.st_size}:{stat.st_mtime_ns}",
        " ".join(FLAGS),
        platform.machine(),
        _cpu_flags(),
    ):
        digest.update(part if isinstance(part, bytes) else part.encode())
        digest.update(b"\0")
    return digest.hexdigest()[:32]


def _intact(path: Path) -> bool:
    """Whether an ELF library is as long as its header says: the
    section header table a linker writes last must fit in the file.
    (Other formats are left to the loader.)"""
    with open(path, "rb") as file:
        head = file.read(64)
    if not sys.platform.startswith("linux"):
        return True
    if len(head) < 52 or head[:4] != b"\x7fELF" or head[4] not in (1, 2):
        return False
    order = "<" if head[5] == 1 else ">"
    if head[4] == 1:
        (offset,) = struct.unpack_from(order + "I", head, 0x20)
        entry_size, entries = struct.unpack_from(order + "HH", head, 0x2E)
    else:
        (offset,) = struct.unpack_from(order + "Q", head, 0x28)
        entry_size, entries = struct.unpack_from(order + "HH", head, 0x3A)
    return path.stat().st_size >= offset + entry_size * entries


def _build(compiler: str, source: Path, target: Path) -> str | None:
    """Compile ``source`` into ``target``; the error, or ``None``."""
    fd, partial = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        done = subprocess.run(
            [compiler, *FLAGS, "-o", partial, str(source), "-lm"],
            capture_output=True, text=True, timeout=BUILD_TIMEOUT_S, check=False,
        )  # fmt: skip
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines() or [f"exit {done.returncode}"]
            return f"build failed: {lines[-1]}"
        os.replace(partial, target)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return f"build failed: {exc}"
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _open(path: Path) -> ctypes.CDLL | None:
    """The library at ``path`` with its entry points declared; ``None``
    if it will not load."""
    try:
        library = ctypes.CDLL(str(path))
        # (state, scores, rows, bounds, shifts): the FoldState's address,
        # then array_interface() pointers (or None).
        library.repro_fold.argtypes = [ctypes.c_void_p] * 5
        library.repro_fold.restype = ctypes.c_int64
        # (state, u, u_tile): as repro_fold's.
        library.repro_hop.argtypes = [ctypes.c_void_p] * 3
        library.repro_hop.restype = ctypes.c_int64
        # (state, plan, u_tile, u): the ScanPlan's address, then as above.
        library.repro_scan.argtypes = [ctypes.c_void_p] * 4
        library.repro_scan.restype = ctypes.c_int64
        # (pass, questions): the AnswerPass's address, an array_interface().
        library.repro_pass.argtypes = [ctypes.c_void_p] * 2
        library.repro_pass.restype = ctypes.c_int64
        # (layer, u, logits, top, confidence): the AnswerState's address,
        # then array_interface() pointers (or None).
        library.repro_answer.argtypes = [ctypes.c_void_p] * 5
        library.repro_answer.restype = ctypes.c_int64
        # (sentences, encoding, table_a, out_a, table_c, out_c):
        # array_interface() pointers (or None), then the first out row.
        library.repro_bow.argtypes = [ctypes.c_void_p] * 6 + [ctypes.c_int64]
        library.repro_bow.restype = ctypes.c_int64
        library.repro_exp.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
        library.repro_exp.restype = None
        # (entries, m, n, k, a, b, ldb, c): the BlasEntries' address, ...
        library.repro_matmul.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 3 + [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
        ]  # fmt: skip
        library.repro_matmul.restype = None
    except (OSError, AttributeError):
        return None
    return library


def blas_entries() -> BlasEntries | None:
    """The first of :data:`BLAS_ENTRIES` that the BLAS bundled with NumPy
    exports, all three of its functions, or ``None``."""
    numpy_dir = os.path.dirname(np.__file__)
    for pattern in ("../numpy.libs/*openblas*", ".dylibs/*openblas*"):
        for path in sorted(glob.glob(os.path.join(numpy_dir, pattern))):
            try:
                blas = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol, width in BLAS_ENTRIES:
                names = [symbol.replace("sgemm", f) for f in ("sdot", "sgemv", "sgemm")]
                if all(hasattr(blas, name) for name in names):
                    pointer = ctypes.c_void_p
                    entries = [ctypes.cast(getattr(blas, n), pointer).value for n in names]
                    return BlasEntries(*entries, width)
    return None


@functools.lru_cache(maxsize=None)
def load() -> tuple[ctypes.CDLL | None, str]:
    """``(library, "c")``, or ``(None, reason)`` when the NumPy fold
    must run.  Builds or loads once per process; the library carries the
    process's :class:`BlasEntries` as ``blas``."""
    blas = blas_entries()
    if blas is None:
        return None, "no BLAS entry of NumPy's found (BLAS_ENTRIES)"
    compiler = find_compiler()
    if compiler is None:
        return None, "no C compiler (cc) on PATH"
    directory = _cache_dir()
    if directory is None:
        return None, "no writable cache directory"
    resource = importlib.resources.files(__package__).joinpath("_fold.c")
    with importlib.resources.as_file(resource) as source:
        target = directory / f"fold-{_key(compiler, source.read_bytes())}.so"
        library = _open(target) if target.exists() and _intact(target) else None
        if library is None:
            error = _build(compiler, source, target)
            if error is not None:
                return None, error
            library = _open(target)
    if library is None:
        return None, f"cannot load {target}"
    library.blas = blas
    return library, "c"


def kernels() -> ctypes.CDLL | None:
    """The library of the compiled float32 fold (``repro_fold``;
    ``repro_hop``, which ends a hop; ``repro_scan``, a resident scan),
    answer layer (``repro_answer``) and answer pass (``repro_pass``), or
    ``None``."""
    return load()[0]


def bow_kernels():
    """The compiled bag-of-words embedding, ``repro_bow``, or ``None``."""
    library = load()[0]
    return None if library is None else library.repro_bow


def fold_backend() -> str:
    """The active tile fold: ``"c"``, or ``"numpy: <reason>"``."""
    library, reason = load()
    return "c" if library is not None else f"numpy: {reason}"


def exp(x: np.ndarray) -> np.ndarray:
    """The compiled fold's exponential of float32 ``x``, elementwise:
    the polynomial of ``_fold.c``, what the fold computes from a shifted
    score at or above ``exp_floor`` (a cell below it, the fold writes as
    0).  Needs the library."""
    library = load()[0]
    if library is None:
        raise RuntimeError(f"the compiled fold is not available ({fold_backend()})")
    x = np.ascontiguousarray(x)
    if x.dtype != np.float32:
        raise TypeError(f"the compiled exp takes float32, got {x.dtype}")
    out = np.empty_like(x)
    library.repro_exp(x.ctypes.data, out.ctypes.data, x.size)
    return out
