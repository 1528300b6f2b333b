"""pytest plugin: run the compiled kernel under AddressSanitizer and UBSan.

Load it with ``-p tests.kernel_sanitize`` (``make kernel-sanitize`` does,
with both sanitizer runtimes preloaded and ``src`` on ``PYTHONPATH``).
At import, before any test
module can call :func:`repro.core.compiled_fold.load`, it appends the
sanitizer flags to ``compiled_fold.FLAGS``; the library cache key hashes
``FLAGS``, so the sanitized build never shares a cache entry with the
normal one.  The session fails unless the sanitized build is the fold
that runs: a compile that failed would otherwise pass every test on the
NumPy fold and check nothing.
"""

import pytest

from repro.core import compiled_fold

SANITIZE_FLAGS = (
    "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
)  # fmt: skip

if compiled_fold.load.cache_info().currsize:
    raise RuntimeError("the compiled fold was loaded before the sanitizer flags")
compiled_fold.FLAGS = compiled_fold.FLAGS + SANITIZE_FLAGS


def pytest_sessionstart(session):
    backend = compiled_fold.fold_backend()
    if backend != "c":
        pytest.exit(f"sanitized kernel did not load: fold {backend}", returncode=1)
