"""Small shared helpers: atomic file writes, reading JSON documents that may
be malformed, and the one platform-specific call, keep_freed_heap, which
tells glibc's allocator to keep freed memory instead of returning it."""

from __future__ import annotations

import ctypes
import functools
import json
import os
import tempfile

import numpy as np


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory plus rename.

    Interrupted runs never leave a truncated file at the target path.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# glibc's mallopt parameters and the values keep_freed_heap sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20  # glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit; older glibc rejects more
_TRIM_THRESHOLD = 256 << 20


@functools.cache
def keep_freed_heap() -> bool:
    """From the first call on, the process keeps up to 256 MiB of freed heap
    instead of returning it to the kernel; later calls do nothing.

    glibc serves blocks above its mmap threshold (128 KB by default) with a
    fresh mmap and unmaps them on free, so every numpy temporary of a few
    hundred KB is faulted in page by page again. Raising the mmap threshold
    to 32 MiB puts such blocks on the heap, and raising the trim threshold
    to 256 MiB keeps the heap's freed top mapped. Only the allocator's
    bookkeeping changes, never a computed value. Where the C library has no
    mallopt (not glibc) it does nothing; returns whether mallopt was called.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    return True


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def json_object(text: str | bytes, error: type[Exception], what: str) -> dict:
    """The JSON object text holds. Bad UTF-8, bad JSON, deep nesting and a
    document that is not an object raise error."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise error(f"{what} must be a JSON object")
    return obj


def json_value(obj: dict, key: str, kind: type, error: type[Exception], default=None):
    """obj[key], or default when it is absent, as kind (int, float or str);
    an integer also serves as a float. Any other value, and an absent
    key with no default, raises error."""
    if key not in obj and default is None:
        raise error(f"missing {key!r}")
    value = obj.get(key, default)
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise error(f"{key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer too large for a float
        raise error(f"{key!r} is out of range") from None


def json_array(value, error: type[Exception], what: str) -> np.ndarray:
    """value, a number or nested lists of numbers, as a float64 array. Ragged
    lists, any other entry and a non-finite entry raise error."""
    try:
        array = np.asarray(value)
    except ValueError:
        raise error(f"{what} must be a rectangular array of numbers") from None
    if array.dtype.kind not in "iuf":
        raise error(f"{what} must be numbers")
    array = array.astype(np.float64)
    if not np.isfinite(array).all():
        raise error(f"{what} must be finite")
    return array
