"""Small shared helpers: atomic file writes and reading JSON documents that
may be malformed."""

from __future__ import annotations

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


_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string"}


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
    """obj[key], or default when it is absent, as kind (int, float, bool or
    str); an integer also serves as a float. Any other value raises error."""
    value = obj.get(key, default)
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
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
