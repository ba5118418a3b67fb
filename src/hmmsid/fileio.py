"""File access shared by the package: atomic writes, and the JSON writer
and JSON-object reader behind every JSON artifact and input."""

from __future__ import annotations

import json
import os
import tempfile


def atomic_write(path, data) -> None:
    """Write ``data`` to ``path`` through a temp file in the same directory
    and os.replace, so a reader never sees a partial file. A str is encoded
    as UTF-8 with newlines written as they are."""
    path = os.fspath(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, value) -> None:
    """Write ``value`` atomically as JSON with a one-space indent, sorted
    keys and a final newline, so a value always gives the same bytes."""
    atomic_write(path, json.dumps(value, indent=1, sort_keys=True) + "\n")


def read_json_object(path) -> dict:
    """The JSON object in the UTF-8 file ``path``. A file that is not valid
    JSON, or holds anything but an object, raises ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise ValueError(f"{path}: does not hold a JSON object")
    return d
