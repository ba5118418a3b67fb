"""Atomic file writes shared by every writer in the package."""

from __future__ import annotations

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
