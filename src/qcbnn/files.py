"""The package's one write path: a file is written whole or not at all."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def write_file(path, mode: str = "w"):
    """Open ``<path>.tmp`` beside ``path`` (text mode with ``newline=""``),
    yield the handle, and rename it over ``path`` when the block ends.

    On any exception, Ctrl-C included, the temp file is removed and
    ``path`` keeps its old bytes.  There is no fsync: this guards against
    a failing or killed process, not against power loss.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
