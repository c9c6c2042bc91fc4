"""Atomic replacement of output files.

An output file is written under a temporary name in its own directory and
renamed over the destination only once it is complete, so a run that fails
or is interrupted part-way leaves the previous file as it was.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager

from .errors import DataError


def require_output_path(path) -> None:
    """Raise DataError unless `atomic_write(path)` can write: the directory
    it writes in exists and the path is not itself a directory, so a
    command can refuse a bad output path before its work."""
    target = os.path.realpath(path)
    folder = os.path.dirname(target)
    if not os.path.isdir(folder):
        raise DataError(f"cannot write {path}: directory {folder} does not exist")
    if os.path.isdir(target):
        raise DataError(f"cannot write {path}: it is a directory")


@contextmanager
def atomic_write(path):
    """Open `path` for UTF-8 text writing, replacing it only on success.

    A symlink is followed, so the file it points to is the one replaced.
    The text goes to a new file beside that target, which takes the
    previous file's permission bits (or the usual umask-derived ones), is
    flushed to disk and then renamed over the target with `os.replace`. If
    the block raises, the temporary file is removed and the target is
    untouched. A target that exists but is not a regular file (/dev/null,
    a terminal, a FIFO) holds no previous contents to keep and cannot be
    renamed over, so it is written directly.
    """
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    folder, name = os.path.split(path)
    tmp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
