"""Whole-file reads and writes for the pool, thresholds, results and report files.

This module alone opens those four artifacts, and it alone turns an OS
failure, or a path the OS cannot take (one holding a NUL byte), into
``IoFailure`` (exit code 4), naming the file kind and path.
``check_writable`` lets a command fail on an unusable output path before
any work, with the error ``replace_file`` would raise at the end.
Each file is read whole, and written under a sibling temporary name and
then moved into place, so the path never holds a half-written file.  An
existing file is removed before the move rather than truncated or renamed
over: on ext4 both of those first flush the old file's data to disk (the
auto_da_alloc heuristic), which stalls every rewrite for tens of
milliseconds, by an amount set by the disk's other load.
"""
import contextlib
import errno
import os

from .errors import IoFailure


def read_file(path, what: str) -> bytes:
    """The bytes of ``path``; ``IoFailure`` names ``what`` if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc


def replace_file(path, data: bytes, what: str) -> None:
    """Make ``path`` a regular file holding ``data``; ``IoFailure`` names
    ``what`` if it cannot be written, and no temporary file is left."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        os.rename(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError, ValueError):
            os.remove(tmp)
        if isinstance(exc, (OSError, ValueError)):
            raise IoFailure(f"cannot write {what} {path}: {exc}") from exc
        raise


def check_writable(path, what: str) -> None:
    """Raise the ``IoFailure`` that ``replace_file(path, ..., what)`` would,
    now, if ``path`` is a directory or no file can be created beside it;
    the probe file is removed again."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        with open(tmp, "wb"):
            pass
        os.remove(tmp)
    except (OSError, ValueError) as exc:
        raise IoFailure(f"cannot write {what} {path}: {exc}") from exc
