"""Whole-file writes for the pool, thresholds, results and report files.

Each file is written under a sibling temporary name and then moved into
place, so the path never holds a half-written file.  An existing file is
removed before the move rather than truncated or renamed over: on ext4
both of those first flush the old file's data to disk (the auto_da_alloc
heuristic), which stalls every rewrite for tens of milliseconds, by an
amount set by the disk's other load.
"""
import os


def replace_file(path, data: bytes) -> None:
    """Make ``path`` a regular file holding ``data``; raises ``OSError``."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        os.rename(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
