"""Atomic file output: a reader sees the old file or the whole new one."""

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a new temporary file next to path; on success it replaces path.

    The temporary file lives in the target's directory, so the final
    os.replace is atomic. If the block raises, the temporary file is
    removed and whatever was at path is left untouched. The file gets the
    permissions open() would give it (0o666 less the umask).
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
