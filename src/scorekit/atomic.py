"""File I/O: atomic output, so a reader sees the old file or the whole new
one, and one UTF-8 text reader for every input file."""

import contextlib
import os

from .errors import InputError


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


def read_text(path) -> str:
    """The whole file at path decoded as UTF-8, line endings kept as
    written; a file that is not UTF-8 raises InputError naming the path."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None
