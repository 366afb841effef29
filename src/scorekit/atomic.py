"""File I/O: atomic output, so a reader sees the old file or the whole new
one, one UTF-8 text reader for every input file, and one reader of the CSV
records in such a text."""

import contextlib
import csv
import io
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


def read_csv_records(text: str, path, header_error, parse) -> list:
    """parse(fields) of each non-blank record after the header of text, the
    CSV file at path, which header_error(header) finds wrong (a message) or
    not (None). Each InputError names path and the physical line on which
    the record ends, so a quoted field that spans lines is counted in full."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file") from None
    wrong = header_error(header)
    if wrong:
        raise InputError(f"{path}: line 1: {wrong}")
    out = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise InputError(f"{path}: line {reader.line_num}: expected {len(header)} "
                             f"fields, got {len(row)}")
        try:
            out.append(parse(row))
        except ValueError as exc:
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    return out
