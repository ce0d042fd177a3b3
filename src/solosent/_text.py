"""The one reader of text: --input and stdin, CoNLL-U strings and every file.

Strict UTF-8, one leading BOM dropped, lines split at LF, CRLF and CR only
and each ending in "\\n": what open() does with encoding="utf-8-sig".
"""

from __future__ import annotations

import contextlib
import io
import os
from typing import Callable, Iterator, Optional, TextIO

Error = Callable[[str], Exception]

# The bundled profiles and lexicons, beside this file in the package.
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def string_lines(text: str) -> TextIO:
    """The lines of a string, split as a file's are."""
    return io.StringIO(text.removeprefix("\ufeff"), newline=None)


_OPEN_FAILURES = {FileNotFoundError: "no such file", IsADirectoryError: "is a directory"}


def _read(lines: TextIO, error: Error, name: str) -> Iterator[str]:
    """The lines as they are read; a failure to read one raises ``error``.

    Only the reads are guarded: an exception raised where the lines are
    used, such as a write to a closed stdout, passes through unchanged.
    A plain loop, not ``yield from``: closing this generator must not close
    a stream that open_lines has already detached.
    """
    try:
        for line in lines:
            yield line
    except UnicodeDecodeError as exc:
        raise error(f"{name}: not valid UTF-8 ({exc.reason})") from None
    except OSError as exc:
        raise error(f"{name}: cannot read ({exc.strerror})") from None


@contextlib.contextmanager
def open_lines(
    source, error: Error, name: Optional[str] = None
) -> Iterator[Iterator[str]]:
    """The lines of a path or a stream, decoded as they are read.

    A path that cannot be opened raises ``error("<name>: no such file")``,
    ``"<name>: is a directory"`` or ``"<name>: cannot open (<reason>)"``.  A
    stream is left open, and stdin's bytes are decoded here, not by the
    locale.  Bytes that are not UTF-8 raise ``error("<name>: not valid UTF-8
    (<reason>)")``, and a read that fails once the path is open raises
    ``error("<name>: cannot read (<reason>)")``.
    """
    stream = getattr(source, "buffer", source)
    if isinstance(stream, io.TextIOBase):  # a StringIO: no bytes under the text
        lines, owned = string_lines(stream.read()), True
    else:
        owned = not hasattr(stream, "read")
        try:
            binary = open(source, "rb") if owned else stream
        except OSError as exc:  # any readable path: a file, a FIFO, /dev/fd/N
            reason = _OPEN_FAILURES.get(type(exc), f"cannot open ({exc.strerror})")
            raise error(f"{name or source}: {reason}") from None
        except ValueError as exc:  # a NUL in the path
            raise error(f"{name or source}: cannot open ({exc})") from None
        lines = io.TextIOWrapper(binary, encoding="utf-8-sig")
    try:
        yield _read(lines, error, name or source)
    finally:
        if owned:
            lines.close()
        else:
            lines.detach()


def read_lines(source, error: Error, name: Optional[str] = None) -> list[str]:
    """Every line of a file, without its line end."""
    with open_lines(source, error, name) as lines:
        return [line.rstrip("\n") for line in lines]
