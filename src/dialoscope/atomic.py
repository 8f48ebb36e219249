"""Output files that appear whole or not at all."""
import contextlib
import errno
import os
from pathlib import Path
from typing import IO, Iterator, Sequence, Tuple


@contextlib.contextmanager
def write_atomically(path) -> Iterator[IO[str]]:
    """A UTF-8 text file next to `path` that replaces it when the block ends
    cleanly; if the block raises, the file is removed and `path` is left as
    it was. A `path` that is a directory raises IsADirectoryError before
    the file is created, and failing to create it raises an OSError; both
    name `path`. Nothing is fsynced: this guards against a failed run, not
    a crash."""
    path = Path(path)
    if path.is_dir() and not path.is_symlink():  # a rename replaces a link
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        f = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def write_texts(files: Sequence[Tuple[object, str]]) -> None:
    """Write each (path, text) pair. Every target is checked, and every
    temporary file created and written, before the first replaces its
    target, so a target that is a directory or a failure to create or write
    any of them leaves every target as it was."""
    with contextlib.ExitStack() as stack:
        # the stack exits last-entered first: entering in reverse replaces
        # the targets in the given order, so of two equal paths the later wins
        for path, text in reversed(files):
            stack.enter_context(write_atomically(path)).write(text)


def write_text(path, text: str) -> None:
    write_texts([(path, text)])
