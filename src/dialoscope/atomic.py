"""Output files that appear whole or not at all."""
import contextlib
import os
from pathlib import Path
from typing import IO, Iterator


@contextlib.contextmanager
def write_atomically(path) -> Iterator[IO[str]]:
    """A UTF-8 text file next to `path` that replaces it when the block ends
    cleanly; if the block raises, the file is removed and `path` is left as
    it was. Nothing is fsynced: this guards against a failed run, not a crash."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    f = open(tmp, "x", encoding="utf-8")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def write_text(path, text: str) -> None:
    with write_atomically(path) as f:
        f.write(text)
