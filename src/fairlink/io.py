"""The package's file boundary: one atomic writer and one rule for skipped lines.

Every output file is written through ``atomic_write``: the content goes
to a temporary file in the target's directory, which then replaces the
target in one rename, so readers see the old file or the new one and
never a partial write. A failed write leaves no temporary file behind.
The format functions (edge lists, scores, rankings, reports) live with
their domain modules and call into this one; their readers skip the
lines ``is_comment_or_blank`` names.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

# Temp names are `<target>.<pid>.<n>.tmp`; pid and counter keep concurrent
# writers apart, and exclusive creation skips any name already taken.
_temp_serial = itertools.count()


@contextmanager
def atomic_write(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Yield a UTF-8 text file whose content replaces ``path`` on success.

    The missing parent directory is created. The temporary file gets
    mode 0o666 less the umask, as ``open`` would give the target itself.
    On any exception the temporary file is removed and the target is
    left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_temp_serial)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON with a trailing newline."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: str | Path, rows: Iterable[Mapping], fieldnames: Sequence[str]) -> None:
    """Write a header and one CSV row per mapping (``csv`` dialect, CRLF rows)."""
    with atomic_write(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def is_comment_or_blank(line: str) -> bool:
    """Whether a reader skips ``line``: it is blank, or its first non-space is ``#``."""
    return line.lstrip()[:1] in ("", "#")
