"""Atomic file output shared by the model, embedding, loss-history, report,
config and dataset-manifest writers; ``write_csv`` writes both CSV files."""

from __future__ import annotations

import csv
import io
import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Yield a binary file that replaces ``path`` only once it is complete.

    The data goes to a temporary file in the same directory, which is
    flushed to disk and then moved over ``path`` with ``os.replace``. If the
    block raises, the temporary file is removed and ``path`` keeps its
    earlier contents.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, rows):
    """Write ``rows`` through ``csv.writer`` (CRLF line ends), atomically."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    with atomic_write(path) as fh:
        fh.write(buf.getvalue().encode())
