"""The one format of every CSV and JSON artifact shelveread writes.

A CSV artifact is ``# key: value`` metadata lines, a header row, then one
comma-joined row per record, each value written with ``str``, which gives
the shortest round-trip form of a float.  Lines end in ``\\n``.  Readers
skip ``#`` and blank lines, check the header and the field count of every
row, and name the file and the row in any error a row causes.  A grid CSV
holds one ``x,y,value`` row per grid point, x-major, and is read back only
if it holds each point of a rectangular grid once.

A JSON artifact is ``json.dumps(payload, indent=2)`` and a newline, with
``metadata`` as its last key; the reader drops that key.

``_is_int`` is the one integer check of public inputs, kept here so that
every module can import it without loading the simulator.
"""

from __future__ import annotations

import json
import numbers
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def _is_int(value) -> bool:
    """True for Python and numpy integers; bool is an Integral, but no count, index or seed."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _write_lines(path, header: Sequence[str], lines: Iterable[str], metadata: dict | None) -> None:
    head = [f"# {key}: {value}" for key, value in (metadata or {}).items()]
    head.append(",".join(header))
    Path(path).write_text("\n".join(chain(head, lines)) + "\n")


def write_csv(path, header: Sequence[str], rows: Iterable, metadata: dict | None = None) -> None:
    _write_lines(path, header, (",".join(map(str, row)) for row in rows), metadata)


def read_csv(path, header: Sequence[str], parse=list) -> list:
    """``parse`` of each row of a CSV written by ``write_csv``, given as a list of strings.

    A ``ValueError`` from ``parse`` is raised again, prefixed with the path
    and the row.
    """
    lines = (
        line
        for line in Path(path).read_text().splitlines()
        if line.strip() and not line.startswith("#")
    )
    if next(lines, None) != ",".join(header):
        raise ValueError(f"{path}: expected header {','.join(header)!r}")
    rows = []
    for line in lines:
        row = line.split(",")
        if len(row) != len(header):
            raise ValueError(f"{path}: row {line!r} has {len(row)} fields, expected {len(header)}")
        try:
            rows.append(parse(row))
        except ValueError as exc:
            raise ValueError(f"{path}: row {line!r}: {exc}") from None
    return rows


def write_grid_csv(path, header: Sequence[str], x, y, values, metadata: dict | None = None) -> None:
    """Write ``values[i, j]`` as one ``x[i],y[j],values[i, j]`` row per grid point."""
    # Each x and y value is formatted once; formatting every cell doubles the time.
    xs = map(str, np.asarray(x).tolist())
    ys = [f",{v}," for v in np.asarray(y).tolist()]
    rows = (
        f"{xi}{yj}{v}"
        for xi, row in zip(xs, np.asarray(values, dtype=float).tolist())
        for yj, v in zip(ys, row)
    )
    _write_lines(path, header, rows, metadata)


def read_grid_csv(path, header: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read ``(x, y, values)`` written by ``write_grid_csv``, in any row order."""
    raw = np.array(read_csv(path, header, lambda row: [float(v) for v in row])).reshape(-1, 3)
    x, i = np.unique(raw[:, 0], return_inverse=True)
    y, j = np.unique(raw[:, 1], return_inverse=True)
    cells = i * y.size + j
    if not raw.size or raw.shape[0] != x.size * y.size or np.unique(cells).size != cells.size:
        raise ValueError(f"{path}: rows must hold each point of a rectangular grid once")
    values = np.empty(cells.size)
    values[cells] = raw[:, 2]
    return x, y, values.reshape(x.size, y.size)


def write_json(path, payload: dict, metadata: dict | None = None) -> None:
    if metadata is not None:
        payload = {**payload, "metadata": metadata}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_json(path):
    """The payload written by ``write_json``, without its ``metadata`` key."""
    payload = json.loads(Path(path).read_text())
    if isinstance(payload, dict):
        payload.pop("metadata", None)
    return payload


def json_object(payload, keys: Iterable[str] = ()) -> dict:
    """``payload`` if it is a JSON object that holds every key in ``keys``."""
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"missing keys {missing}")
    return payload
