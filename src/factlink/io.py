"""Artifact files: line-delimited JSON records and named-array params.

JSONL artifacts written by the CLI start with a header record carrying
{tool_version, config_hash, seed}; readers skip it transparently. Params
files carry it in their own header line (``save_arrays``).
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import DataError

HEADER_KEY = "tool_version"
_DECODER = json.JSONDecoder()
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # what surrogateescape makes of a bad byte


def canonical_json(obj: Any) -> str:
    """Deterministic single-line JSON (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def unencodable_key(mapping: dict) -> str | None:
    """The first key of ``mapping`` whose name or value holds a lone
    surrogate (UTF-8 cannot encode it; a JSON ``\\u`` escape spells it), else None."""
    for key, value in mapping.items():
        try:
            canonical_json({key: value}).encode("utf-8")
        except UnicodeEncodeError:
            return key
    return None


def write_jsonl(path: str | Path, records: Iterable[dict], header: dict | None = None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(canonical_json(header) + "\n")
        for record in records:
            fh.write(canonical_json(record) + "\n")


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs, skipping a leading header record.
    Each stripped line must hold one JSON object in UTF-8; one with a ``\\u``
    escape (a backslash pretest is faster) is also checked for a lone surrogate."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record, end = _DECODER.raw_decode(line)
                except json.JSONDecodeError:
                    end = None
                if end != len(line):  # json.loads words the error, extra data and a BOM too
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise DataError(f"invalid JSON: {exc}", line_number) from exc
                if not isinstance(record, dict):
                    raise DataError("record is not an object", line_number)
                if "\\" in line and "\\u" in line and (key := unencodable_key(record)) is not None:
                    raise DataError(f"field {key!r} holds a lone surrogate", line_number)
                if line_number == 1 and HEADER_KEY in record:
                    continue
                yield line_number, record
        except UnicodeDecodeError:  # raised a chunk ahead of the lines yielded: rescan
            with open(path, "r", encoding="utf-8", errors="surrogateescape") as rescan:
                for line_number, line in enumerate(rescan, start=1):
                    if bad := _ESCAPED_BYTE.search(line):
                        raise DataError(f"byte {ord(bad[0]) - 0xDC00:#04x} at column "
                                        f"{bad.start() + 1} is not UTF-8", line_number) from None
            raise  # the file changed since it was read


def read_jsonl(path: str | Path) -> list[dict]:
    return [record for _, record in iter_jsonl(path)]


def require_fields(record: dict, fields: tuple[str, ...], line_number: int, what: str) -> None:
    """DataError naming the line and the first of ``fields`` that
    ``record``, a ``what`` record, lacks."""
    for name in fields:
        if name not in record:
            raise DataError(f"{what} record missing field {name!r}", line_number)


def optional_str(record: dict, key: str, line_number: int, what: str = "") -> str | None:
    """``record[key]``: a string, or None when null or absent; anything else
    is a DataError naming the line and the field (as ``"{what} {key}"``
    when ``what`` is given)."""
    value = record.get(key)
    if value is None or isinstance(value, str):
        return value
    name = f"{what} {key}" if what else key
    raise DataError(f"{name} must be a string or null, got {value!r}", line_number)


def required_str(record: dict, key: str, line_number: int, what: str) -> str:
    """``record[key]``, present, when a string; anything else is a
    DataError naming the line and the field as ``"{what} {key}"``."""
    value = record[key]
    if isinstance(value, str):
        return value
    raise DataError(f"{what} {key} must be a string, got {value!r}", line_number)


@contextmanager
def reading_artifact(path: str | Path) -> Iterator[None]:
    """Report a parse failure inside the block (bad or incomplete header,
    bad value, short read) as a DataError naming the file."""
    try:
        yield
    except (AttributeError, LookupError, TypeError, ValueError, struct.error) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise DataError(f"{path}: malformed artifact: {detail}") from None


def save_arrays(path: str | Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """The params format: ``header`` (``format``, scalars, provenance) plus
    the ordered ``arrays`` names as one canonical-JSON line, then one
    ``numpy.lib.format`` 1.0 record per array and nothing after the last."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((canonical_json({**header, "arrays": list(arrays)}) + "\n").encode("utf-8"))
        for array in arrays.values():
            np.lib.format.write_array(
                fh, np.ascontiguousarray(array), version=(1, 0), allow_pickle=False
            )


def load_arrays(
    path: str | Path, fmt: str, dtypes: dict[str, str]
) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of a ``save_arrays`` file whose arrays are named
    and typed as in ``dtypes``; DataError for another format or
    array names, another dtype, a record claiming more bytes than the file
    has left (before allocating it), or bytes after the last record."""
    names = list(dtypes)
    with reading_artifact(path), open(path, "rb") as fh:
        header = json.loads(fh.readline())
        layout = (header.get("format"), header.get("arrays")) if isinstance(header, dict) else ()
        if layout != (fmt, names):
            raise DataError(f"{path}: not a {fmt} file with arrays {names}")
        size = os.fstat(fh.fileno()).st_size
        arrays = {}
        for name, dtype in dtypes.items():
            if np.lib.format.read_magic(fh) != (1, 0):
                raise DataError(f"{path}: {name}: unsupported .npy version")
            shape, fortran_order, record_dtype = np.lib.format.read_array_header_1_0(fh)
            if record_dtype.str != dtype or fortran_order:
                raise DataError(
                    f"{path}: {name}: dtype {record_dtype.str}, expected C-order {dtype}"
                )
            count, left = math.prod(shape), size - fh.tell()
            if min(shape, default=0) < 0 or count * record_dtype.itemsize > left:
                raise DataError(f"{path}: {name}: shape {shape} exceeds the {left} bytes left")
            arrays[name] = np.fromfile(fh, dtype=record_dtype, count=count).reshape(shape)
        if fh.tell() != size:
            raise DataError(f"{path}: {size - fh.tell()} bytes after the last array")
    return header, arrays
