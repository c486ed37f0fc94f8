"""Line-delimited JSON record files, the package's common artifact format.

Artifact files written by the CLI start with a header record carrying
{tool_version, config_hash, seed}; readers skip it transparently.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import MalformedRecordError

HEADER_KEY = "tool_version"


def canonical_json(obj: Any) -> str:
    """Deterministic single-line JSON (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def write_jsonl(path: str | Path, records: Iterable[dict], header: dict | None = None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(canonical_json(header) + "\n")
        for record in records:
            fh.write(canonical_json(record) + "\n")


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs, skipping a leading header record."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(f"invalid JSON: {exc}", line_number) from exc
            if not isinstance(record, dict):
                raise MalformedRecordError("record is not an object", line_number)
            if line_number == 1 and HEADER_KEY in record:
                continue
            yield line_number, record


def read_jsonl(path: str | Path) -> list[dict]:
    return [record for _, record in iter_jsonl(path)]


def read_header(path: str | Path) -> dict | None:
    """Return the artifact header record if the file starts with one."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    if not first:
        return None
    try:
        record = json.loads(first)
    except json.JSONDecodeError:
        return None
    if isinstance(record, dict) and HEADER_KEY in record:
        return record
    return None


@contextmanager
def reading_artifact(path: str | Path) -> Iterator[None]:
    """Report a parse failure inside the block (bad or incomplete header,
    bad value, short read) as a MalformedRecordError naming the file."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, struct.error) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise MalformedRecordError(f"{path}: malformed artifact: {detail}") from None
