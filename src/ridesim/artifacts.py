"""Artifact files with provenance headers, and named random streams.

Every file the command line writes starts with comment lines recording the
package version, the configuration hash, and the seed. The single line
carrying wall-clock time starts with `# written`, so two runs of the same
command can be compared byte for byte after dropping that one line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

MAGIC = "ridesim"


def seed_stream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for a named purpose under one run seed.

    The name is hashed so adding a new stream never shifts the draws of
    existing ones.
    """
    digest = hashlib.sha256(name.encode()).digest()
    words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF,
                                                         *words]))


def header_lines(version: str, config_digest: str, seed: int) -> list:
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return [f"# {MAGIC} {version}",
            f"# config {config_digest}",
            f"# seed {seed}",
            f"# written {stamp}"]


def write_lines_atomic(path, lines) -> None:
    """Write each line plus a newline to `path`, all or nothing.

    The lines go to a temporary file in the same directory, which then
    replaces `path` in one `os.replace`: a reader, or a run that crashed
    part-way, sees the old file or the new one, never a truncated one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_artifact(path, body_lines, version: str, config_digest: str,
                   seed: int):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_lines_atomic(path, itertools.chain(
        header_lines(version, config_digest, seed), body_lines))


def csv_lines(columns, rows):
    """The CSV records of `columns`, then of each row, without their line
    terminator, one at a time: a record is handed out before the next row
    is read, so `write_lines_atomic` streams a table to disk. A field that
    holds a `\\n` is quoted, and its record is still one item."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in itertools.chain([columns], rows):
        writer.writerow(row)
        yield buf.getvalue()[:-1]
        buf.seek(0)
        buf.truncate()


def write_csv_artifact(path, columns, rows, version: str, config_digest: str,
                       seed: int):
    write_artifact(path, csv_lines(columns, rows), version, config_digest,
                   seed)


def read_text(path) -> str:
    """The UTF-8 text of `path`; a ValueError naming it if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_data_lines(path) -> list:
    """File lines with comment and blank lines dropped."""
    out = []
    for line in read_text(path).splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append(line)
    return out


def _read_keyed(path, magic: str, keys, build, optional=(), end=None):
    """`build(header, body)` of the keyed artifact at `path`.

    The first data line is `magic`; `<key> <value>` header lines follow in
    any order, each of `keys` exactly once, each of `optional` at most once
    and no other key. The header ends at the line `end`, which opens the
    body, or after `len(keys)` lines when `end` is None. A required key that
    begins no line is reported as missing, before any unknown key. Every
    ValueError, those of `build` included, names the file.
    """
    lines = read_data_lines(path)
    kind = magic.split()[0].removeprefix(f"{MAGIC}-")
    try:
        if lines[:1] != [magic]:
            raise ValueError(f"first line is not {magic!r}")
        if end is None:
            stop = 1 + len(keys)
        else:
            stop = lines.index(end) if end in lines else len(lines)
        header = {}
        for line in lines[1:stop]:
            key, _, value = line.partition(" ")
            if key not in keys and key not in optional:
                firsts = {line.partition(" ")[0] for line in lines[1:]}
                missing = [k for k in keys if k not in firsts]
                raise ValueError(f"{kind} header has no {missing[0]!r} line"
                                 if missing else
                                 f"unknown {kind} header key {key!r}")
            if key in header:
                raise ValueError(f"{kind} header repeats {key!r}")
            header[key] = value
        for key in keys:
            if not header.get(key):
                raise ValueError(f"{kind} header has no {key!r} line")
        return build(header, lines[stop:])
    except ValueError as exc:
        named = str(exc).startswith(str(path))  # e.g. a labelled network
        raise ValueError(exc if named else f"{path}: {exc}") from None


def csv_rows(lines):
    """The rows `csv.reader` reads from `lines`, skipping comment and blank
    lines between records. Lines that keep their terminators keep a quoted
    field's line breaks. The reader's csv.Error (a field over its size
    limit, say) is raised as a ValueError naming the row it stopped at."""
    in_record = False   # the reader has read part of a record

    def record_lines():
        nonlocal in_record
        for line in lines:
            if in_record or line.strip() and not line.lstrip().startswith("#"):
                in_record = True
                yield line

    number = 0
    try:
        for row in csv.reader(record_lines()):
            in_record = False
            yield row
            number += 1
    except csv.Error as exc:
        where = f"data row {number}" if number else "header"
        raise ValueError(f"{where}: {exc}") from None


def read_csv_artifact(path) -> tuple:
    """(columns, rows) from a headered CSV artifact whose every row has as
    many fields as the header."""
    lines = read_text(path).splitlines(keepends=True)
    try:
        table = list(csv_rows(lines))
    except ValueError as exc:
        raise ValueError(f"{path} {exc}") from None
    if not table:
        raise ValueError(f"{path} has no data")
    columns, *rows = table
    for number, row in enumerate(rows, start=1):
        if len(row) != len(columns):
            raise ValueError(f"{path} row {number}: field count "
                             f"{len(row)}, header has {len(columns)}")
    return columns, rows


def comparable_lines(path) -> list:
    """All lines except the wall-clock one, for byte-level comparison."""
    return [ln for ln in read_text(path).splitlines()
            if not ln.startswith("# written ")]
