"""UTF-8 text, JSON and comma-delimited files, with no numpy, so that
``hpca spectrum`` starts without it."""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

from .errors import InputError

MODEL_FILENAME = "model.json"


@contextmanager
def _text_stream(source: str | Path | TextIO, mode: str = "r") -> Iterator[TextIO]:
    """Open a path as UTF-8 text (closed on exit), or use the stream given.

    Bytes that are not UTF-8 surface as :class:`InputError`.
    """
    try:
        if isinstance(source, (str, Path)):
            with open(source, mode, encoding="utf-8", newline="") as fh:
                yield fh
        else:
            yield source
    except UnicodeDecodeError as exc:
        raise _not_utf8(source, exc) from None


def _not_utf8(source, exc: UnicodeDecodeError) -> InputError:
    return InputError(f"{source} is not UTF-8 text: {exc.reason}")


def _dump_json(doc, dest: str | Path | TextIO) -> None:
    """Write a JSON document to a path or stream, one-space indented, newline-terminated."""
    with _text_stream(dest, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _load_json(path: str | Path, what: str):
    """Parse a UTF-8 JSON file; malformed JSON is an :class:`InputError` naming ``what``."""
    with _text_stream(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{what} is not valid JSON: {exc}") from None


def _write_rows(dest: str | Path | TextIO, header, rows) -> None:
    """Write a header and rows as comma-delimited UTF-8 text, quoting cells as needed."""
    with _text_stream(dest, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def load_model_dict(directory: str | Path) -> dict:
    """Read back the JSON document written by ``hpca.model.save_model``."""
    path = Path(directory)
    if path.is_dir():
        path = path / MODEL_FILENAME
    if not path.exists():
        raise InputError(f"no model file at {path}")
    return _load_json(path, f"model file {path}")
