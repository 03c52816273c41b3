"""Versioned JSON artifacts: the one place their envelope is written and read.

An artifact is a JSON object with sorted keys and a trailing newline.  A
versioned artifact also carries ``format_version`` (1) and, for typed
documents, a ``kind``; any artifact written by a CLI run carries the run's
``manifest_hash``.  Model documents (``pca_model``, ``pls_model``,
``pls_model_bank``) are written compact, every other document with
``indent=2``.  A field a reader asks for and a read document lacks or holds
with the wrong type is a ``ValueError`` naming it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


class _Fields(dict):
    """A JSON object read by :func:`read`, whose missing key is a
    ``ValueError`` naming it rather than a ``KeyError``."""

    def __missing__(self, key):
        raise ValueError(f"document field {key!r} is missing")


def document(kind: str | None, fields: dict, manifest_hash: str | None = None) -> dict:
    """``fields`` stamped with ``format_version``, ``kind`` (unless None) and,
    when given, ``manifest_hash``."""
    doc = {"format_version": FORMAT_VERSION, **fields}
    if kind is not None:
        doc["kind"] = kind
    if manifest_hash:
        doc["manifest_hash"] = manifest_hash
    return doc


def write(doc: dict, path: str | Path | None, compact: bool = False) -> dict:
    """Write ``doc`` to ``path`` (skipped when None) and return it.

    The text goes to a temporary file in the same directory that then
    replaces ``path``, so readers never see a partly written file.
    """
    if path is not None:
        path = Path(path)
        text = json.dumps(doc, sort_keys=True, indent=None if compact else 2) + "\n"
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    return doc


def read(source: str | Path | dict, kind: str | None) -> dict:
    """Load a document (or take a parsed one) and check its kind and version.

    Raises ``ValueError`` on invalid JSON, a different ``kind`` (None means
    the document has no kind) or a version other than 1.  In the returned
    document, and in every object nested in a loaded one, a missing field
    raises ``ValueError`` too.
    """
    if isinstance(source, dict):
        doc = source if isinstance(source, _Fields) else _Fields(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh, object_hook=_Fields)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{source}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("kind") != kind \
            or doc.get("format_version") != FORMAT_VERSION:
        what = f"{kind} document" if kind else "document"
        raise ValueError(f"not a version-{FORMAT_VERSION} {what}")
    return doc


def is_a(value, kind: type | tuple[type, ...]) -> bool:
    """Whether ``value`` is a ``kind`` and not a bool, which JSON keeps apart
    from numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def typed(doc: dict, name: str, kind: type | tuple[type, ...], what: str):
    """``doc[name]``, which must be a ``kind`` but not a bool (``what`` names it)."""
    if not isinstance(doc, dict) or name not in doc:
        raise ValueError(f"document field {name!r} is missing")
    value = doc[name]
    if not is_a(value, kind):
        raise ValueError(f"document field {name!r} must be {what}")
    return value


def number(doc: dict, name: str) -> float:
    """``doc[name]``, which must be a JSON number, as a float."""
    return float(typed(doc, name, (int, float), "a number"))


def array(doc: dict, name: str, ndim: int) -> np.ndarray:
    """``doc[name]``, which must nest finite numbers ``ndim`` deep, as a float array."""
    value = doc[name]
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.ndim != ndim or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValueError(f"document field {name!r} must be a {ndim}-D array of finite numbers")
    return arr.astype(float)


def render_hhmm(interval: int, interval_minutes: int) -> str:
    """Clock time ``HH:MM`` at the end of 1-based ``interval``."""
    minutes = interval * interval_minutes
    return f"{minutes // 60:02d}:{minutes % 60:02d}"
