"""The ``BENCH_*.json`` envelope: one owner for what every bench shares.

A *bench* is a registered experiment whose structured ``data`` is also a
committed repo-root document.  Its module exposes three names —
``SCHEMA``, ``run_bench(*, seed, ...) -> document`` and the pure
``report(document) -> text`` — and one ``_bench(...)`` line in
``figures.EXPERIMENTS`` names the module and the committed file; the
``bench <id>`` command, the CI matrix job and ``tests/test_bench.py``
all follow from that line.

This module owns the rest:

* the envelope ``{schema, config, phases, metrics}`` — ``config`` and
  ``metrics`` are pure functions of ``seed`` and byte-compared
  against the committed file; ``phases`` holds wall-clock and RSS
  readings and is never compared;
* :func:`timed`, the one wall-clock site of ``repro.experiments``;
* the closing ``peak_rss`` phase;
* :func:`write_doc`, the one stable-JSON writer, and
  :func:`artifact_path`, where ``run``'s uncommitted artifacts go;
* :func:`read_committed` / :func:`drift`, which decide whether a
  regenerated document still matches the committed one.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager
from pathlib import Path

from repro.util.proc import peak_rss_mb
from repro.util.validation import require

__all__ = [
    "BenchRun",
    "artifact_path",
    "claim",
    "drift",
    "rate_per_s",
    "read_committed",
    "timed",
    "write_doc",
]


def claim(ok: bool, text: str) -> str:
    """One report line: ``[ok]`` when the check holds, ``[DIVERGES]`` otherwise.

    Every gate of every experiment is such a line, so ``run``, ``bench``
    and ``report`` all fail on the same condition.
    """
    return f"  [{'ok' if ok else 'DIVERGES'}] {text}"


@contextmanager
def timed(record: dict[str, float], key: str = "wall_ms") -> Iterator[dict[str, float]]:
    """Time the enclosed block into ``record[key]``, in milliseconds.

    Yields ``record`` so the caller can add rate or RSS keys beside the
    wall time once the block has exited.
    """
    t0 = time.perf_counter()
    try:
        yield record
    finally:
        record[key] = (time.perf_counter() - t0) * 1000.0


def rate_per_s(count: int, wall_ms: float) -> float:
    """Operations per second for ``count`` operations in ``wall_ms``."""
    return count / (wall_ms / 1000.0) if wall_ms else 0.0


class BenchRun:
    """Collects the phases of one producer run and closes the envelope."""

    def __init__(self, schema: str, *, seed: int) -> None:
        self.schema = schema
        self.seed = seed
        self.phases: dict[str, dict[str, float]] = {}

    def timed(
        self, name: str, key: str = "wall_ms"
    ) -> AbstractContextManager[dict[str, float]]:
        """Time a block into phase ``name``; a repeated name shares one record."""
        return timed(self.phases.setdefault(name, {}), key)

    def document(
        self, config: dict[str, object], metrics: dict[str, object]
    ) -> dict[str, object]:
        """The finished document; ``config`` always carries ``seed``
        (``bench --check`` regenerates at the committed file's own)."""
        self.phases["peak_rss"] = {"peak_rss_mb": peak_rss_mb()}
        return {
            "schema": self.schema,
            "config": {"seed": self.seed, **config},
            "phases": self.phases,
            "metrics": metrics,
        }


def write_doc(doc: dict[str, object], out: str | Path) -> Path:
    """Write one document as stable, indented JSON (sorted keys, trailing newline)."""
    path = Path(out)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def artifact_path(name: str) -> Path:
    """Where the run artifact ``name`` goes: ``REPRO_ARTIFACT_DIR`` (default:
    the current directory, where such files are gitignored), created if missing.

    ``run``'s ``metrics_<id>.json`` lands here; a directory that cannot be
    created or written raises.
    """
    directory = Path(os.environ.get("REPRO_ARTIFACT_DIR", "."))
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name


def read_committed(path: str | Path, schema: str) -> dict[str, object]:
    """Load a committed document, insisting it exists and carries ``schema``."""
    path = Path(path)
    require(
        path.is_file(),
        f"{path}: committed bench document not found (expected schema {schema!r})",
    )
    doc = json.loads(path.read_text(encoding="utf-8"))
    found = doc.get("schema") if isinstance(doc, dict) else None
    require(found == schema, f"{path}: expected schema {schema!r}, found {found!r}")
    return doc


def drift(new: dict[str, object], committed: dict[str, object]) -> str | None:
    """Where ``new`` stops matching ``committed``: the first differing key
    path under ``schema``, ``config`` or ``metrics``, or ``None``.

    ``phases`` is ignored.  ``new`` is passed through JSON first so it
    compares as it would read back (tuples as lists, keys as strings),
    and values must agree in type as well as value — ``1`` against
    ``1.0`` serialises differently, so it is drift.
    """
    new = json.loads(json.dumps(new))
    for section in ("schema", "config", "metrics"):
        where = _first_difference(new.get(section), committed.get(section), section)
        if where is not None:
            return where
    return None


def _first_difference(new: object, old: object, path: str) -> str | None:
    if isinstance(new, dict) and isinstance(old, dict):
        for key in sorted(new.keys() | old.keys()):
            if key not in new or key not in old:
                side = "committed" if key in old else "regenerated"
                return f"{path}.{key}: only in the {side} document"
            where = _first_difference(new[key], old[key], f"{path}.{key}")
            if where is not None:
                return where
        return None
    if isinstance(new, list) and isinstance(old, list):
        if len(new) != len(old):
            return f"{path}: {len(new)} items regenerated, {len(old)} committed"
        for i, (a, b) in enumerate(zip(new, old)):
            where = _first_difference(a, b, f"{path}[{i}]")
            if where is not None:
                return where
        return None
    if type(new) is not type(old) or new != old:
        return f"{path}: regenerated {new!r}, committed {old!r}"
    return None
