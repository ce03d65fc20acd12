"""Download benchmark datasets and convert them to the ingestion CSV schema.

Raw files are fetched once into a local cache (``TREEUQ_CACHE`` overrides the
location), verified against a sha256 digest when one is available, and
rewritten as a headered CSV with the label in a trailing 'class' column so
``load_csv`` can ingest them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import urllib.request
from dataclasses import dataclass, replace
from pathlib import Path

__all__ = ["DatasetSource", "FetchError", "KNOWN_DATASETS", "cache_dir", "fetch_dataset"]

CACHE_ENV_VAR = "TREEUQ_CACHE"
UCI_BASE = "https://archive.ics.uci.edu/ml/machine-learning-databases"


class FetchError(RuntimeError):
    """Raised when a dataset cannot be fetched or converted."""


@dataclass(frozen=True)
class DatasetSource:
    """How to obtain and convert one known dataset.

    checksum is the sha256 of the concatenated raw files; None skips
    verification (the historical UCI files ship without published digests).
    """

    urls: tuple[str, ...]
    label_column: int
    checksum: str | None = None
    delimiter: str = ","
    skip_rows: int = 0
    drop_columns: tuple[int, ...] = ()
    drop_missing: bool = False
    value_map: dict[str, str] | None = None


KNOWN_DATASETS: dict[str, DatasetSource] = {
    "ionosphere": DatasetSource(urls=(f"{UCI_BASE}/ionosphere/ionosphere.data",), label_column=-1),
    "wisconsin": DatasetSource(
        urls=(f"{UCI_BASE}/breast-cancer-wisconsin/breast-cancer-wisconsin.data",),
        label_column=-1,
        drop_columns=(0,),
        drop_missing=True,
    ),
    "image": DatasetSource(
        urls=(
            f"{UCI_BASE}/image/segmentation.data",
            f"{UCI_BASE}/image/segmentation.test",
        ),
        label_column=0,
        skip_rows=5,
    ),
    "votes": DatasetSource(
        urls=(f"{UCI_BASE}/voting-records/house-votes-84.data",),
        label_column=0,
        value_map={"y": "1", "n": "0", "?": "0.5"},
    ),
    "sonar": DatasetSource(
        urls=(f"{UCI_BASE}/undocumented/connectionist-bench/sonar/sonar.all-data",),
        label_column=-1,
    ),
    "vehicle": DatasetSource(
        urls=tuple(
            f"{UCI_BASE}/statlog/vehicle/xa{letter}.dat" for letter in "abcdefghi"
        ),
        label_column=-1,
        delimiter=" ",
    ),
    "pima": DatasetSource(
        urls=(f"{UCI_BASE}/pima-indians-diabetes/pima-indians-diabetes.data",),
        label_column=-1,
    ),
}


def cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "treeuq"


def _download(url: str) -> bytes:
    try:
        with urllib.request.urlopen(url) as response:
            return response.read()
    except OSError as exc:
        raise FetchError(f"failed to download {url}: {exc}") from None


def _convert(name: str, source: DatasetSource, raw: bytes) -> str:
    """Raw bytes of all source files to CSV text in the ingestion schema."""
    text = raw.decode("utf-8", errors="replace")
    rows: list[list[str]] = []
    reader = csv.reader(io.StringIO(text), delimiter=source.delimiter, skipinitialspace=True)
    for row in reader:
        cells = [c.strip() for c in row if c.strip() != ""]
        if not cells:
            continue
        rows.append(cells)
    if len(rows) <= source.skip_rows:
        raise FetchError(f"{name}: no data rows after skipping {source.skip_rows} header rows")
    rows = rows[source.skip_rows :]

    width = len(rows[0])
    label_idx = source.label_column % width
    out_rows: list[list[str]] = []
    for row in rows:
        if len(row) != width:
            raise FetchError(f"{name}: ragged raw row with {len(row)} cells, expected {width}")
        if source.drop_missing and any(cell == "?" for cell in row):
            continue
        label = row[label_idx]
        features = [
            cell
            for i, cell in enumerate(row)
            if i != label_idx and i not in source.drop_columns
        ]
        if source.value_map is not None:
            features = [source.value_map.get(cell, cell) for cell in features]
        out_rows.append(features + [label])
    if not out_rows:
        raise FetchError(f"{name}: every raw row was dropped during conversion")

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([f"f{i + 1}" for i in range(len(out_rows[0]) - 1)] + ["class"])
    writer.writerows(out_rows)
    return buffer.getvalue()


def fetch_dataset(name: str, url: str | None = None, checksum: str | None = None, dest=None) -> Path:
    """Fetch a known dataset, verify it, and return the converted CSV path.

    A second call is served from the cache without touching the network. On a
    checksum mismatch no converted file is kept.

    Args:
        name: a key of KNOWN_DATASETS.
        url: override for the registry's (first) source URL.
        checksum: sha256 hex digest of the concatenated raw files; overrides
            the registry entry.
        dest: target path for the converted CSV (default: the cache).
    """
    try:
        source = KNOWN_DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(KNOWN_DATASETS))
        raise FetchError(f"unknown dataset id {name!r}; known ids: {known}") from None

    if url is not None:
        source = replace(source, urls=(url,))
    digest = checksum if checksum is not None else source.checksum

    dest = Path(dest) if dest is not None else cache_dir() / f"{name}.csv"
    if dest.exists():
        return dest

    raw = b"".join(_download(u) for u in source.urls)
    if digest is not None:
        actual = hashlib.sha256(raw).hexdigest()
        if actual != digest:
            raise FetchError(
                f"{name}: checksum mismatch: expected {digest}, got {actual}; nothing cached"
            )
    converted = _convert(name, source, raw)

    dest.parent.mkdir(parents=True, exist_ok=True)
    tmp = dest.with_suffix(".tmp")
    try:
        tmp.write_text(converted, encoding="utf-8")
        tmp.replace(dest)
    finally:
        if tmp.exists():
            tmp.unlink()
    return dest
