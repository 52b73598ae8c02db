"""On-disk layout of the persistent trace store.

A store is a directory::

    mytrace.store/
        manifest.json          # format header, source info, shard statistics
        shard-00000.npz        # one EventBatch's columns (np.savez archive)
        shard-00001.npz
        ...

Shards are cut at buffer (sequence-number) boundaries within one CPU's
stream, never mid-buffer: compression then works on whole shards while
random access survives — a query seeks straight to the shards whose
manifest statistics overlap its predicate and decompresses nothing
else.  Shard payloads are the :meth:`EventBatch.to_arrays` codec plus
two precomputed context columns (``pid``, ``pid_known``), all plain
fixed-dtype arrays: ``np.load(..., allow_pickle=False)`` reads them on
any interpreter/numpy that can read the zip, which is what the
cross-version CI job asserts.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

import numpy as np

STORE_FORMAT = "repro-store"
STORE_VERSION = 1
MANIFEST_NAME = "manifest.json"


class StoreFormatError(Exception):
    """The directory is not a readable store (missing/incompatible)."""


def shard_filename(index: int) -> str:
    return f"shard-{index:05d}.npz"


def is_store(path: str) -> bool:
    """Whether ``path`` looks like a packed store directory."""
    return os.path.isdir(path) and os.path.isfile(
        os.path.join(path, MANIFEST_NAME))


def save_shard(path: str, arrays: Dict[str, np.ndarray],
               compress: bool = True) -> None:
    if compress:
        np.savez_compressed(path, **arrays)
    else:
        np.savez(path, **arrays)


def load_shard(path: str) -> Dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as npz:
        return {k: npz[k] for k in npz.files}


def write_manifest(dirpath: str, doc: Dict[str, Any]) -> None:
    """Write the manifest atomically: a killed writer leaves the old one."""
    path = os.path.join(dirpath, MANIFEST_NAME)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_manifest(dirpath: str) -> Dict[str, Any]:
    path = os.path.join(dirpath, MANIFEST_NAME)
    if not os.path.isfile(path):
        raise StoreFormatError(f"{dirpath}: not a store (no {MANIFEST_NAME})")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreFormatError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != STORE_FORMAT:
        raise StoreFormatError(f"{path}: not a {STORE_FORMAT} manifest")
    version = doc.get("version")
    if not isinstance(version, int) or version > STORE_VERSION:
        raise StoreFormatError(
            f"{path}: store version {version!r} is newer than this "
            f"reader (supports <= {STORE_VERSION})")
    return doc
