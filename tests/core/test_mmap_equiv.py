"""A mapped file vs an in-memory stream of the same bytes: identical.

``TraceFileReader`` walks one bytes-like image of the file — the mmap
when the file maps, one ``read()`` otherwise.  Which image it got must
be unobservable: a path input and a ``BytesIO`` of the same bytes yield
the same records, recovery issues and strict-mode exceptions across the
whole file-fault damage matrix.
Seeds come from ``FAULT_FUZZ_SEEDS`` (comma-separated, default
``0,1,2``) so CI can sweep fresh seeds every run; every assertion
message echoes the seed for local reproduction.
"""

import io
import os
import sys

import numpy as np
import pytest

from repro.core.faults import FILE_KINDS, FaultInjector
from repro.check.oracle import reference_decode
from repro.core.parallel import decode_records_columnar_parallel
from repro.core.writer import TraceFileReader, load_records, save_records
from tests.core.test_parallel import as_comparable, build_records

SEEDS = [int(s) for s in
         os.environ.get("FAULT_FUZZ_SEEDS", "0,1,2").split(",")]


@pytest.fixture(scope="module")
def records():
    return build_records(n_events=400, ncpus=2)


@pytest.fixture(scope="module")
def clean_path(records, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("mmap_equiv") / "clean.k42")
    save_records(path, records)
    return path


def _read_with(path, mapped, strict):
    """(records, issues, read_path, exception) for one input form: the
    file itself (``mapped``) or a ``BytesIO`` of its bytes."""
    with open(path, "rb") as fh:
        src = fh if mapped else io.BytesIO(fh.read())
        reader = TraceFileReader(src, strict=strict)
        try:
            recs = reader.read_all()
        except (ValueError, EOFError) as exc:
            return None, list(reader.issues), reader.read_path, exc
        return recs, list(reader.issues), reader.read_path, None


def _assert_same_records(a, b, why):
    assert len(a) == len(b), why
    for ra, rb in zip(a, b):
        assert ra.cpu == rb.cpu and ra.seq == rb.seq, why
        assert ra.fill_words == rb.fill_words, why
        assert np.array_equal(ra.words, rb.words), why


def test_clean_trace_identical(clean_path, records):
    for strict in (False, True):
        m_recs, m_iss, m_path, m_exc = _read_with(clean_path, True, strict)
        r_recs, r_iss, r_path, r_exc = _read_with(clean_path, False, strict)
        assert m_path == "mmap" and r_path == "read"
        assert m_exc is None and r_exc is None
        assert m_iss == r_iss == []
        _assert_same_records(m_recs, r_recs, f"strict={strict}")
        _assert_same_records(m_recs, records, f"strict={strict}")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("kind", FILE_KINDS)
def test_damage_matrix_identical(records, tmp_path, kind, strict, seed):
    """Same records, same issue strings, same strict-mode exception."""
    buf = io.BytesIO()
    save_records(buf, records)
    damaged, _report = FaultInjector(seed).inject_trace_bytes(
        buf.getvalue(), kind)
    path = str(tmp_path / f"{kind}-{seed}.k42")
    with open(path, "wb") as fh:
        fh.write(damaged)

    why = (f"kind={kind} strict={strict} seed={seed}; re-run: "
           f"FAULT_FUZZ_SEEDS={seed} PYTHONPATH=src python -m pytest "
           f"tests/core/test_mmap_equiv.py -k damage_matrix")
    m_recs, m_iss, m_path, m_exc = _read_with(path, True, strict)
    r_recs, r_iss, r_path, r_exc = _read_with(path, False, strict)
    assert m_path == "mmap" and r_path == "read", why
    assert (m_exc is None) == (r_exc is None), why
    if m_exc is not None:
        assert type(m_exc) is type(r_exc), why
        assert str(m_exc) == str(r_exc), why
    else:
        _assert_same_records(m_recs, r_recs, why)
    assert m_iss == r_iss, why


def test_bytesio_falls_back_to_read(records):
    buf = io.BytesIO()
    save_records(buf, records)
    buf.seek(0)
    reader = TraceFileReader(buf)
    assert reader.read_path == "read"
    got = reader.read_all()
    _assert_same_records(got, records, "BytesIO fallback")


def test_file_grown_past_mapping_is_reread(records, tmp_path):
    """A mapping snapshots the file at open; frames appended since make
    ``read_all`` fall back to reading the file, losing nothing."""
    path = str(tmp_path / "grow.k42")
    half = len(records) // 2
    save_records(path, records[:half])
    with open(path, "rb") as fh:
        reader = TraceFileReader(fh)
        assert reader.read_path == "mmap"
        buf = io.BytesIO()
        save_records(buf, records[half:])
        with open(path, "ab") as out:
            out.write(buf.getvalue()[16:])      # frames only, no header
        got = reader.read_all()
        assert reader.read_path == "read"
        _assert_same_records(got, records, "grown file")
        last = reader.read_frame(len(records) - 1)
        assert np.array_equal(last.words, records[-1].words)


@pytest.mark.skipif(sys.byteorder != "little",
                    reason="zero-copy provenance is little-endian only")
def test_mmap_words_are_readonly_views(clean_path):
    """Zero-copy words must refuse in-place mutation (shared pages)."""
    recs = load_records(clean_path)
    assert any(r._file_ref is not None for r in recs)
    stamped = next(r for r in recs if r._file_ref is not None)
    assert not stamped.words.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        stamped.words[0] = 1


def test_mmap_records_decode_parallel_identical(clean_path):
    """File-backed records ride the descriptor path through the pool
    and still decode exactly like the reference walk over the same
    bytes read into memory."""
    recs = load_records(clean_path)
    assert all(r._file_ref is not None for r in recs)
    with open(clean_path, "rb") as fh:
        seq = reference_decode(load_records(io.BytesIO(fh.read())))
    col = decode_records_columnar_parallel(recs, workers=2)
    assert as_comparable(col) == as_comparable(seq)
