"""Unit tests for segment words: the cast view, its stores, the lock.

The contract: a word of a shared segment, read through a cast view and
written through a :class:`SegmentStore` (the fcntl-locked store of
words no process owns) or a thread-locked :class:`LaneStore` (an owned
lane), behaves exactly like a word of a private lane — same operations,
same return values, same stepped seams — with storage in the shared
buffer and mutual exclusion that holds across both threads and
processes.
"""

import array
import struct
import threading
from multiprocessing import shared_memory

import pytest

from repro.check.instrument import SteppedStore
from repro.core.lane import cast_words
from repro.shm.atomics import (
    SegmentLock,
    SegmentStore,
    lockfile_for_segment,
)


@pytest.fixture
def segment():
    shm = shared_memory.SharedMemory(create=True, size=1024)
    lock = SegmentLock(shm.name)
    words = cast_words(shm.buf)
    try:
        yield shm, lock, words
    finally:
        words.release()
        lock.close()
        lock.unlink_sidecar()
        shm.close()
        shm.unlink()


class TestShmAtomicWord:
    def test_load_store_roundtrip(self, segment):
        shm, lock, words = segment
        word = SegmentStore(words, lock).word(0)
        assert word.load() == 0
        word.store(0xDEADBEEF)
        assert word.load() == 0xDEADBEEF
        assert word.peek() == 0xDEADBEEF

    def test_storage_is_the_shared_buffer(self, segment):
        shm, lock, words = segment
        word = SegmentStore(words, lock).word(2)
        word.store(42)
        assert struct.unpack_from("<Q", shm.buf, 16)[0] == 42
        # another "attach": a second view and lock over the same bytes
        other_lock = SegmentLock(shm.name)
        other = cast_words(shm.buf)
        try:
            assert SegmentStore(other, other_lock).word(2).load() == 42
        finally:
            other.release()
            other_lock.close()

    def test_compare_and_store(self, segment):
        shm, lock, words = segment
        word = SegmentStore(words, lock).word(0)
        word.store(5)
        assert word.compare_and_store(5, 6) is True
        assert word.load() == 6
        assert word.compare_and_store(5, 7) is False
        assert word.load() == 6

    def test_fetch_and_add_returns_old(self, segment):
        shm, lock, words = segment
        word = SegmentStore(words, lock).word(0)
        assert word.fetch_and_add(10) == 0
        assert word.fetch_and_add(5) == 10
        assert word.load() == 15

    def test_values_wrap_at_64_bits(self, segment):
        shm, lock, words = segment
        word = SegmentStore(words, lock).word(0)
        word.store((1 << 64) + 3)
        assert word.load() == 3
        word.store((1 << 64) - 1)
        assert word.fetch_and_add(1) == (1 << 64) - 1
        assert word.load() == 0

    def test_misaligned_offset_rejected(self, segment):
        """A byte run that does not split into whole 64-bit words has no
        word view."""
        shm, lock, words = segment
        with pytest.raises(ValueError):
            cast_words(shm.buf[4:])

    def test_observer_and_yield_seams(self, segment):
        shm, lock, words = segment
        seen = []
        points = []
        store = SteppedStore(
            SegmentStore(words, lock), names={0: ("idx", None)},
            yield_fn=points.append,
            observer=lambda name, op, args, res: seen.append(
                (name, op, args, res)),
        )
        word = store.word(0)
        word.store(1)
        word.load()
        word.compare_and_store(1, 2)
        word.compare_and_store(1, 3)
        word.fetch_and_add(4)
        assert points == ["idx.store", "idx.load", "idx.cas", "idx.cas",
                          "idx.faa"]
        assert seen == [
            ("idx", "store", (0, 1), None),
            ("idx", "load", (), 1),
            ("idx", "cas", (1, 2), True),
            ("idx", "cas", (1, 3), False),
            ("idx", "faa", (2, 6), 2),
        ]

    def test_cas_is_atomic_across_threads(self, segment):
        """Counter bumped only via CAS retry loops from many threads:
        no increment may be lost (the in-process half of the lock)."""
        shm, lock, words = segment
        per_thread = 200
        nthreads = 8

        def bump():
            own_lock = SegmentLock(shm.name)
            own = cast_words(shm.buf)
            try:
                word = SegmentStore(own, own_lock).word(0)
                for _ in range(per_thread):
                    while True:
                        cur = word.load()
                        if word.compare_and_store(cur, cur + 1):
                            break
            finally:
                own.release()
                own_lock.close()

        threads = [threading.Thread(target=bump) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert words[0] == per_thread * nthreads


class TestShmAtomicArray:
    def test_per_element_ops(self, segment):
        shm, lock, words = segment
        store = SegmentStore(words, lock)
        assert len(store) == 128
        store.store(10, 99)
        assert store.load(10) == 99
        assert store.peek(10) == 99
        assert words[8:12].tolist() == [0, 0, 99, 0]
        assert store.cas(10, 99, 100) is True
        assert store.cas(10, 99, 101) is False
        assert store.fetch_and_add(8, 7) == 0
        assert words[8:12].tolist() == [7, 0, 100, 0]

    def test_bounds_checked(self, segment):
        shm, lock, words = segment
        store = SegmentStore(words, lock)
        with pytest.raises(IndexError):
            store.load(128)
        with pytest.raises(IndexError):
            store.cas(128, 0, 1)

    def test_observer_labels_name_the_element(self, segment):
        shm, lock, words = segment
        seen = []
        store = SteppedStore(
            SegmentStore(words, lock),
            names={3: ("committed[3]", 3)},
            observer=lambda name, op, args, res: seen.append(
                (name, op, args)),
        )
        store.cas(3, 0, 1)
        assert seen == [("committed[3]", "cas", (3, 0, 1))]


class TestShmWordsView:
    """The segment's cast view: what every store indexes."""

    def test_item_and_slice_access(self, segment):
        shm, _, words = segment
        view = words[0:8]
        try:
            assert len(view) == 8
            view[0] = 11
            view[7] = 77
            assert view[0] == 11
            assert view.tolist() == [11, 0, 0, 0, 0, 0, 0, 77]
            view[2:5] = array.array("Q", [1, 2, 3])
            assert view.tolist() == [11, 0, 1, 2, 3, 0, 0, 77]
            assert list(view) == view.tolist()
        finally:
            view.release()

    def test_slice_write_length_checked(self, segment):
        shm, _, words = segment
        with pytest.raises(ValueError):
            words[0:3] = array.array("Q", [1, 2])

    def test_bounds_checked(self, segment):
        shm, _, words = segment
        with pytest.raises(IndexError):
            words[128]
        with pytest.raises(IndexError):
            words[128] = 0

    def test_views_alias_the_same_memory(self, segment):
        shm, _, words = segment
        other = cast_words(shm.buf)
        try:
            words[1] = 1234
            assert other[1] == 1234
        finally:
            other.release()


class TestSegmentLock:
    def test_lockfile_path_selection(self, segment):
        shm, _, _ = segment
        path = lockfile_for_segment(shm.name)
        # On Linux the segment file itself; elsewhere a sidecar.
        assert shm.name in path

    def test_acquire_release_pairs(self, segment):
        """Every compare-and-store, won, lost or raising, leaves the
        thread half of the lock free."""
        shm, lock, words = segment
        store = SegmentStore(words, lock)
        assert store.cas(0, 0, 1)
        assert not store.cas(1, 5, 6)
        with pytest.raises(ValueError):
            store.cas(0, 1, 1 << 64)  # not a 64-bit value
        assert lock.thread_lock.acquire(blocking=False)
        lock.thread_lock.release()

    def test_close_is_idempotent(self, segment):
        shm, _, _ = segment
        lock = SegmentLock(shm.name)
        lock.close()
        lock.close()
