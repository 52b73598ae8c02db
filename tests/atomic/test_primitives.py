"""Unit and concurrency tests for the emulated hardware atomics: the
words of a private lane store (:mod:`repro.core.lane`).

Loads are plain indexing and take no lock; only compare-and-store does.
"""

import sys
import threading

import pytest

from repro.core.lane import LaneStore


def word(initial=0):
    """One word of a private store, holding ``initial`` mod 2**64."""
    word = LaneStore.private(1).word(0)
    word.store(initial)
    return word


def words(length, initial=0):
    """A private store of ``length`` words, each holding ``initial``."""
    store = LaneStore.private(length)
    for i in range(length):
        store.store(i, initial)
    return store


def snapshot(store):
    return store.mem.tolist()


@pytest.fixture
def tiny_switch_interval():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


def _cas_increment_from_threads(load, cas, n_threads=8, n_iters=1500):
    """Load-then-CAS retry increments, the reserve loop's shape: the load
    is lock-free, so only the CAS keeps the count exact."""

    def work():
        for _ in range(n_iters):
            while True:
                cur = load()
                if cas(cur, cur + 1):
                    break

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return n_threads * n_iters


class TestAtomicWord:
    def test_initial_value(self):
        assert word().load() == 0
        assert word(41).load() == 41

    def test_store_load(self):
        w = word()
        w.store(123)
        assert w.load() == 123

    def test_wraps_to_64_bits(self):
        w = word(1 << 64)
        assert w.load() == 0
        w.store((1 << 64) + 5)
        assert w.load() == 5

    def test_cas_success(self):
        w = word(10)
        assert w.compare_and_store(10, 20) is True
        assert w.load() == 20

    def test_cas_failure_leaves_value(self):
        w = word(10)
        assert w.compare_and_store(11, 20) is False
        assert w.load() == 10

    def test_cas_with_wrapping_operands(self):
        w = word(3)
        assert w.compare_and_store((1 << 64) + 3, 7) is True
        assert w.load() == 7

    def test_fetch_and_add_returns_previous(self):
        w = word(5)
        assert w.fetch_and_add(3) == 5
        assert w.load() == 8

    def test_fetch_and_add_wraps(self):
        w = word((1 << 64) - 1)
        assert w.fetch_and_add(2) == (1 << 64) - 1
        assert w.load() == 1

    def test_concurrent_fetch_and_add_loses_nothing(self):
        w = word()
        n_threads, n_iters = 8, 2000

        def work():
            for _ in range(n_iters):
                w.fetch_and_add(1)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert w.load() == n_threads * n_iters

    def test_concurrent_cas_exactly_one_winner_per_value(self):
        """Each CAS generation has exactly one winner — the property the
        lockless reservation algorithm depends on."""
        w = word(0)
        wins = []
        lock = threading.Lock()

        def work(tid):
            my_wins = 0
            while True:
                cur = w.load()
                if cur >= 5000:
                    break
                if w.compare_and_store(cur, cur + 1):
                    my_wins += 1
            with lock:
                wins.append(my_wins)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert w.load() >= 5000
        assert sum(wins) == w.load()

    def test_lock_free_load_cas_increment_exact(self, tiny_switch_interval):
        w = word()
        expected = _cas_increment_from_threads(w.load, w.compare_and_store)
        assert w.load() == expected


class TestAtomicArray:
    def test_length_and_defaults(self):
        a = words(4)
        assert len(a) == 4
        assert snapshot(a) == [0, 0, 0, 0]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            words(-1)

    def test_store_load_independent_elements(self):
        a = words(3)
        a.store(0, 10)
        a.store(2, 30)
        assert snapshot(a) == [10, 0, 30]

    def test_cas_per_element(self):
        a = words(2)
        assert a.cas(0, 0, 9)
        assert not a.cas(1, 9, 1)
        assert snapshot(a) == [9, 0]

    def test_fetch_and_add(self):
        a = words(2, initial=100)
        assert a.fetch_and_add(1, 5) == 100
        assert a.load(1) == 105
        assert a.load(0) == 100

    def test_zero_length_array(self):
        a = words(0)
        assert len(a) == 0
        assert snapshot(a) == []

    def test_concurrent_adds_per_slot(self):
        a = words(4)

        def work(slot):
            for _ in range(3000):
                a.fetch_and_add(slot, 1)

        threads = [threading.Thread(target=work, args=(i % 4,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(snapshot(a)) == 8 * 3000

    def test_lock_free_load_cas_increment_exact(self, tiny_switch_interval):
        a = words(4)
        expected = _cas_increment_from_threads(
            lambda: a.mem[2], lambda old, new: a.cas(2, old, new))
        assert snapshot(a) == [0, 0, expected, 0]
