"""Deterministic interference through the stepped store's yield seam.

A :class:`~repro.check.instrument.SteppedStore` calls its yield function
immediately before each operation's effect.  A yield function that
writes the underlying words is a competing writer slipping in between
the load of ``oldIndex`` and the compare-and-store — the race of
Figure 1, forced on demand.
"""

from repro.check.instrument import SteppedStore
from repro.core.lane import LaneStore


def hooked(initial=0):
    """A stepped one-word store named ``w``, its raw store, and the list
    the hook is swapped into (``hook[0]``, called with the label)."""
    raw = LaneStore.private(1)
    raw.store(0, initial)
    hook = [None]
    seen = []

    def yield_fn(label):
        if hook[0] is not None:
            hook[0](label)

    store = SteppedStore(
        raw, names={0: ("w", None)}, yield_fn=yield_fn,
        observer=lambda name, op, args, ok: seen.append((op, ok)))
    return store, raw, hook, seen


def test_basic_ops():
    store, _raw, _hook, _seen = hooked(7)
    w = store.word(0)
    assert w.load() == 7
    w.store(9)
    assert w.load() == 9
    assert w.fetch_and_add(1) == 9
    assert w.load() == 10


def test_cas_counts_attempts_and_failures():
    store, _raw, _hook, seen = hooked(0)
    assert store.cas(0, 0, 1)
    assert not store.cas(0, 0, 2)
    cas = [ok for op, ok in seen if op == "cas"]
    assert len(cas) == 2
    assert cas.count(False) == 1


def test_interference_hook_forces_failure():
    """The hook simulates a competing writer sneaking in between the
    index load and the compare-and-store — the race of Figure 1."""
    store, raw, hook, _seen = hooked(0)

    def interfere(label):
        if label == "w.cas":
            raw.store(0, raw.load(0) + 5)  # competitor reserved first

    hook[0] = interfere
    assert not store.cas(0, 0, 3)
    assert store.load(0) == 5
    # Retry with fresh expected value fails again (the hook mutates again).
    assert not store.cas(0, 5, 8)
    hook[0] = None
    assert store.cas(0, 10, 13)
    assert store.load(0) == 13


def test_hook_not_reentrant():
    """A hook whose competitor CASes the raw words does not re-enter the
    hook: only the stepped store's own operations are steps."""
    store, raw, hook, _seen = hooked(0)
    calls = []

    def interfere(label):
        if label == "w.cas":
            calls.append(label)
            assert raw.cas(0, 0, 100)

    hook[0] = interfere
    assert not store.cas(0, 0, 1)
    assert calls == ["w.cas"]
    assert store.load(0) == 100
