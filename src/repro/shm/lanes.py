"""Lane ownership: one process binds each CPU's lane of a trace region.

The paper keeps hot tracing state per processor (§3): a CPU's
compare-and-store only has to survive preemption on that CPU; it never
arbitrates between CPUs.  Across processes the same rule reads: exactly
one process binds each CPU's *lane* (its control block and trace
memory) as a writer.  The rule is enforced, not just documented: the
lane's owner word (word 2 of its control block) records the owning pid
in the low 32 bits and a generation in the high 32, and every bind goes
through :meth:`LaneOwner.claim`, one compare-and-store on that word under
the full :class:`~repro.shm.atomics.SegmentLock`:

* a process that already owns the lane succeeds and changes nothing;
* an unowned lane, or one whose recorded owner is dead, is taken at
  generation + 1 (pids are compared within one pid namespace);
* a lane owned by another live process is refused with
  :class:`ShmLaneBusy`, which names that pid.

A lane this process owns is written through a
:class:`~repro.core.lane.LaneStore` whose lock is the per-segment thread
lock alone.  Threads of the owner still contend, but no other process
writes the lane, so the ``fcntl`` half of the micro-lock has nothing
left to exclude and an event stops paying its four syscalls.
Everything else keeps the full segment lock: the owner word itself, the
header flags, the creator's start anchors and any lane nobody claimed.

The lane is released when the last attach of this process that bound it
closes.  A forked child inherits the parent's mapping but not its
lanes: a fork hook swaps the lock of every store bound to an inherited
lane for one that raises :class:`ShmLaneBusy`, so parent and child never
share a lane under the thread lock alone.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable, Dict, Tuple

#: Owner word layout: pid in the low 32 bits, generation in the high 32.
PID_MASK = (1 << 32) - 1
GENERATION_SHIFT = 32


class ShmLaneBusy(RuntimeError):
    """Another live process owns the lane this process tried to bind."""

    def __init__(self, segment: str, cpu: int, pid: int) -> None:
        super().__init__(
            f"cpu {cpu}'s lane of shm segment {segment!r} is bound by "
            f"live process {pid}")
        self.segment = segment
        self.cpu = cpu
        self.pid = pid


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a process (a zombie counts until reaped)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, but belongs to another user
        return True
    return True


class _Revoked:
    """The lock of a lane store inherited across fork."""

    __slots__ = ("_args",)

    def __init__(self, segment: str, cpu: int, pid: int) -> None:
        self._args = (segment, cpu, pid)

    def acquire(self) -> None:
        raise ShmLaneBusy(*self._args)


class Lane:
    """One lane a :class:`LaneOwner` holds, shared by its binding
    attaches; ``stores`` are the lane stores they write it through."""

    __slots__ = ("owner", "key", "segment", "word", "refs", "stores")

    def __init__(self, owner: "LaneOwner", key: Tuple[int, int, int],
                 segment: str, word: int) -> None:
        self.owner = owner
        self.key = key  # (st_dev, st_ino, cpu)
        self.segment = segment
        self.word = word  # the owner word as this claim wrote it
        self.refs = 1
        self.stores: "weakref.WeakSet" = weakref.WeakSet()

    @property
    def cpu(self) -> int:
        return self.key[2]

    def revoke(self, pid: int) -> None:
        """Make every later compare-and-store on the lane raise
        :class:`ShmLaneBusy` naming ``pid``."""
        for store in self.stores:
            store.lock = _Revoked(self.segment, self.cpu, pid)


class LaneOwner:
    """A process as the owner of shm lanes: its pid, how it tells whether
    another pid is alive, and the lanes it holds.

    :meth:`current` is this OS process.  The model checker builds one per
    simulated process, with its own pid and liveness.
    """

    def __init__(self, pid: int,
                 alive: Callable[[int], bool] = pid_alive) -> None:
        self.pid = pid
        self.alive = alive
        self._lanes: Dict[Tuple[int, int, int], Lane] = {}
        self._guard = threading.Lock()
        self._forked = False

    @staticmethod
    def current() -> "LaneOwner":
        return _current

    def holds(self, key: Tuple[int, int, int]) -> bool:
        return key in self._lanes

    def claim(self, region, cpu: int, word=None) -> Lane:
        """Bind ``cpu``'s lane of ``region`` to this process; ``word``
        substitutes the owner word (the model checker's stepped one)."""
        key = region.seglock.key + (cpu,)
        if word is None:
            word = region.owner_word(cpu)
        with self._guard:
            lane = self._lanes.get(key)
            if lane is not None and word.load() == lane.word:
                lane.refs += 1
                return lane
            while True:
                cur = word.load()
                pid = cur & PID_MASK
                if pid and pid != self.pid and self.alive(pid):
                    raise ShmLaneBusy(region.name, cpu, pid)
                gen = ((cur >> GENERATION_SHIFT) + 1) & PID_MASK
                new = (gen << GENERATION_SHIFT) | self.pid
                if self._take(word, cur, new):
                    break
            lane = Lane(self, key, region.name, new)
            self._lanes[key] = lane
            return lane

    def _take(self, word, cur: int, new: int) -> bool:
        return word.compare_and_store(cur, new)

    def release(self, lane: Lane, word) -> None:
        """Drop one attach's hold; the last one clears the pid (the
        generation stays, so the next claim is generation + 1)."""
        with self._guard:
            lane.refs -= 1
            if lane.refs or self._forked:
                return
            if self._lanes.get(lane.key) is lane:
                del self._lanes[lane.key]
            word.compare_and_store(lane.word, lane.word & ~PID_MASK)


_current = LaneOwner(os.getpid())


def _after_fork_in_child() -> None:
    global _current
    parent = _current
    parent._forked = True
    for lane in parent._lanes.values():
        lane.revoke(parent.pid)
    _current = LaneOwner(os.getpid())


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
