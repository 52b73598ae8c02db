"""Block devices: queued requests, interrupt-driven completion.

Rounds out the I/O side of the simulated machine (§2 mentions "other
I/O interactions" among the things the unified trace lets you study).
A device serves one request at a time; queued requests wait behind it
(the queueing delay that makes I/O latency load-dependent).  Completion
raises an interrupt — traced as ``TRC_EXCEPTION_IO_INTR`` on the CPU
that takes it — and wakes the blocked requester.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List, Tuple

from repro.core.majors import ExcMinor, Major
from repro.ksim.ops import BlockOn, Compute, Op

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ksim.kernel import Kernel


@dataclass
class IoRequest:
    req_id: int
    kind: str          # "read" | "write"
    nbytes: int
    submitted_at: int
    started_at: int = 0
    completed_at: int = 0

    @property
    def queue_delay(self) -> int:
        return self.started_at - self.submitted_at

    @property
    def service_time(self) -> int:
        return self.completed_at - self.started_at

    @property
    def latency(self) -> int:
        return self.completed_at - self.submitted_at


class BlockDevice:
    """One simulated disk: FIFO queue, single server, completion IRQ."""

    def __init__(
        self,
        kernel: "Kernel",
        name: str = "disk0",
        device_id: int = 0,
        seek_cycles: int = 250_000,
        per_byte_denom: int = 16,
        irq_cpu: int = 0,
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.device_id = device_id
        self.seek_cycles = seek_cycles
        self.per_byte_denom = per_byte_denom
        self.irq_cpu = irq_cpu
        #: simulated time at which the device becomes free
        self._free_at = 0
        self._next_req = 1
        self.completed: List[IoRequest] = []
        self.interrupts = 0
        self.inflight = 0

    def _service_cycles(self, nbytes: int) -> int:
        return self.seek_cycles + nbytes // self.per_byte_denom

    def submit(self, kind: str, nbytes: int) -> Generator[Op, None, IoRequest]:
        """Submit a request and block until its completion interrupt.

        Yields executor ops; the calling thread sleeps while the device
        (and whatever is queued ahead) works.
        """
        kernel = self.kernel
        now = kernel.engine.now
        req = IoRequest(
            req_id=self._next_req, kind=kind, nbytes=nbytes,
            submitted_at=now,
        )
        self._next_req += 1
        req.started_at = max(now, self._free_at)
        req.completed_at = req.started_at + self._service_cycles(nbytes)
        self._free_at = req.completed_at
        key = ("io", self.device_id, req.req_id)

        self.inflight += 1

        def complete() -> None:
            self.interrupts += 1
            self.inflight -= 1
            self.completed.append(req)
            kernel.trace(
                self.irq_cpu, Major.EXC, ExcMinor.IO_INTERRUPT,
                (self.device_id,),
            )
            kernel._wake(key)

        kernel.engine.at(req.completed_at, complete)
        cost = kernel.costs.io_submit
        yield Compute(cost, pc=f"{self.name}::submit_{kind}")
        yield BlockOn(key)
        return req

    def stats(self) -> Tuple[int, float, int]:
        """(requests, mean latency, max latency) over completed I/Os."""
        if not self.completed:
            return (0, 0.0, 0)
        lats = [r.latency for r in self.completed]
        return (len(lats), sum(lats) / len(lats), max(lats))
