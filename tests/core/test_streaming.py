"""Streaming the trace over a network connection (§1).

"This event log may be examined while the system is running, written
out to disk, or streamed over the network."  The frame format works
over any byte stream; this test pushes live buffers through a real
socket pair while logging continues, and the receiving side decodes the
identical stream.
"""

import socket
import threading


from repro.core.buffers import TraceControl
from repro.core.logger import TraceLogger
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.core.registry import default_registry
from repro.core.stream import TraceReader
from repro.core.timestamps import WallClock
from repro.core.writer import TraceFileReader, TraceFileWriter


def test_stream_trace_over_socket():
    left, right = socket.socketpair()
    control = TraceControl(buffer_words=64, num_buffers=8)
    mask = TraceMask()
    mask.enable_all()
    logger = TraceLogger(control, mask, WallClock(),
                         registry=default_registry())
    logger.start()

    received = {}

    def receiver():
        with right.makefile("rb") as fh:
            reader = TraceFileReader(fh)
            records = []
            try:
                while True:
                    records.append(reader._parse_frame(
                        fh.read(reader.frame_size), 0))
            except (EOFError, ValueError):
                pass
            received["records"] = records

    rx = threading.Thread(target=receiver)
    rx.start()

    # The "system" logs while the writer drains buffers over the wire.
    with left.makefile("wb") as fh:
        writer = TraceFileWriter(fh, control.buffer_words)
        for i in range(800):
            logger.log1(Major.TEST, 1, i)
            if i % 100 == 99:
                for rec in control.drain():
                    writer.write_record(rec)
                fh.flush()
        for rec in control.flush():
            writer.write_record(rec)
        fh.flush()
    left.close()
    rx.join(timeout=10)
    right.close()

    assert "records" in received
    trace = TraceReader(registry=default_registry()).decode_records(
        received["records"]
    )
    values = [e.data[0] for e in trace.events(0) if e.major == Major.TEST]
    assert values == list(range(800))
    assert not trace.anomalies


def test_streamed_while_logging_continues():
    """Drain mid-run: earlier buffers ship while later events are still
    being produced (the examined-while-running property)."""
    control = TraceControl(buffer_words=64, num_buffers=8)
    mask = TraceMask()
    mask.enable_all()
    logger = TraceLogger(control, mask, WallClock(),
                         registry=default_registry())
    logger.start()
    shipped = []
    for i in range(1_000):
        logger.log1(Major.TEST, 1, i)
        if i % 200 == 199:
            shipped.extend(control.drain())
    shipped.extend(control.flush())
    trace = TraceReader(registry=default_registry()).decode_records(shipped)
    values = [e.data[0] for e in trace.events(0) if e.major == Major.TEST]
    assert values == list(range(1_000))
