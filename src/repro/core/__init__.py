"""The paper's primary contribution: the unified lockless tracing
infrastructure (events, mask, per-CPU buffers, lockless logger, stream
reader, serialization, unified facility)."""

from repro.core.buffers import BufferRecord, TraceControl
from repro.core.columnar import (
    ColumnarTrace,
    ColumnarTraceReader,
    EventBatch,
    as_batch,
    decode_records_columnar,
)
from repro.core.constants import (
    DEFAULT_BUFFER_WORDS,
    DEFAULT_NUM_BUFFERS,
    MAX_DATA_WORDS,
    MAX_EVENT_WORDS,
    NUM_MAJORS,
)
from repro.core.facility import TraceFacility
from repro.core.header import Header, pack_header, unpack_header
from repro.core.locking_logger import LockingTraceLogger
from repro.core.logger import EventTooLargeError, NullTraceLogger, TraceLogger
from repro.core.majors import (
    AppMinor,
    ControlMinor,
    ExcMinor,
    HwPerfMinor,
    IOMinor,
    LockMinor,
    Major,
    MemMinor,
    PcSampleMinor,
    ProcMinor,
    SyscallMinor,
    UserMinor,
)
from repro.core.mask import TraceMask
from repro.core.packing import (
    LayoutPlan,
    compile_layout,
    pack_values,
    parse_layout,
    unpack_values,
)
from repro.core.parallel import (
    decode_records_columnar_parallel,
    shard_records,
)
from repro.core.registry import EventRegistry, EventSpec, default_registry
from repro.core.stream import (
    Anomaly,
    Trace,
    TraceEvent,
    TraceReader,
    decode_from_offset,
    flat_records,
    sdelta32,
    seek_boundary,
)
from repro.core.timestamps import (
    ClockSource,
    DriftingTscClock,
    ExpensiveWallClock,
    ManualClock,
    WallClock,
)
from repro.core.writer import (
    TraceFileReader,
    TraceFileWriter,
    load_records,
    save_records,
)

__all__ = [
    "BufferRecord", "TraceControl", "TraceFacility",
    "DEFAULT_BUFFER_WORDS", "DEFAULT_NUM_BUFFERS",
    "MAX_DATA_WORDS", "MAX_EVENT_WORDS", "NUM_MAJORS",
    "Header", "pack_header", "unpack_header",
    "LockingTraceLogger", "TraceLogger", "NullTraceLogger",
    "EventTooLargeError",
    "Major", "ControlMinor", "MemMinor", "ProcMinor", "ExcMinor", "IOMinor",
    "LockMinor", "UserMinor", "SyscallMinor", "HwPerfMinor", "PcSampleMinor",
    "AppMinor",
    "TraceMask",
    "pack_values", "unpack_values", "parse_layout",
    "LayoutPlan", "compile_layout",
    "EventRegistry", "EventSpec", "default_registry",
    "Anomaly", "Trace", "TraceEvent", "TraceReader",
    "EventBatch", "ColumnarTrace", "ColumnarTraceReader",
    "decode_records_columnar", "as_batch",
    "decode_records_columnar_parallel", "shard_records",
    "decode_from_offset", "flat_records", "sdelta32", "seek_boundary",
    "ClockSource", "WallClock", "ExpensiveWallClock", "ManualClock",
    "DriftingTscClock",
    "TraceFileReader", "TraceFileWriter", "load_records", "save_records",
]
