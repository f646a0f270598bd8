"""ML-EXray instrumentation: the EdgeML Monitor, pluggable log sinks, log
records, and the lazy log store."""

from repro.instrument.monitor import EdgeMLMonitor, MLEXray
from repro.instrument.records import (
    FrameLog,
    frame_from_doc,
    frame_to_doc,
)
from repro.instrument.sinks import (
    DirectorySink,
    LogSink,
    MemorySink,
    RingBufferSink,
    StreamStats,
    TeeSink,
)
from repro.instrument.store import EXrayLog, file_digest, log_digest, save_log

__all__ = [
    "DirectorySink",
    "EXrayLog",
    "EdgeMLMonitor",
    "FrameLog",
    "LogSink",
    "MLEXray",
    "MemorySink",
    "RingBufferSink",
    "StreamStats",
    "TeeSink",
    "file_digest",
    "frame_from_doc",
    "frame_to_doc",
    "log_digest",
    "save_log",
]
