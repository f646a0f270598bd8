"""EXray-log persistence: stream logs to disk and read them back lazily.

A log is a directory in the layout
:class:`~repro.instrument.sinks.DirectorySink` streams (version
:data:`~repro.instrument.sinks.LOG_FORMAT_VERSION`): ``meta.json`` (header,
with ``version``), ``frames.jsonl`` (one JSON document per frame, appended
as each frame closes, indexing its tensors as ``key -> [dtype.str, shape,
offset]``), and ``tensors.bin`` (every frame's tensors as raw C-order
bytes, appended). :func:`save_log` is a thin drain over a DirectorySink,
and :meth:`EXrayLog.load` rejects any other version.

The byte sizes of these files are exactly the "Disk" columns of Tables 2,
3, and 5.

:class:`EXrayLog` is a *lazy* reader: loading a directory parses only the
small per-frame documents; tensor payloads stay on disk until a frame is
materialized. Every keyed read — :meth:`EXrayLog.iter_frames`,
:meth:`EXrayLog.frame`, :meth:`EXrayLog.stacked` and
:meth:`EXrayLog.stack_frames` — goes through one helper
(:class:`_TensorReader`): one open ``tensors.bin`` handle per call or
iteration, one ``seek`` + ``readinto`` of the byte span a frame's requested
keys occupy, and each key's array a view of that buffer.
:meth:`EXrayLog.iter_frames` streams frames one at a time;
:meth:`EXrayLog.stack_frames` reads a bounded run of frames into one
frame-major buffer, so per-layer validation of a 10k-frame trace holds one
chunk of frames at a time instead of the whole trace. ``EXrayLog.frames``
remains the eager view (materializes and caches all frames).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterator
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from repro.instrument.monitor import EdgeMLMonitor
from repro.instrument.records import FrameLog, frame_from_doc
from repro.instrument.sinks import (
    LOG_FORMAT_VERSION,
    TENSORS_NAME,
    DirectorySink,
    LogSink,
    TeeSink,
    log_bytes,
)
from repro.util.errors import ValidationError


HASH_CHUNK_BYTES = 1 << 20
"""Fixed read size for digesting files.

Digests stream file contents through the hash in chunks of this many
bytes — never a whole-file read — so hashing a multi-gigabyte artifact
upload holds one chunk resident. Pinned by a counting-reader regression
test; raise it for throughput, but digests must stay byte-identical
(chunking cannot change a SHA-256 over the same byte stream).
"""


def _open_for_hash(path: Path):
    """Open one file for digesting (seam for bounded-read regression tests)."""
    return path.open("rb")


def _hash_file_contents(h, path: Path) -> None:
    """Stream one file into a hash: a size prefix, then fixed-size chunks.

    The explicit size prefix makes the multi-file framing unambiguous —
    without it, moving bytes across a file boundary (or into a path name)
    could produce the same concatenated stream and thus a colliding
    digest.
    """
    size = path.stat().st_size
    h.update(str(size).encode())
    h.update(b"\0")
    with _open_for_hash(path) as handle:
        for chunk in iter(lambda: handle.read(HASH_CHUNK_BYTES), b""):
            h.update(chunk)


def file_digest(path: str | Path) -> str:
    """SHA-256 hex digest of one file (size-prefixed contents).

    Shard artifacts record this for their report documents so a merge can
    tell a corrupted or half-written artifact from a trustworthy one.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"cannot digest {path}: not a file")
    h = hashlib.sha256()
    _hash_file_contents(h, path)
    return h.hexdigest()


def log_digest(root: str | Path) -> str:
    """Content digest of a log directory (or any directory tree).

    SHA-256 over every file's root-relative POSIX path and size-prefixed
    bytes, visited in sorted order — the same tree hashes identically
    wherever it is copied, and any truncated ``tensors.bin``, edited frame
    document, or missing file changes the digest. Files stream through
    the hash in chunks (nothing is materialized whole). Sweep-shard
    artifacts record this per streamed edge log (and shard manifests for
    the shared reference log) so merges and workers can verify integrity
    before trusting tensors.
    """
    root = Path(root)
    if not root.is_dir():
        raise ValidationError(f"cannot digest {root}: not a directory")
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        _hash_file_contents(h, path)
    return h.hexdigest()


def _open_tensors(path: Path):
    """Open a log's ``tensors.bin`` for keyed reads (seam for read-counting
    tests).

    The returned object is a context manager with ``seek(offset)`` and
    ``readinto(buffer)``; keyed reads use nothing else of it. Each frame's
    requested tensors cost exactly one ``seek`` + ``readinto``.
    """
    return path.open("rb")


def _layout(index: dict, keys) -> tuple[int, int, list[tuple]]:
    """Where one frame's requested tensors lie in ``tensors.bin``.

    ``index`` is the frame document's ``key -> [dtype.str, shape, offset]``
    map; ``keys`` (``None`` for all) selects entries. Returns ``(lo, size,
    entries)``: the selected tensors lie within bytes ``[lo, lo + size)``,
    and ``entries`` holds ``(key, dtype, shape, start, nbytes)`` with
    ``start`` relative to ``lo``. Two frames whose ``entries`` are equal can
    share one buffer layout.
    """
    entries, lo, hi = [], math.inf, 0
    for key, (dtype, shape, offset) in index.items():
        if keys is None or key in keys:
            dtype = np.dtype(dtype)
            nbytes = dtype.itemsize * math.prod(shape)
            entries.append((key, dtype, tuple(shape), offset, nbytes))
            if offset < lo:
                lo = offset
            if offset + nbytes > hi:
                hi = offset + nbytes
    if not entries:
        return 0, 0, []
    return lo, hi - lo, [(key, dtype, shape, offset - lo, nbytes)
                         for key, dtype, shape, offset, nbytes in entries]


def _unstackable(log: str, key: str, step: int, array: np.ndarray,
                 first_step: int, first: np.ndarray) -> ValidationError:
    """The error for a key whose dtype or shape changes across frames;
    ``first`` is the key's array in frame ``first_step``."""
    return ValidationError(
        f"{log}: tensor {key!r} is {array.dtype}{list(array.shape)} in "
        f"frame {step} but {first.dtype}{list(first.shape)} in frame "
        f"{first_step}; cannot stack them")


def _views(buffer: np.ndarray, entries: list[tuple]) -> dict[str, np.ndarray]:
    """Each entry's tensor as a view of ``buffer``'s last axis (frame-major
    when ``buffer`` is 2-D: one row per frame)."""
    lead = buffer.shape[:-1]
    return {key: buffer[..., start:start + nbytes].view(dtype)
            .reshape(lead + shape)
            for key, dtype, shape, start, nbytes in entries}


class _TensorReader:
    """The one read path for a directory log's tensors.

    Opens ``tensors.bin`` (through :func:`_open_tensors`) on the first read
    and keeps that handle until the reader closes, so a whole iteration
    costs one open. :meth:`fill` reads one frame's byte span with one
    positioned read; a short read names the first tensor whose bytes are
    missing.
    """

    def __init__(self, source: "_DirectorySource"):
        self._source = source
        self._files = ExitStack()
        self._handle = None

    def __enter__(self) -> "_TensorReader":
        return self

    def __exit__(self, *exc) -> None:
        self._files.close()

    def fill(self, doc: dict, lo: int, entries: list[tuple],
             buffer: np.ndarray) -> None:
        """Read ``len(buffer)`` bytes from offset ``lo`` into ``buffer``."""
        if self._handle is None:
            try:
                handle = _open_tensors(self._source.root / TENSORS_NAME)
            except FileNotFoundError:
                raise self._source._missing(
                    doc["step"], entries[0][0],
                    f"{TENSORS_NAME} is missing") from None
            self._handle = self._files.enter_context(handle)
        self._handle.seek(lo)
        got = self._handle.readinto(buffer)
        if got != len(buffer):
            key = next(entry[0] for entry in entries
                       if entry[3] + entry[4] > got)
            raise self._source._missing(
                doc["step"], key,
                f"{TENSORS_NAME} ends before its bytes (truncated log?)")

    def read(self, doc: dict, keys=None) -> dict[str, np.ndarray]:
        """One frame's requested tensors, as views of one fresh buffer."""
        lo, size, entries = _layout(doc["tensors"], keys)
        if not entries:
            return {}
        buffer = np.empty(size, np.uint8)
        self.fill(doc, lo, entries, buffer)
        return _views(buffer, entries)


def _drain_source(sink: LogSink) -> LogSink:
    """The most complete view of a sink's stream, for persisting it.

    A DirectorySink (even inside a TeeSink) has every frame ever emitted;
    in-memory sinks only offer whatever they retained — a ring buffer's
    window is all a ring-buffered monitor can save.
    """
    if isinstance(sink, TeeSink):
        for child in sink.sinks:
            found = _drain_source(child)
            if isinstance(found, DirectorySink):
                return found
    return sink


def save_log(monitor: EdgeMLMonitor, root: str | Path) -> int:
    """Persist a monitor's frames; returns total bytes written.

    Flushes any pending lazily-opened frame first so trailing sensor-only
    logs are not dropped. Since the sink redesign this is a thin drain over
    :class:`~repro.instrument.sinks.DirectorySink`: frames are re-emitted
    one at a time into ``root`` (v3 layout). The drain prefers the most
    complete view of the stream — a DirectorySink (even one nested in a
    TeeSink) has every frame on disk, while a ring buffer can only offer
    its retained window. When the monitor already streams to a
    DirectorySink at ``root``, saving merely seals it; snapshotting to a
    *different* directory leaves the live stream open and emittable.
    """
    monitor.flush()
    root = Path(root)
    source = _drain_source(monitor.sink)
    if isinstance(source, DirectorySink):
        if root.resolve() == source.root.resolve():
            source.close()
            return source.total_bytes()
        # Snapshot the on-disk stream into the requested directory, one
        # frame resident at a time, without disturbing the live sink.
        source.sync()
        frames = EXrayLog.load(source.root).iter_frames()
    else:
        frames = iter(source.frames)
    sink = DirectorySink(root, name=monitor.name, per_layer=monitor.per_layer)
    sink.monitor_overhead_ms = monitor.monitor_overhead_ms
    for frame in frames:
        sink.emit(frame)
    sink.close()
    return sink.total_bytes()


# --------------------------------------------------------------------- source

class _ListSource:
    """Frame source over an in-memory list (zero-copy view).

    ``load_tensors`` is accepted for interface parity but ignored:
    in-memory frames already hold their tensors.
    """

    def __init__(self, frames: list[FrameLog]):
        self._frames = frames

    def __len__(self) -> int:
        return len(self._frames)

    def iter_frames(self, load_tensors: bool = True) -> Iterator[FrameLog]:
        return iter(self._frames)

    def frame(self, index: int, keys=None) -> FrameLog:
        return self._frames[index]

    def stack(self, start: int, stop: int, keys) -> dict[str, np.ndarray]:
        frames = self._frames[start:stop]
        stacked = {}
        for key in keys:
            arrays = [np.asarray(frame.tensor(key)) for frame in frames]
            first = arrays[0]
            for frame, array in zip(frames, arrays):
                if (array.dtype, array.shape) != (first.dtype, first.shape):
                    raise _unstackable("in-memory EXray log", key,
                                       frame.step, array, frames[0].step,
                                       first)
            stacked[key] = np.stack(arrays)
        return stacked

    def tensor_keys(self) -> list[str]:
        return sorted(self._frames[0].tensors)

    def materialize(self) -> list[FrameLog]:
        return self._frames


class _DirectorySource:
    """Lazy frame source over a log directory.

    Per-frame documents (scalars, sensors, latencies — small) are parsed
    once and held; tensor payloads are read from disk only when a frame is
    materialized with tensors, so iterating a long per-layer trace keeps
    O(1) tensors resident.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        meta_path = self.root / "meta.json"
        if not meta_path.exists():
            raise ValidationError(f"no EXray log at {self.root}")
        self.meta = json.loads(meta_path.read_text())
        version = self.meta.get("version")
        if version != LOG_FORMAT_VERSION:
            raise ValidationError(
                f"EXray log at {self.root} has format version {version!r}; "
                f"only version {LOG_FORMAT_VERSION} is readable")
        jsonl = self.root / "frames.jsonl"
        if not jsonl.exists():
            raise ValidationError(f"EXray log at {self.root} has no frames.jsonl")
        with jsonl.open() as handle:
            self._docs = [json.loads(line) for line in handle if line.strip()]

    def __len__(self) -> int:
        return len(self._docs)

    # ------------------------------------------------------------- tensors
    def _missing(self, step: int, key: str, why: str) -> ValidationError:
        return ValidationError(
            f"EXray log at {self.root} lists tensor {key!r} for frame "
            f"{step} but {why}")

    def tensor_keys(self) -> list[str]:
        return list(self._docs[0]["tensors"])

    def _require(self, doc: dict, entries: list[tuple], keys) -> None:
        missing = sorted(set(keys) - {entry[0] for entry in entries})
        if missing:
            raise KeyError(f"frame {doc['step']} has no tensor "
                           f"{missing[0]!r}; available: "
                           f"{sorted(doc['tensors'])}")

    # ------------------------------------------------------------ iteration
    def iter_frames(self, load_tensors: bool = True) -> Iterator[FrameLog]:
        with _TensorReader(self) as reader:
            for doc in self._docs:
                frame = frame_from_doc(doc)
                if load_tensors:
                    frame.tensors.update(reader.read(doc))
                yield frame

    def frame(self, index: int, keys=None) -> FrameLog:
        doc = self._docs[index]
        frame = frame_from_doc(doc)
        with _TensorReader(self) as reader:
            frame.tensors.update(reader.read(doc, keys))
        return frame

    def stack(self, start: int, stop: int, keys) -> dict[str, np.ndarray]:
        """Frames ``[start, stop)`` of ``keys``, stacked frame-major.

        Frames laid out like the first (same keys, dtypes, shapes and
        relative offsets — every frame of an ordinary capture) are each
        read with one positioned read into their row of one shared buffer,
        and every key comes back as a column view of it. A frame laid out
        differently (a custom tensor logged on some frames only shifts the
        offsets) is read by itself and copied into its row key by key.
        """
        docs = self._docs[start:stop]
        _, size, entries = _layout(docs[0]["tensors"], keys)
        self._require(docs[0], entries, keys)
        rows = np.empty((len(docs), size), np.uint8)
        stacked = _views(rows, entries)
        with _TensorReader(self) as reader:
            for row, doc in enumerate(docs):
                frame_lo, _, frame_entries = _layout(doc["tensors"], keys)
                if frame_entries == entries:
                    reader.fill(doc, frame_lo, entries, rows[row])
                    continue
                self._require(doc, frame_entries, keys)
                for key, array in reader.read(doc, keys).items():
                    column = stacked[key]
                    if (array.dtype, array.shape) != \
                            (column.dtype, column.shape[1:]):
                        raise _unstackable(
                            f"EXray log at {self.root}", key, doc["step"],
                            array, docs[0]["step"], column[0])
                    column[row] = array
        return stacked

    def materialize(self) -> list[FrameLog]:
        return list(self.iter_frames())


# ----------------------------------------------------------------------- log

class EXrayLog:
    """Reader over a persisted (or in-memory) EXray log stream.

    Directory-backed logs are lazy: construction parses only the per-frame
    documents, and tensors are pulled from disk as frames materialize.
    :attr:`frames` is the eager view (loads and caches everything);
    :meth:`iter_frames` is the streaming view (O(1) frames resident).
    """

    def __init__(self, name: str, per_layer: bool,
                 frames: list[FrameLog] | None = None,
                 log_bytes: int = 0, monitor_overhead_ms: float = 0.0,
                 source=None):
        self.name = name
        self.per_layer = per_layer
        if source is None:
            source = _ListSource(frames if frames is not None else [])
        self._source = source
        # An explicit frame list is the eager cache itself (zero-copy view,
        # so from_monitor sees frames the monitor emits afterwards).
        self._frames: list[FrameLog] | None = (
            frames if frames is not None else None)
        self.log_bytes = log_bytes
        self.monitor_overhead_ms = monitor_overhead_ms
        self.version = LOG_FORMAT_VERSION

    # ------------------------------------------------------------- creation
    @classmethod
    def load(cls, root: str | Path) -> "EXrayLog":
        """Lazily open a log directory.

        Only frame documents are parsed here; tensor payloads load on
        access. A ``meta.json`` whose version is not
        :data:`~repro.instrument.sinks.LOG_FORMAT_VERSION` raises
        :class:`ValidationError` naming the directory and the version. A
        truncated log — a frame document indexing bytes that
        ``tensors.bin`` does not hold — raises :class:`ValidationError`
        naming the directory, frame step and key when (and only when) that
        tensor is read.
        """
        root = Path(root)
        source = _DirectorySource(root)
        return cls(source.meta["name"], source.meta["per_layer"],
                   log_bytes=log_bytes(root),
                   monitor_overhead_ms=source.meta.get("monitor_overhead_ms", 0.0),
                   source=source)

    @classmethod
    def from_monitor(cls, monitor: EdgeMLMonitor) -> "EXrayLog":
        """A log view over a monitor's sink (no extra copies).

        Flushes any pending lazily-opened frame so trailing sensor-only
        logs appear in the view, then asks the sink: in-memory sinks yield
        a zero-copy eager view, a DirectorySink yields a lazy reader over
        its directory.
        """
        monitor.flush()
        return monitor.sink.open_log(monitor)

    # --------------------------------------------------------------- frames
    @property
    def frames(self) -> list[FrameLog]:
        """Eager view: every frame fully materialized (and cached)."""
        if self._frames is None:
            self._frames = self._source.materialize()
        return self._frames

    def iter_frames(self, load_tensors: bool = True) -> Iterator[FrameLog]:
        """Stream frames without materializing the whole log.

        ``load_tensors=False`` skips tensor payloads entirely — the cheap
        path for latency/memory queries over directory-backed logs; it only
        affects directory-backed logs, in-memory frames arrive as-is. To
        read a few keys, use :meth:`frame` or :meth:`stack_frames`.
        A directory-backed iteration keeps one ``tensors.bin`` handle open
        and reads each frame's tensors with one positioned read;
        the frame's arrays are views of that one buffer.
        """
        if self._frames is not None:
            yield from self._frames
            return
        yield from self._source.iter_frames(load_tensors=load_tensors)

    def frame(self, index: int, keys=None) -> FrameLog:
        """Random access to one materialized frame.

        A ``keys`` set restricts which tensors load for directory-backed
        logs (e.g. ``keys={"model_output"}`` reads one array of a per-layer
        trace instead of every layer's); in-memory frames arrive as-is.
        """
        if self._frames is not None:
            return self._frames[index]
        return self._source.frame(index, keys=keys)

    def __len__(self) -> int:
        if self._frames is not None:
            return len(self._frames)
        return len(self._source)

    # --------------------------------------------------------------- queries
    def stack_frames(self, keys, start: int = 0,
                     stop: int | None = None) -> dict[str, np.ndarray]:
        """Each of ``keys``' tensors over frames ``[start, stop)``, stacked
        on a new leading frame axis.

        Directory-backed logs read each frame's span of ``keys`` with one
        positioned read into one frame-major buffer and hand out views of
        it; in-memory logs stack their arrays. Every frame must hold every
        key (``KeyError`` otherwise) with one dtype and shape per key
        (:class:`ValidationError` otherwise).
        """
        stop = len(self) if stop is None else min(stop, len(self))
        if start >= stop:
            raise ValidationError(
                f"no frames to stack in [{start}, {stop}) of a "
                f"{len(self)}-frame log")
        source = self._source if self._frames is None \
            else _ListSource(self._frames)
        return source.stack(start, stop, keys)

    def stacked(self, key: str) -> np.ndarray:
        """Tensor series stacked on a new frame axis (frames, ...)."""
        return self.stack_frames({key})[key]

    def scalar_series(self, key: str) -> np.ndarray:
        return np.array([frame.scalars[key]
                         for frame in self.iter_frames(load_tensors=False)])

    def tensor_keys(self) -> list[str]:
        """Sorted tensor keys of the first frame, from its document alone
        (no tensor payload is read)."""
        return self._source.tensor_keys()

    def layer_names(self) -> list[str]:
        """Names of per-layer-logged layers, in execution order."""
        if len(self) == 0:
            return []
        keys = set(self.tensor_keys())
        first = next(self.iter_frames(load_tensors=False))
        return [n for n in first.layer_latency_ms if f"layer/{n}" in keys]

    def layer_schedule(self) -> tuple[tuple[str, str], ...]:
        """Stable ``(layer, op)`` keys in execution order.

        The schedule is the cross-variant alignment key for layer-drift
        fingerprints: two logs of the same model (at any deployment stage —
        the conversion passes preserve tensor names) agree on the keys of
        their shared layers, so per-layer vectors indexed by this schedule
        are directly comparable across sweep variants.
        """
        if len(self) == 0:
            return ()
        ops = next(self.iter_frames(load_tensors=False)).layer_ops
        return tuple((name, ops.get(name, "?")) for name in self.layer_names())

    def layer_latency_by_type(self) -> dict[str, float]:
        """Mean-per-frame total latency per op type (the Table 4 rows)."""
        totals: dict[str, float] = {}
        n = 0
        for frame in self.iter_frames(load_tensors=False):
            n += 1
            for layer, ms in frame.layer_latency_ms.items():
                op = frame.layer_ops.get(layer, "?")
                totals[op] = totals.get(op, 0.0) + ms
        return {op: total / max(n, 1) for op, total in totals.items()}

    def mean_latency_ms(self) -> float:
        """Mean end-to-end latency over inference frames.

        Sensor-only frames (flushed without an inference window) carry a
        placeholder zero latency and are excluded.
        """
        lat = [f.latency_ms for f in self.iter_frames(load_tensors=False)
               if not f.sensor_only]
        return float(np.mean(lat)) if lat else 0.0

    def peak_memory_mb(self) -> float:
        return float(max((f.memory_mb
                          for f in self.iter_frames(load_tensors=False)),
                         default=0.0))

    def num_sensor_only(self) -> int:
        """Frames that carry only sensor/custom logs (no inference)."""
        return sum(1 for f in self.iter_frames(load_tensors=False)
                   if f.sensor_only)
