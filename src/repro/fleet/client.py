"""Shared HTTP/JSON wire helpers for the fleet control plane.

Everything the coordinator and worker agree on lives here: the error
vocabulary (:class:`FleetTransportError` for faults worth retrying,
:class:`FleetProtocolError` for rejections that never are), the JSON
request helper built on stdlib :mod:`urllib`, the artifact archive
format (a normalized tar), and the :class:`CoordinatorClient` facade
over the coordinator's endpoints.

No third-party dependencies: a worker is deployable anywhere a Python
interpreter runs, which is the point of an edge fleet.
"""

from __future__ import annotations

import io
import json
import tarfile
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path, PurePosixPath

from repro.util.errors import ReproError, ValidationError


class FleetTransportError(ReproError):
    """The coordinator could not be reached (or answered 5xx).

    Transient by definition — connection refused, reset, timeout, a
    server-side crash — so workers wrap calls that may raise this in
    :func:`~repro.util.retry.with_retries`.
    """


class FleetProtocolError(ValidationError):
    """The coordinator understood the request and refused it (4xx).

    Carries the HTTP ``status`` it was (or should be) answered with.
    Never retried: an unknown lease or a digest rejection will not get
    better by asking again with the same bytes.
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def request_json(
    url: str,
    *,
    method: str = "GET",
    payload: dict | None = None,
    body: bytes | None = None,
    content_type: str | None = None,
    timeout_s: float = 30.0,
) -> dict:
    """One JSON-in/JSON-out HTTP exchange, with the fleet error mapping.

    ``payload`` serializes as a JSON request body; ``body`` sends raw
    bytes (artifact uploads). 4xx answers raise
    :class:`FleetProtocolError` carrying the server's ``error`` message;
    5xx and every connection-level fault raise
    :class:`FleetTransportError` (retryable).
    """
    if payload is not None and body is not None:
        raise ValidationError("request_json takes payload or body, not both")
    headers = {"Accept": "application/json"}
    data = None
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    elif body is not None:
        data = body
        headers["Content-Type"] = content_type or "application/octet-stream"
    request = urllib.request.Request(url, data=data, method=method,
                                     headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            raw = response.read()
    except urllib.error.HTTPError as exc:
        detail = _error_detail(exc)
        if exc.code >= 500:
            raise FleetTransportError(
                f"{method} {url} failed with HTTP {exc.code}: "
                f"{detail}") from None
        raise FleetProtocolError(
            f"{method} {url} rejected with HTTP {exc.code}: {detail}",
            status=exc.code) from None
    except (urllib.error.URLError, TimeoutError, ConnectionError,
            OSError) as exc:
        raise FleetTransportError(
            f"cannot reach coordinator for {method} {url}: {exc}") from None
    try:
        doc = json.loads(raw.decode() or "{}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FleetTransportError(
            f"{method} {url} answered non-JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise FleetTransportError(f"{method} {url} answered a non-object")
    return doc


def _error_detail(exc: urllib.error.HTTPError) -> str:
    """The server's ``error`` field when the body is JSON, else raw text."""
    try:
        raw = exc.read().decode(errors="replace")
    except OSError:
        return exc.reason or "no detail"
    try:
        doc = json.loads(raw)
        if isinstance(doc, dict) and "error" in doc:
            return str(doc["error"])
    except json.JSONDecodeError:
        pass
    return raw.strip() or (exc.reason or "no detail")


# ----------------------------------------------------------- artifact archive

def _check_member(name: str) -> PurePosixPath:
    """Vet one archive member path; rejects traversal/absolute entries."""
    pure = PurePosixPath(name)
    if pure.is_absolute() or any(part in ("..", "") for part in pure.parts):
        raise ValidationError(
            f"artifact archive member {name!r} escapes the extraction "
            "directory; refusing to unpack")
    return pure


def pack_artifact(artifact_dir: str | Path) -> bytes:
    """A shard artifact directory as one normalized tar blob.

    Deterministic for a given tree (sorted members, zeroed mtimes/owners)
    so re-uploading the same artifact sends the same bytes — which is
    what makes duplicate uploads trivially idempotent to reason about.
    Content integrity is carried *inside* the artifact (``digests.json``),
    so the archive itself needs no checksum.
    """
    root = Path(artifact_dir)
    if not root.is_dir():
        raise ValidationError(f"cannot pack {root}: not a directory")
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            info = tar.gettarinfo(
                path, arcname=path.relative_to(root).as_posix())
            info.mtime = 0
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            with path.open("rb") as handle:
                tar.addfile(info, handle)
    return buf.getvalue()


def unpack_artifact(blob: bytes, dest: str | Path) -> None:
    """Extract an uploaded artifact tar (as :func:`pack_artifact` makes it)
    under ``dest``.

    Only regular files are materialized; links, devices, and any member
    whose path would escape ``dest`` raise
    :class:`~repro.util.errors.ValidationError` — uploads are untrusted
    input even on a friendly fleet. So does any blob that is not a tar.
    """
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    try:
        with tarfile.open(fileobj=io.BytesIO(blob), mode="r:*") as tar:
            for member in tar.getmembers():
                if member.isdir():
                    continue
                if not member.isfile():
                    raise ValidationError(
                        f"artifact archive member {member.name!r} is not a "
                        "regular file; refusing to unpack")
                target = dest / _check_member(member.name)
                target.parent.mkdir(parents=True, exist_ok=True)
                source = tar.extractfile(member)
                with target.open("wb") as handle:
                    handle.write(source.read())
    except tarfile.TarError as exc:
        raise ValidationError(
            f"artifact upload is not a readable tar archive ({exc})") from None


# ----------------------------------------------------------------- the client

class CoordinatorClient:
    """Typed facade over the coordinator's HTTP endpoints.

    One method per endpoint, all returning the parsed JSON document.
    Stateless: every call is one request, so the same client can be
    shared by a worker loop and its background heartbeat thread.
    """

    def __init__(self, base_url: str, *, timeout_s: float = 30.0):
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise ValidationError(
                f"coordinator URL {base_url!r} is not an http(s) URL")
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def _url(self, path: str) -> str:
        return f"{self.base_url}{path}"

    def lease(self, worker: str) -> dict:
        """Ask for the next unleased shard (see coordinator docs for keys)."""
        return request_json(self._url("/lease"), method="POST",
                            payload={"worker": worker},
                            timeout_s=self.timeout_s)

    def heartbeat(self, lease_id: str) -> dict:
        return request_json(self._url("/heartbeat"), method="POST",
                            payload={"lease_id": lease_id},
                            timeout_s=self.timeout_s)

    def upload(self, lease_id: str, blob: bytes) -> dict:
        return request_json(self._url(f"/upload/{lease_id}"), method="POST",
                            body=blob, content_type="application/x-tar",
                            timeout_s=self.timeout_s)

    def status(self) -> dict:
        return request_json(self._url("/status"), timeout_s=self.timeout_s)

    def report(self, *, triage: bool = False) -> dict:
        path = "/report?triage=1" if triage else "/report"
        return request_json(self._url(path), timeout_s=self.timeout_s)

    def finalize(self) -> dict:
        return request_json(self._url("/finalize"), method="POST",
                            payload={}, timeout_s=self.timeout_s)
