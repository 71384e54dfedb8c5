"""The sweep service's wire protocol: HTTP framing + versioned messages.

Two layers live here, shared by the server, the clients, and the remote
worker so that none of them can drift apart:

**HTTP framing.** The service deliberately avoids web-framework
dependencies — the container ships only the scientific toolchain — so
:func:`read_request` parses one request (request line, headers, a
Content-Length body) from a stream reader and :func:`render_response` /
:func:`render_stream_head` serialize responses; normal replies carry
``Content-Length`` and close the connection, NDJSON event streams send
headers up front and write lines until the job finishes.  One request
per connection keeps the framing trivial and matches the clients' usage.

**Versioned wire messages.** Every request/response body is a frozen
dataclass — :class:`SubmitRequest`, :class:`JobSnapshot`,
:class:`JobResults`, :class:`LeaseRequest`/:class:`LeaseGrant`,
:class:`HeartbeatRequest`/:class:`HeartbeatAck`,
:class:`ResultPush`/:class:`ResultAck`, :class:`LeaseRelease`/
:class:`ReleaseAck`, :class:`ErrorBody` — and one codec,
:func:`encode` / :func:`decode`, turns them into JSON objects and back.
The codec reads each class's fields and type hints once and caches the
plan.  Its rules:

* field types: ``str``, ``int`` (a ``bool`` is rejected), ``float`` (an
  ``int`` is accepted), ``bool``, ``dict``, ``Optional[T]``,
  ``tuple[T, ...]`` (a JSON array), nested message dataclasses (a JSON
  object), and :class:`SimSpec`/:class:`RunStats` through their own
  ``to_dict``/``from_dict``;
* a field without a default is required; unknown keys are ignored;
* a field valued ``None`` is left out of the encoded body;
* a field marked :data:`INLINE` shares its parent's object
  (:class:`JobResults` carries its snapshot's fields at top level);
* top-level bodies are stamped with ``protocol_version``, and
  :func:`decode` checks it first, so peers built from different protocol
  revisions fail loudly with :class:`VersionMismatchError` (a structured
  ``protocol_mismatch`` 400) instead of silently misreading fields;
* every other failure is a :class:`BodyError` naming the field path,
  e.g. ``outcomes[0].error.kind: expected str`` — one structured
  ``bad_request`` 400 for any malformed body;
* rules the types cannot express (non-empty tokens, ``max_cells >= 1``,
  exactly one of ``stats``/``error``) live in ``__post_init__``, so
  they hold for objects built in process too.

:class:`ErrorBody` is the one exception: it encodes under an ``"error"``
key and is read back by its own lenient, version-free
:meth:`ErrorBody.from_dict`, because a peer rejected for version skew
must still be able to read the rejection.  NDJSON *events* remain plain
dicts — they are an append-only stream reached through a versioned
snapshot, not a negotiated surface.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import types
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Optional
from urllib.parse import parse_qs, unquote

from repro.core.system import RunStats
from repro.experiments.spec import SimSpec
#: Bump on any incompatible change to the message shapes below.  The
#: server rejects mismatched submissions/leases with a structured 400,
#: and workers refuse to start against a head of a different version.
PROTOCOL_VERSION = 1

#: Reject request bodies beyond this (a 100k-cell grid is ~40 MB).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Reason phrases for the statuses the server actually emits.
REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class ProtocolError(ValueError):
    """Malformed or oversized request; maps to a 400/413 response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def segments(self) -> list[str]:
        """Non-empty path segments: ``/jobs/ab12/events`` ->
        ``["jobs", "ab12", "events"]``."""
        return [part for part in self.path.split("/") if part]


async def read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY_BYTES
) -> Request | None:
    """Parse one request; None when the peer closed before sending one."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(400, f"malformed request line: {line!r}")
    method, target, _version = parts

    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()

    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ProtocolError(400, "non-integer Content-Length") from None
    if length < 0 or length > max_body:
        raise ProtocolError(413, f"body of {length} bytes exceeds {max_body}")
    body = await reader.readexactly(length) if length else b""

    path, _sep, query_string = target.partition("?")
    return Request(
        method=method.upper(),
        path=unquote(path),
        query=parse_qs(query_string),
        headers=headers,
        body=body,
    )


def _head(
    status: int, content_type: str, extra_headers: tuple[tuple[str, str], ...]
) -> list[str]:
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return lines


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> bytes:
    """A complete fixed-length response."""
    lines = _head(status, content_type, extra_headers)
    lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def render_stream_head(
    status: int = 200,
    content_type: str = "application/x-ndjson",
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> bytes:
    """Headers for a streamed body delimited by connection close."""
    lines = _head(status, content_type, extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


# ---------------------------------------------------------------------------
# Versioned wire messages
# ---------------------------------------------------------------------------


class VersionMismatchError(ProtocolError):
    """The peer speaks a different protocol revision (or none at all)."""

    def __init__(self, got):
        super().__init__(
            400,
            f"protocol version mismatch: expected {PROTOCOL_VERSION}, "
            f"got {got!r}",
        )
        self.expected = PROTOCOL_VERSION
        self.got = got


class BodyError(ProtocolError):
    """A body that does not fit its message: ``path: problem``."""

    def __init__(self, path: str, problem: str):
        super().__init__(400, f"{path}: {problem}" if path else problem)
        self.path = path
        self.problem = problem


def check_version(data: Mapping) -> None:
    """Raise :class:`VersionMismatchError` unless ``data`` carries ours."""
    got = data.get("protocol_version") if isinstance(data, Mapping) else None
    if got != PROTOCOL_VERSION:
        raise VersionMismatchError(got)


def _require(ok: bool, path: str, problem: str) -> None:
    if not ok:
        raise BodyError(path, problem)


def _join(prefix: str, path: str) -> str:
    if not prefix or not path:
        return prefix or path
    return prefix + path if path.startswith("[") else f"{prefix}.{path}"


#: Field metadata: encode the nested message into its parent's object.
INLINE = {"inline": True}


class _Field(NamedTuple):
    name: str
    encode: Callable[[Any], Any]
    decode: Callable[[Any, str], Any]
    required: bool
    inline: bool


def _typed(accepts: tuple, name: str) -> Callable[[Any, str], Any]:
    """A decoder admitting ``accepts`` (``bool`` only where named)."""

    def decode(value, path):
        if isinstance(value, accepts) and (
            bool in accepts or not isinstance(value, bool)
        ):
            return value
        raise BodyError(path, f"expected {name}")

    return decode


def _identity(value):
    return value


_SCALARS = {
    str: _typed((str,), "str"),
    int: _typed((int,), "int"),
    float: _typed((int, float), "float"),
    bool: _typed((bool,), "bool"),
    dict: _typed((dict,), "object"),
}
_expect_list = _typed((list,), "array")
_expect_object = _SCALARS[dict]


def _codec(hint) -> tuple[Callable, Callable]:
    """``(encode, decode)`` for one field type hint."""
    if hint in _SCALARS:
        return _identity, _SCALARS[hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        enc, dec = _codec(inner)
        return enc, (
            lambda value, path: None if value is None else dec(value, path)
        )
    if origin is tuple:
        enc, dec = _codec(args[0])
        return (
            lambda value: [enc(item) for item in value],
            lambda value, path: tuple(
                dec(item, f"{path}[{i}]")
                for i, item in enumerate(_expect_list(value, path))
            ),
        )
    if hint in (SimSpec, RunStats):

        def dec(value, path):
            data = _expect_object(value, path)
            try:
                return hint.from_dict(data)
            except Exception as exc:  # from_dict's own failure modes
                raise BodyError(
                    path, f"invalid {hint.__name__}: {exc!r}"
                ) from None

        return hint.to_dict, dec
    if dataclasses.is_dataclass(hint):
        return _encode_fields, functools.partial(_decode_fields, hint)
    raise TypeError(f"no wire codec for {hint!r}")


@functools.cache
def _plan(cls) -> tuple[_Field, ...]:
    hints = typing.get_type_hints(cls)
    return tuple(
        _Field(
            spec.name,
            *_codec(hints[spec.name]),
            required=(
                spec.default is dataclasses.MISSING
                and spec.default_factory is dataclasses.MISSING
            ),
            inline=spec.metadata.get("inline", False),
        )
        for spec in dataclasses.fields(cls)
    )


def _encode_fields(msg) -> dict:
    body: dict = {}
    for fld in _plan(type(msg)):
        value = getattr(msg, fld.name)
        if value is None:
            continue
        if fld.inline:
            body.update(fld.encode(value))
        else:
            body[fld.name] = fld.encode(value)
    return body


def _decode_fields(cls, data, path: str = ""):
    _expect_object(data, path)
    values = {}
    for fld in _plan(cls):
        if fld.inline:
            values[fld.name] = fld.decode(data, path)
        elif fld.name in data:
            values[fld.name] = fld.decode(
                data[fld.name], _join(path, fld.name)
            )
        elif fld.required:
            raise BodyError(_join(path, fld.name), "missing")
    try:
        return cls(**values)
    except BodyError as exc:  # a __post_init__ rule, relative to cls
        raise BodyError(_join(path, exc.path), exc.problem) from None


def encode(msg) -> dict:
    """The JSON object for one message, stamped with ``protocol_version``."""
    body = _encode_fields(msg)
    if isinstance(msg, ErrorBody):
        body = {"error": body}
    body["protocol_version"] = PROTOCOL_VERSION
    return body


def decode(cls, data):
    """Parse and validate one message body; raises :class:`ProtocolError`."""
    _expect_object(data, "")
    check_version(data)
    return _decode_fields(cls, data)


@dataclass(frozen=True)
class ErrorBody:
    """Structured error payload: ``{"error": {...}, "protocol_version"}``.

    ``kind`` carries either a transport-level condition (``bad_request``,
    ``queue_full``, ``protocol_mismatch``, ``unknown_job``,
    ``unknown_lease``, ``unknown_artifact``, ``internal``) or — inside
    job results — a PR-5 cell failure kind ("error" | "timeout" |
    "crash" | "stall" | "deadlock" | "worker_lost").
    """

    kind: str
    message: str
    retry_after_s: Optional[float] = None
    pending: Optional[int] = None
    limit: Optional[int] = None
    expected_version: Optional[int] = None
    got_version: Optional[int] = None

    @classmethod
    def from_dict(cls, data: Mapping) -> "ErrorBody":
        """Lenient, version-free parse: never raises.

        A mismatch report must be readable by the very peer it rejects,
        so this is the one body :func:`decode` does not handle.
        """
        error = data.get("error", {}) if isinstance(data, Mapping) else {}
        if not isinstance(error, Mapping):
            error = {}
        return cls(
            kind=str(error.get("kind", "error")),
            message=str(error.get("message", data)),
            **{
                fld.name: error.get(fld.name)
                for fld in _plan(cls)
                if not fld.required
            },
        )


@dataclass(frozen=True)
class SubmitRequest:
    """``POST /jobs`` body: one tenant's grid of spec cells."""

    specs: tuple[SimSpec, ...]
    tenant: Optional[str] = None  # None: fall back to header/default


@dataclass(frozen=True)
class JobSnapshot:
    """One job's status: per-state counts, health, optional cell detail."""

    job_id: str
    tenant: str
    state: str  # "running" | "done"
    cells: int
    queued: int
    running: int
    done: int
    failed: int
    cached: int
    deduped: int
    simulated: int
    failure_kinds: dict
    created_at: float
    elapsed_s: float
    cells_detail: Optional[tuple[dict, ...]] = None

    @classmethod
    def from_job(cls, job, detail: bool = False) -> "JobSnapshot":
        """Snapshot a live :class:`~repro.serve.scheduler.Job`."""
        data = job.snapshot(detail=detail)
        rows = data.pop("cells_detail", None)
        return cls(**data, cells_detail=None if rows is None else tuple(rows))


@dataclass(frozen=True)
class CellResultWire:
    """One delivered cell inside a :class:`JobResults` body."""

    index: int
    spec: SimSpec
    spec_hash: str
    stats: RunStats
    origin: Optional[str] = None


@dataclass(frozen=True)
class CellFailureWire:
    """One failed cell inside a :class:`JobResults` body."""

    index: int
    spec: SimSpec
    spec_hash: str
    error: dict  # {"kind", "message", "attempts"} — PR-5 failure kinds


@dataclass(frozen=True)
class JobResults:
    """``GET /jobs/<id>/results`` body: snapshot + stats + failures."""

    snapshot: JobSnapshot = field(metadata=INLINE)
    results: tuple[CellResultWire, ...]
    failures: tuple[CellFailureWire, ...]

    @classmethod
    def from_job(cls, job) -> "JobResults":
        results = []
        failures = []
        for cell in job.cells:
            if cell.state == "done" and cell.stats is not None:
                results.append(CellResultWire(
                    index=cell.index,
                    spec=cell.spec,
                    spec_hash=cell.spec_hash,
                    stats=cell.stats,
                    origin=cell.origin,
                ))
            elif cell.state == "failed":
                failures.append(CellFailureWire(
                    index=cell.index,
                    spec=cell.spec,
                    spec_hash=cell.spec_hash,
                    error=dict(cell.error or {}),
                ))
        return cls(
            snapshot=JobSnapshot.from_job(job),
            results=tuple(results),
            failures=tuple(failures),
        )


@dataclass(frozen=True)
class LeaseRequest:
    """``POST /leases`` body: a worker asking for a batch of cells."""

    worker_id: str
    max_cells: int = 4

    def __post_init__(self):
        _require(self.worker_id != "", "worker_id", "must be non-empty")
        _require(self.max_cells >= 1, "max_cells", "must be >= 1")


@dataclass(frozen=True)
class LeaseCell:
    """One leased cell: the spec to execute plus its book-keeping."""

    spec: SimSpec
    spec_hash: str
    tenant: str
    attempt: int  # 1-based count of workers this cell has been leased to


@dataclass(frozen=True)
class LeaseGrant:
    """``POST /leases`` response: a batch of cells + lease token + TTL.

    An empty grant (``lease_id == ""``, no cells) means no work was
    queued; the worker should poll again after ``retry_after_s``.
    """

    lease_id: str
    token: str
    ttl_s: float
    cells: tuple[LeaseCell, ...]
    retry_after_s: float = 0.0

    @property
    def is_empty(self) -> bool:
        return not self.cells


@dataclass(frozen=True)
class HeartbeatRequest:
    """``POST /leases/<id>/heartbeat`` body: extend the lease TTL."""

    token: str

    def __post_init__(self):
        _require(self.token != "", "token", "must be non-empty")


@dataclass(frozen=True)
class HeartbeatAck:
    """Heartbeat response: the renewed deadline and remaining cells."""

    lease_id: str
    ttl_s: float
    expires_in_s: float
    cells_outstanding: int


@dataclass(frozen=True)
class CellOutcome:
    """One executed cell pushed back by a worker: stats or a failure."""

    spec_hash: str
    stats: Optional[RunStats] = None
    error: Optional[dict] = None  # {"kind", "message", "attempts"}
    simulated: bool = True  # False: served from a worker-side cache

    def __post_init__(self):
        _require(
            (self.stats is None) != (self.error is None),
            "", "carries exactly one of 'stats' or 'error'",
        )
        if self.error is not None:
            for key in ("kind", "message"):
                _require(
                    isinstance(self.error.get(key), str),
                    f"error.{key}", "expected str",
                )


@dataclass(frozen=True)
class ResultPush:
    """``POST /leases/<id>/results`` body: completed cells of a lease."""

    token: str
    outcomes: tuple[CellOutcome, ...]
    worker_id: str = ""


@dataclass(frozen=True)
class LeaseRelease:
    """``POST /leases/<id>/release`` body: give unstarted cells back.

    A draining worker's graceful counterpart to lease expiry: the named
    cells requeue immediately (no TTL wait) and the grant's charge
    against their retry budget is refunded.  An empty ``spec_hashes``
    releases every remaining cell of the lease.
    """

    token: str
    spec_hashes: tuple[str, ...] = ()

    def __post_init__(self):
        _require(self.token != "", "token", "must be non-empty")


@dataclass(frozen=True)
class ReleaseAck:
    """Release response: cells requeued, and whether the lease survives."""

    released: int
    lease_open: bool


@dataclass(frozen=True)
class ResultAck:
    """Result-push response.

    ``accepted`` cells resolved a pending execution; ``stale`` cells
    were already resolved elsewhere (a reaped lease's worker pushing
    late, or a duplicate push) and were discarded.  ``lease_open`` is
    False once the head no longer tracks the lease — the worker should
    stop executing that batch, its remaining cells have been requeued.
    """

    accepted: int
    stale: int
    lease_open: bool
