"""Async HTTP/JSON front end for the sweep service.

``python -m repro serve`` boots one :class:`SweepServer` over a
:class:`~repro.serve.scheduler.JobStore`.  The surface is deliberately
small and stdlib-only:

==============================  ================================================
``GET  /healthz``               liveness + role, pool state, protocol version
``GET  /stats``                 store-wide counters (dedup, cache, leases)
``POST /jobs``                  submit a grid (:class:`SubmitRequest`)
                                -> 202 :class:`JobSnapshot`, or 429 + Retry-After
``GET  /jobs/<id>``             job status snapshot (per-cell states, health)
``GET  /jobs/<id>/events``      NDJSON stream: replay + follow until job end
``GET  /jobs/<id>/results``     delivered stats + structured failures
``GET  /cells/<hash>``          the raw cached artifact for one spec hash
``POST /leases``                worker pull (:class:`LeaseRequest`) -> 201
                                :class:`LeaseGrant` (200 + empty grant if idle)
``POST /leases/<id>/heartbeat`` extend the lease -> :class:`HeartbeatAck`
``POST /leases/<id>/results``   push outcomes (:class:`ResultPush`) ->
                                :class:`ResultAck`
``POST /leases/<id>/release``   drain: give unstarted cells back
                                (:class:`LeaseRelease`) -> :class:`ReleaseAck`
==============================  ================================================

Request/response bodies are the frozen dataclasses of
:mod:`repro.serve.protocol`, each stamped with ``protocol_version``; a
submission or lease call from a different protocol revision is rejected
with a structured 400 ``protocol_mismatch`` error so head/worker skew
fails loudly, and any other malformed body with a 400 ``bad_request``
naming the offending field.  Submissions go through the
:func:`repro.api.submit` facade — the server is just HTTP framing
around it.  Tenants identify themselves via the ``"tenant"`` body field
or the ``X-Repro-Tenant`` header; there is no authentication (the
service is a lab-cluster tool, bind it accordingly).

Error responses are :class:`~repro.serve.protocol.ErrorBody` JSON::

    {"error": {"kind": "queue_full", "message": "...", "retry_after_s": 2.0},
     "protocol_version": 1}

with cell-level failures inside job results carrying the PR-5
``CellFailure`` kinds ("error" | "timeout" | "crash" | "stall" |
"deadlock" | "worker_lost").
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from typing import Callable, Optional

from repro import api
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ErrorBody,
    HeartbeatAck,
    HeartbeatRequest,
    LeaseCell,
    LeaseGrant,
    LeaseRelease,
    LeaseRequest,
    JobResults,
    JobSnapshot,
    ProtocolError,
    ReleaseAck,
    Request,
    ResultAck,
    ResultPush,
    SubmitRequest,
    VersionMismatchError,
    decode,
    encode,
    read_request,
    render_response,
    render_stream_head,
)
from repro.serve.scheduler import (
    JobStore,
    QueueFullError,
    UnknownLeaseError,
)

SERVER_NAME = "repro-serve/1"

#: Poll hint handed to workers when the queues are empty.
IDLE_RETRY_S = 0.5


def _json_body(obj: dict) -> bytes:
    return (json.dumps(obj) + "\n").encode("utf-8")


def _error_body(kind: str, message: str, **extra) -> bytes:
    return _json_body(encode(ErrorBody(kind=kind, message=message, **extra)))


class SweepServer:
    """One asyncio HTTP server bound to one job store."""

    def __init__(
        self, store: JobStore, host: str = "127.0.0.1", port: int = 0
    ):
        self.store = store
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> int:
        """Bind and listen; returns the actual port (useful with port 0)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except ProtocolError as exc:
                writer.write(render_response(
                    exc.status, _error_body("bad_request", exc.message)
                ))
            except asyncio.IncompleteReadError:
                request = None
            else:
                if request is not None:
                    await self._dispatch(request, writer)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as exc:  # never let a handler kill the server
            with contextlib.suppress(Exception):
                writer.write(render_response(
                    500,
                    _error_body(
                        "internal", f"{type(exc).__name__}: {exc}"
                    ),
                ))
                await writer.drain()
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        segments = request.segments
        if segments == ["healthz"] and request.method == "GET":
            return self._reply(writer, 200, self._health())
        if segments == ["stats"] and request.method == "GET":
            return self._reply(writer, 200, self.store.stats_dict())
        if segments == ["jobs"]:
            if request.method != "POST":
                return self._method_not_allowed(writer, "POST")
            return await self._submit(request, writer)
        if len(segments) >= 2 and segments[0] == "jobs":
            if request.method != "GET":
                return self._method_not_allowed(writer, "GET")
            return await self._job_route(request, writer, segments)
        if (
            len(segments) == 2
            and segments[0] == "cells"
            and request.method == "GET"
        ):
            return self._artifact(writer, segments[1])
        if segments and segments[0] == "leases":
            if request.method != "POST":
                return self._method_not_allowed(writer, "POST")
            return self._lease_route(request, writer, segments)
        writer.write(render_response(
            404, _error_body("not_found", f"no route for {request.path}")
        ))

    def _reply(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        obj,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        """Send ``obj``: a plain dict as is, a wire message encoded."""
        writer.write(render_response(
            status,
            _json_body(obj if isinstance(obj, dict) else encode(obj)),
            extra_headers=(("Server", SERVER_NAME),) + extra_headers,
        ))

    def _method_not_allowed(
        self, writer: asyncio.StreamWriter, allowed: str
    ) -> None:
        writer.write(render_response(
            405,
            _error_body("method_not_allowed", f"use {allowed}"),
            extra_headers=(("Allow", allowed),),
        ))

    def _parse_body(self, request: Request, message_cls):
        """Parse + validate a typed request body.

        Returns ``(message, None)``, or ``(None, error)`` with the
        structured 400 body: ``protocol_mismatch`` for version skew,
        ``bad_request`` for anything else malformed.
        """
        try:
            return decode(message_cls, json.loads(request.body or b"{}")), None
        except VersionMismatchError as exc:
            return None, ErrorBody(
                kind="protocol_mismatch",
                message=exc.message,
                expected_version=exc.expected,
                got_version=exc.got if isinstance(exc.got, int) else None,
            )
        except ValueError as exc:  # a BodyError, or JSON that won't parse
            return None, ErrorBody(
                kind="bad_request",
                message=f"invalid {message_cls.__name__} body: {exc}",
            )

    # -- endpoints -------------------------------------------------------------

    def _health(self) -> dict:
        return {
            "status": "ok",
            "server": SERVER_NAME,
            "protocol_version": PROTOCOL_VERSION,
            "role": "head" if self.store.workers == 0 else "head+local",
            "workers": self.store.workers,
            "executor": self.store.executor_kind,
            "pending_cells": self.store.pending_cells,
            "max_pending": self.store.max_pending,
            "leases_open": len(self.store._leases),
        }

    async def _submit(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        submit, error = self._parse_body(request, SubmitRequest)
        if submit is None:
            return self._reply(writer, 400, error)
        tenant = (
            submit.tenant
            or request.headers.get("x-repro-tenant")
            or "default"
        )
        try:
            job = await api.submit(
                list(submit.specs), tenant=tenant, store=self.store
            )
        except QueueFullError as exc:
            busy = ErrorBody(
                kind="queue_full",
                message=str(exc),
                pending=exc.pending,
                limit=exc.limit,
                retry_after_s=exc.retry_after_s,
            )
            return self._reply(
                writer,
                429,
                busy,
                extra_headers=(
                    ("Retry-After", f"{max(1, round(exc.retry_after_s))}"),
                ),
            )
        self._reply(writer, 202, JobSnapshot.from_job(job))

    async def _job_route(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        segments: list[str],
    ) -> None:
        job = self.store.get_job(segments[1])
        if job is None:
            return self._reply(writer, 404, ErrorBody(
                kind="unknown_job", message=f"no job {segments[1]!r}"
            ))
        tail = segments[2:]
        if tail == []:
            detail = request.query.get("detail", ["1"])[0] != "0"
            snapshot = JobSnapshot.from_job(job, detail=detail)
            return self._reply(writer, 200, snapshot)
        if tail == ["results"]:
            return self._reply(writer, 200, JobResults.from_job(job))
        if tail == ["events"]:
            writer.write(render_stream_head(
                extra_headers=(("Server", SERVER_NAME),)
            ))
            await writer.drain()
            async for event in job.events():
                writer.write(_json_body(event))
                await writer.drain()
            return
        self._reply(writer, 404, ErrorBody(
            kind="not_found", message=f"no job route {'/'.join(tail)!r}"
        ))

    def _artifact(self, writer: asyncio.StreamWriter, spec_hash: str) -> None:
        cache = self.store.cache
        artifact = (
            cache.read_artifact(spec_hash) if cache is not None else None
        )
        if artifact is None:
            return self._reply(writer, 404, ErrorBody(
                kind="unknown_artifact",
                message=(
                    "result cache disabled" if cache is None
                    else f"no artifact for {spec_hash!r}"
                ),
            ))
        self._reply(writer, 200, artifact)

    # -- lease endpoints -------------------------------------------------------

    def _lease_route(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        segments: list[str],
    ) -> None:
        if segments == ["leases"]:
            return self._grant(request, writer)
        if len(segments) == 3 and segments[2] == "heartbeat":
            return self._heartbeat(request, writer, segments[1])
        if len(segments) == 3 and segments[2] == "results":
            return self._push_results(request, writer, segments[1])
        if len(segments) == 3 and segments[2] == "release":
            return self._release(request, writer, segments[1])
        self._reply(writer, 404, ErrorBody(
            kind="not_found", message=f"no lease route {request.path!r}"
        ))

    def _grant(self, request: Request, writer: asyncio.StreamWriter) -> None:
        ask, error = self._parse_body(request, LeaseRequest)
        if ask is None:
            return self._reply(writer, 400, error)
        lease = self.store.grant_lease(ask.worker_id, ask.max_cells)
        if lease is None:
            empty = LeaseGrant(
                lease_id="", token="", ttl_s=self.store.lease_ttl_s,
                cells=(), retry_after_s=IDLE_RETRY_S,
            )
            return self._reply(writer, 200, empty)
        grant = LeaseGrant(
            lease_id=lease.lease_id,
            token=lease.token,
            ttl_s=lease.ttl_s,
            cells=tuple(
                LeaseCell(
                    spec=entry.spec,
                    spec_hash=entry.spec_hash,
                    tenant=entry.tenant,
                    attempt=entry.worker_attempts,
                )
                for entry in lease.entries.values()
            ),
        )
        self._reply(writer, 201, grant)

    def _heartbeat(
        self, request: Request, writer: asyncio.StreamWriter, lease_id: str
    ) -> None:
        beat, error = self._parse_body(request, HeartbeatRequest)
        if beat is None:
            return self._reply(writer, 400, error)
        try:
            lease = self.store.heartbeat(lease_id, beat.token)
        except UnknownLeaseError as exc:
            return self._reply(writer, 404, ErrorBody(
                kind="unknown_lease", message=str(exc)
            ))
        ack = HeartbeatAck(
            lease_id=lease.lease_id,
            ttl_s=lease.ttl_s,
            expires_in_s=max(0.0, lease.deadline - time.monotonic()),
            cells_outstanding=len(lease.entries),
        )
        self._reply(writer, 200, ack)

    def _push_results(
        self, request: Request, writer: asyncio.StreamWriter, lease_id: str
    ) -> None:
        push, error = self._parse_body(request, ResultPush)
        if push is None:
            return self._reply(writer, 400, error)
        try:
            outcome = self.store.push_results(
                lease_id, push.token, push.outcomes, worker_id=push.worker_id
            )
        except UnknownLeaseError as exc:
            return self._reply(writer, 404, ErrorBody(
                kind="unknown_lease", message=str(exc)
            ))
        self._reply(writer, 200, ResultAck(**outcome))

    def _release(
        self, request: Request, writer: asyncio.StreamWriter, lease_id: str
    ) -> None:
        release, error = self._parse_body(request, LeaseRelease)
        if release is None:
            return self._reply(writer, 400, error)
        try:
            outcome = self.store.release_cells(
                lease_id,
                release.token,
                spec_hashes=release.spec_hashes or None,
            )
        except UnknownLeaseError as exc:
            return self._reply(writer, 404, ErrorBody(
                kind="unknown_lease", message=str(exc)
            ))
        self._reply(writer, 200, ReleaseAck(**outcome))


async def serve_forever(
    store: JobStore,
    host: str = "127.0.0.1",
    port: int = 8731,
    ready: Optional[Callable[[int], None]] = None,
) -> None:
    """Start the store and server, then run until cancelled (CLI body)."""
    await store.start()
    server = SweepServer(store, host, port)
    bound_port = await server.start()
    if ready is not None:
        ready(bound_port)
    try:
        await asyncio.Event().wait()
    finally:
        await server.close()
        await store.close()
