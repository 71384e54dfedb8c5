"""Unit tests for the versioned wire messages of the sweep service.

Hand-picked cases of the codec (:func:`~repro.serve.protocol.encode` /
:func:`~repro.serve.protocol.decode`): version stamping and skew
rejection, the ``__post_init__`` rules, and error bodies — the
deliberate exception, parseable by the very peer they reject.  The
generic round-trip, missing-field and wrong-type properties over every
message class live in ``tests/property/test_property_protocol.py``.
"""

import re

import pytest

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments.config import ExperimentScale
from repro.experiments.spec import SimSpec
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    BodyError,
    CellOutcome,
    ErrorBody,
    HeartbeatAck,
    HeartbeatRequest,
    LeaseCell,
    LeaseGrant,
    LeaseRequest,
    ProtocolError,
    ResultAck,
    ResultPush,
    SubmitRequest,
    VersionMismatchError,
    check_version,
    decode,
    encode,
)

TINY = ExperimentScale(name="tiny", refs_per_cpu=50)


def make_spec(benchmark="art") -> SimSpec:
    return SimSpec.make(Scheme.CMP_DNUCA_3D, benchmark, scale=TINY)


def make_stats(spec: SimSpec) -> RunStats:
    return RunStats(
        scheme=spec.scheme,
        avg_l2_hit_latency=42.0,
        avg_l2_miss_latency=300.0,
        l2_hits=10,
        l2_misses=2,
        migrations=1,
        ipc=0.5,
        per_cpu_ipc=[0.5] * 8,
        l1_miss_rate=0.1,
        flit_hops=100.0,
        bus_flits=10.0,
        invalidations=0,
        instructions=1000.0,
        cycles=2000.0,
    )


class TestVersioning:
    def test_every_message_is_stamped(self):
        spec = make_spec()
        messages = [
            SubmitRequest(specs=(spec,), tenant="t"),
            LeaseRequest(worker_id="w1"),
            HeartbeatRequest(token="tok"),
            HeartbeatAck(
                lease_id="l1", ttl_s=15.0,
                expires_in_s=10.0, cells_outstanding=2,
            ),
            ResultPush(token="tok", outcomes=(), worker_id="w1"),
            ResultAck(accepted=1, stale=0, lease_open=True),
            ErrorBody(kind="bad_request", message="nope"),
            LeaseGrant(lease_id="l1", token="tok", ttl_s=15.0, cells=()),
        ]
        for message in messages:
            assert encode(message)["protocol_version"] == PROTOCOL_VERSION

    def test_check_version_rejects_missing_and_wrong(self):
        check_version({"protocol_version": PROTOCOL_VERSION})
        for bad in ({}, {"protocol_version": PROTOCOL_VERSION + 1},
                    {"protocol_version": "1"}, "not-a-mapping"):
            with pytest.raises(VersionMismatchError) as excinfo:
                check_version(bad)
            assert excinfo.value.expected == PROTOCOL_VERSION
            assert excinfo.value.status == 400

    def test_requests_reject_version_skew(self):
        spec = make_spec()
        messages = [
            SubmitRequest(specs=(spec,)),
            LeaseRequest(worker_id="w"),
            HeartbeatRequest(token="t"),
            ResultPush(token="t", outcomes=()),
        ]
        for message in messages:
            payload = encode(message)
            cls = type(message)
            assert decode(cls, payload) == message  # current version parses
            payload["protocol_version"] = PROTOCOL_VERSION + 1
            with pytest.raises(VersionMismatchError):
                decode(cls, payload)

    def test_error_body_parses_without_version(self):
        # The one deliberate exception: a peer rejected for version skew
        # must still be able to read the rejection.
        parsed = ErrorBody.from_dict({"error": {
            "kind": "protocol_mismatch", "message": "skew",
            "expected_version": PROTOCOL_VERSION, "got_version": 99,
        }})
        assert parsed.kind == "protocol_mismatch"
        assert parsed.expected_version == PROTOCOL_VERSION
        assert parsed.got_version == 99


class TestRoundTrips:
    def test_submit_request(self):
        request = SubmitRequest(
            specs=(make_spec(), make_spec("swim")), tenant="lab",
        )
        parsed = decode(SubmitRequest, encode(request))
        assert parsed == request

    def test_submit_request_validates_specs(self):
        cases = [
            ({"specs": "nope"}, "specs: expected array"),
            ({"specs": ["x"]}, "specs[0]: expected object"),
            ({"specs": [{"benchmark": "art"}]}, "specs[0]: invalid SimSpec"),
            ({"specs": [], "tenant": 7}, "tenant: expected str"),
        ]
        for body, message in cases:
            with pytest.raises(BodyError, match=re.escape(message)):
                decode(SubmitRequest, {
                    "protocol_version": PROTOCOL_VERSION, **body,
                })

    def test_lease_grant_with_cells(self):
        spec = make_spec()
        grant = LeaseGrant(
            lease_id="l000001-abc", token="deadbeef", ttl_s=15.0,
            cells=(LeaseCell(
                spec=spec, spec_hash=spec.spec_hash(),
                tenant="lab", attempt=2,
            ),),
        )
        parsed = decode(LeaseGrant, encode(grant))
        assert parsed == grant
        assert not parsed.is_empty
        assert parsed.cells[0].attempt == 2

    def test_empty_grant(self):
        grant = LeaseGrant(
            lease_id="", token="", ttl_s=15.0, cells=(), retry_after_s=0.5,
        )
        parsed = decode(LeaseGrant, encode(grant))
        assert parsed.is_empty
        assert parsed.retry_after_s == 0.5

    def test_lease_request_validation(self):
        cases = [
            ({"worker_id": ""}, "worker_id: must be non-empty"),
            ({"worker_id": 3}, "worker_id: expected str"),
            ({"worker_id": "w", "max_cells": 0}, "max_cells: must be >= 1"),
            ({"worker_id": "w", "max_cells": True}, "max_cells: expected int"),
            ({}, "worker_id: missing"),
        ]
        for body, message in cases:
            with pytest.raises(BodyError, match=message):
                decode(LeaseRequest, {
                    "protocol_version": PROTOCOL_VERSION, **body,
                })
        with pytest.raises(ProtocolError):  # built in process, too
            LeaseRequest(worker_id="w", max_cells=0)

    def test_result_push_with_outcomes(self):
        spec = make_spec()
        push = ResultPush(
            token="tok",
            worker_id="w1",
            outcomes=(
                CellOutcome(
                    spec_hash=spec.spec_hash(), stats=make_stats(spec),
                ),
                CellOutcome(
                    spec_hash="ffff", simulated=True,
                    error={"kind": "crash", "message": "sig 9",
                           "attempts": 1},
                ),
            ),
        )
        parsed = decode(ResultPush, encode(push))
        assert parsed == push
        assert parsed.outcomes[0].stats.ipc == 0.5
        assert parsed.outcomes[1].error["kind"] == "crash"

    def test_cell_outcome_requires_exactly_one_of_stats_error(self):
        stats = make_stats(make_spec())
        with pytest.raises(BodyError, match="exactly one"):
            CellOutcome(spec_hash="aa")
        with pytest.raises(BodyError, match="exactly one"):
            CellOutcome(
                spec_hash="aa", stats=stats,
                error={"kind": "error", "message": "x"},
            )
        push = encode(ResultPush(
            token="t", outcomes=(CellOutcome(spec_hash="aa", stats=stats),),
        ))
        push["outcomes"][0]["error"] = {"kind": "error", "message": "x"}
        with pytest.raises(BodyError, match=r"outcomes\[0\]: .*exactly one"):
            decode(ResultPush, push)

    def test_cell_error_needs_string_kind_and_message(self):
        push = encode(ResultPush(token="t", outcomes=(
            CellOutcome(spec_hash="aa", error={"kind": "x", "message": "y"}),
        )))
        for error, message in (
            ({}, r"outcomes\[0\]\.error\.kind: expected str"),
            ({"kind": "x"}, r"outcomes\[0\]\.error\.message: expected str"),
            ({"kind": 3, "message": "m"}, r"error\.kind: expected str"),
        ):
            push["outcomes"][0]["error"] = error
            with pytest.raises(BodyError, match=message):
                decode(ResultPush, push)

    def test_error_body_optional_fields_skipped_when_unset(self):
        body = ErrorBody(kind="queue_full", message="full",
                         retry_after_s=2.0, pending=10, limit=10)
        wire = encode(body)
        assert "expected_version" not in wire["error"]
        assert wire["error"]["retry_after_s"] == 2.0
        assert ErrorBody.from_dict(wire) == body
