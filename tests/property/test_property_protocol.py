"""Property-based tests: the sweep service's wire codec.

For every message class of :mod:`repro.serve.protocol`:

* ``decode(cls, encode(m)) == m`` across a JSON round trip, and the body
  is stamped with ``protocol_version``;
* dropping any required field of a valid body — nested ones included —
  fails with a :class:`ProtocolError` subclass;
* retyping any field of a valid body fails the same way;
* arbitrary JSON spliced anywhere into a valid body, or sent in place
  of it, either decodes or fails with a :class:`ProtocolError` subclass:
  nothing else escapes, so the server's answer is always a 400.

:class:`ErrorBody` is the documented exception: its lenient parser reads
back what :func:`encode` wrote and never raises at all.
"""

import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments.config import ExperimentScale
from repro.experiments.spec import SimSpec
from repro.serve import protocol
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    CellFailureWire,
    CellOutcome,
    CellResultWire,
    ErrorBody,
    HeartbeatAck,
    HeartbeatRequest,
    JobResults,
    JobSnapshot,
    LeaseCell,
    LeaseGrant,
    LeaseRelease,
    LeaseRequest,
    ProtocolError,
    ReleaseAck,
    Request,
    ResultAck,
    ResultPush,
    SubmitRequest,
    VersionMismatchError,
    decode,
    encode,
)

TINY = ExperimentScale(name="tiny", refs_per_cpu=50)

#: Every message the codec handles (ErrorBody has its own parser).
MESSAGES = (
    SubmitRequest, JobSnapshot, JobResults, CellResultWire,
    CellFailureWire, LeaseRequest, LeaseCell, LeaseGrant,
    HeartbeatRequest, HeartbeatAck, CellOutcome, ResultPush,
    LeaseRelease, ReleaseAck, ResultAck,
)

# -- strategies ----------------------------------------------------------------

names = st.text("abcdef0123456789-", min_size=1, max_size=10)
texts = st.text(max_size=10)
counts = st.integers(0, 10**6)
reals = st.floats(0, 1e6, allow_nan=False)
json_scalars = (
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | texts
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(texts, inner, max_size=3)
    ),
    max_leaves=6,
)
specs = st.builds(
    lambda scheme, benchmark, seed: SimSpec.make(
        scheme, benchmark, scale=TINY, seed=seed
    ),
    st.sampled_from(list(Scheme)),
    st.sampled_from(("art", "swim", "mgrid")),
    st.integers(0, 1000),
)
run_stats = st.builds(
    lambda scheme, latency, hits, ipc: RunStats(
        scheme=scheme,
        avg_l2_hit_latency=latency,
        avg_l2_miss_latency=latency * 4,
        l2_hits=hits,
        l2_misses=hits // 5,
        migrations=hits // 7,
        ipc=ipc,
        per_cpu_ipc=[ipc] * 8,
        l1_miss_rate=0.1,
        flit_hops=100.0,
        bus_flits=10.0,
        invalidations=0,
        instructions=1000.0,
        cycles=2000.0,
    ),
    st.sampled_from(list(Scheme)), reals, counts, reals,
)
cell_errors = st.fixed_dictionaries({
    "kind": texts, "message": texts, "attempts": st.integers(1, 5),
})

BY_TYPE = {
    str: texts,
    int: counts,
    float: reals,
    bool: st.booleans(),
    dict: st.dictionaries(texts, json_scalars, max_size=3),
    SimSpec: specs,
    RunStats: run_stats,
}

#: Fields whose ``__post_init__`` rules narrow the plain type.
FIELD_OVERRIDES = {
    (LeaseRequest, "worker_id"): names,
    (LeaseRequest, "max_cells"): st.integers(1, 64),
    (HeartbeatRequest, "token"): names,
    (LeaseRelease, "token"): names,
}
CLASS_OVERRIDES = {
    CellOutcome: st.one_of(
        st.builds(
            CellOutcome, spec_hash=texts, stats=run_stats,
            simulated=st.booleans(),
        ),
        st.builds(
            CellOutcome, spec_hash=texts, error=cell_errors,
            simulated=st.booleans(),
        ),
    ),
}


def _optional_inner(hint):
    """``T`` for ``Optional[T]``, else None."""
    if typing.get_origin(hint) is typing.Union:
        (inner,) = [a for a in typing.get_args(hint) if a is not type(None)]
        return inner
    return None


def strategy_for(hint):
    inner = _optional_inner(hint)
    if inner is not None:
        return st.none() | strategy_for(inner)
    if typing.get_origin(hint) is tuple:
        item = strategy_for(typing.get_args(hint)[0])
        return st.lists(item, max_size=3).map(tuple)
    if hint in BY_TYPE:
        return BY_TYPE[hint]
    return message_strategy(hint)


def message_strategy(cls):
    if cls in CLASS_OVERRIDES:
        return CLASS_OVERRIDES[cls]
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{
        fld.name: FIELD_OVERRIDES[cls, fld.name]
        if (cls, fld.name) in FIELD_OVERRIDES
        else strategy_for(hints[fld.name])
        for fld in dataclasses.fields(cls)
    })


def wire(body: dict) -> dict:
    """What the peer receives: the body through real JSON."""
    return json.loads(json.dumps(body))


def valid_body(data) -> tuple[type, object, dict]:
    cls = data.draw(st.sampled_from(MESSAGES), label="cls")
    message = data.draw(message_strategy(cls), label="message")
    return cls, message, wire(encode(message))


# -- walking a body by its message's fields ------------------------------------


def _is_message(hint) -> bool:
    return dataclasses.is_dataclass(hint) and hint not in BY_TYPE


def field_slots(cls, body: dict):
    """``(container, key, hint, required)`` for every field of ``body``,
    recursing into nested messages (inline ones share ``body``)."""
    hints = typing.get_type_hints(cls)
    for fld in dataclasses.fields(cls):
        hint = hints[fld.name]
        if fld.metadata.get("inline"):
            yield from field_slots(hint, body)
            continue
        required = (
            fld.default is dataclasses.MISSING
            and fld.default_factory is dataclasses.MISSING
        )
        yield body, fld.name, hint, required
        value = body.get(fld.name)
        inner = _optional_inner(hint) or hint
        if _is_message(inner) and isinstance(value, dict):
            yield from field_slots(inner, value)
        elif typing.get_origin(inner) is tuple:
            item = typing.get_args(inner)[0]
            if _is_message(item):
                for element in value or ():
                    yield from field_slots(item, element)


def fits(hint, value) -> bool:
    """Whether a JSON value has the right shape for ``hint`` at all."""
    inner = _optional_inner(hint)
    if inner is not None:
        return value is None or fits(inner, value)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list)
    if hint in (str, bool):
        return isinstance(value, hint)
    if isinstance(value, bool):
        return False  # never an int or a float on the wire
    if hint is float:
        return isinstance(value, (int, float))
    if hint is int:
        return isinstance(value, int)
    return isinstance(value, dict)  # dict, SimSpec, RunStats, messages


WRONG_TYPES = (7, 2.5, True, "x", [], {}, None)


def all_dicts(value):
    """Every JSON object inside ``value``, ``value`` included."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from all_dicts(item)
    elif isinstance(value, list):
        for item in value:
            yield from all_dicts(item)


# -- properties ----------------------------------------------------------------


def test_every_message_class_is_covered():
    declared = {
        obj for obj in vars(protocol).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == protocol.__name__
    }
    assert declared == set(MESSAGES) | {ErrorBody, Request}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_round_trip(data):
    cls, message, body = valid_body(data)
    assert body["protocol_version"] == PROTOCOL_VERSION
    assert decode(cls, body) == message


@settings(max_examples=60, deadline=None)
@given(message_strategy(ErrorBody), json_values)
def test_error_body_parser_is_lenient(body, junk):
    assert ErrorBody.from_dict(wire(encode(body))) == body
    assert isinstance(ErrorBody.from_dict(junk), ErrorBody)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dropping_a_required_field_fails(data):
    cls, _, body = valid_body(data)
    required = [(body, "protocol_version")] + [
        (container, key)
        for container, key, _, needed in field_slots(cls, body)
        if needed
    ]
    container, key = data.draw(st.sampled_from(required), label="drop")
    del container[key]
    with pytest.raises(ProtocolError):
        decode(cls, body)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_retyping_any_field_fails(data):
    cls, _, body = valid_body(data)
    container, key, hint, _ = data.draw(
        st.sampled_from(list(field_slots(cls, body))), label="slot"
    )
    container[key] = data.draw(st.sampled_from(
        [value for value in WRONG_TYPES if not fits(hint, value)]
    ), label="wrong")
    with pytest.raises(ProtocolError):
        decode(cls, body)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_retyping_the_version_is_a_mismatch(data):
    cls, _, body = valid_body(data)
    body["protocol_version"] = data.draw(
        json_values.filter(lambda value: value != PROTOCOL_VERSION)
    )
    with pytest.raises(VersionMismatchError):
        decode(cls, body)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_only_protocol_errors_escape(data):
    cls, _, body = valid_body(data)
    if data.draw(st.booleans(), label="replace whole body"):
        body = data.draw(json_values)
    else:
        target = data.draw(st.sampled_from(list(all_dicts(body))))
        keys = st.sampled_from(sorted(target)) | texts if target else texts
        key = data.draw(keys, label="key")
        target[key] = data.draw(json_values, label="value")
    try:
        decode(cls, body)
    except ProtocolError:
        pass
