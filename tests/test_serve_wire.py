"""The wire codec: orjson and the stdlib json decode and encode alike.

Every property decodes the same bytes under both codecs and requires the
same outcome: both reject the body, or both return values equal in type
and in every float's bits.  The service answers a rejected body 400 and
hands an accepted one to the same validation, so equal outcomes mean
equal HTTP statuses (``tests/test_serve_robustness.py`` checks those over
HTTP).
"""

import json
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import wire

ORJSON = wire._orjson
needs_orjson = pytest.mark.skipif(ORJSON is None, reason="orjson is not installed")


def _canonical(value) -> str:
    """A comparable form: ``repr`` keeps a float's bits, ints and floats apart."""
    return json.dumps(value)


def _on_the_wire(value):
    """``value`` as the contract decodes it: an int out of range becomes a float."""
    if isinstance(value, list):
        return [_on_the_wire(v) for v in value]
    if isinstance(value, dict):
        return {k: _on_the_wire(v) for k, v in value.items()}
    if isinstance(value, int) and not isinstance(value, bool):
        return value if -(2**63) <= value <= 2**64 - 1 else float(value)
    return value


def _outcomes(monkeypatch, raw: bytes) -> list:
    """``raw`` decoded by orjson and by the stdlib: a value or ``"error"``."""
    outcomes = []
    for module in (ORJSON, None):
        monkeypatch.setattr(wire, "_orjson", module)
        try:
            outcomes.append(_canonical(wire.decode(raw)))
        except wire.DecodeError:
            outcomes.append("error")
    return outcomes


def _agree(monkeypatch, raw: bytes):
    by_orjson, by_stdlib = _outcomes(monkeypatch, raw)
    assert by_orjson == by_stdlib, raw[:200]
    return by_orjson


def _json_values(integers):
    return st.recursive(
        st.none()
        | st.booleans()
        | integers
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=12),
        lambda children: st.lists(children, max_size=5)
        | st.dictionaries(st.text(max_size=6), children, max_size=5),
        max_leaves=25,
    )


#: JSON values, with integers past orjson's range on both sides.
json_values = _json_values(st.integers(min_value=-(2**70), max_value=2**70))
#: JSON values both encoders write (orjson refuses an int past 64 bits).
encodable_values = _json_values(st.integers(min_value=-(2**63), max_value=2**64 - 1))

#: Inputs on which the two decoders disagreed before the contract: each
#: must fail under both.
HOSTILE = [
    b"NaN",
    b'{"slice": [[NaN]]}',
    b'{"k": Infinity}',
    b"[-Infinity]",
    b"1e400",
    b'{"slice": [[-1e400]]}',
    b"1.7976931348623159e308",
    b"1" + b"0" * 400,
    b"-" + b"9" * 5000,
    b"\xef\xbb\xbf{}",
    '{"index": 0}'.encode("utf-16"),
    '{"index": 0}'.encode("utf-16-le"),
    '{"index": 0}'.encode("utf-16-be"),
    b'"\\ud800"',
    b'{"mode": "\\udc00"}',
    b'["\\ud800\\u0041"]',
    b'"\xed\xa0\x80"',
    b"\xff",
    b"{} x",
    b'{"a": 1,}',
    b"[" * 513 + b"]" * 513,
    b'{"a":' * 513 + b"1" + b"}" * 513,
    b"[" * 200_000,
]

#: Inputs both decoders accept, with the value both must return.
ACCEPTED = [
    (b'{"a": 1, "a": 2}', {"a": 2}),
    (b"18446744073709551615", 2**64 - 1),
    (b"18446744073709551616", 1.8446744073709552e19),
    (b"-9223372036854775808", -(2**63)),
    (b"-9223372036854775809", -9.223372036854776e18),
    (b'{"index": 0, "k": 100000000000000000000000}', {"index": 0, "k": 1e23}),
    (b"1e-400", 0.0),
    (b"-0.0", -0.0),
    (b"-0", 0),
    (b'"\\ud83d\\ude00"', "\U0001f600"),
    (b'"\\\\ud800"', "\\ud800"),
    (b" \t\r\n[1] ", [1]),
    (b"[" * 512 + b"]" * 512, None),
    (json.dumps({"s": "[" * 600 + '"\\' * 300, "t": [[1]]}).encode(), None),
]


class TestDecodeAgreement:
    @needs_orjson
    @pytest.mark.parametrize("raw", HOSTILE, ids=lambda raw: repr(raw[:24]))
    def test_hostile_inputs_fail_under_both(self, raw, monkeypatch):
        assert _outcomes(monkeypatch, raw) == ["error", "error"]

    @pytest.mark.parametrize("raw", HOSTILE, ids=lambda raw: repr(raw[:24]))
    def test_hostile_inputs_fail_under_stdlib(self, raw, monkeypatch):
        monkeypatch.setattr(wire, "_orjson", None)
        with pytest.raises(wire.DecodeError):
            wire.decode(raw)

    @pytest.mark.parametrize("raw, expected", ACCEPTED, ids=lambda x: repr(x)[:24])
    def test_accepted_inputs_decode_alike(self, raw, expected, monkeypatch):
        outcome = _agree(monkeypatch, raw) if ORJSON is not None else None
        monkeypatch.setattr(wire, "_orjson", None)
        value = wire.decode(raw)
        if outcome is not None:
            assert outcome == _canonical(value)
        if expected is not None:
            assert _canonical(value) == _canonical(expected)

    def test_recursion_error_is_a_decode_error(self, monkeypatch):
        """The stdlib decoder's recursion limit answers like any bad body."""
        monkeypatch.setattr(wire, "_orjson", None)
        monkeypatch.setattr(wire, "MAX_DEPTH", 10**6)
        with pytest.raises(wire.DecodeError, match="recursion"):
            wire.decode(b"[" * 100_000 + b"]" * 100_000)

    @needs_orjson
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=json_values, ascii_only=st.booleans(), indent=st.sampled_from([None, 1]))
    def test_generated_bodies(self, value, ascii_only, indent, monkeypatch):
        raw = json.dumps(value, ensure_ascii=ascii_only, indent=indent).encode()
        assert _agree(monkeypatch, raw) == _canonical(_on_the_wire(value))

    @needs_orjson
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=json_values, data=st.data())
    def test_mutated_bodies(self, value, data, monkeypatch):
        """One byte inserted, replaced or dropped: both accept alike or both reject."""
        raw = bytearray(json.dumps(value).encode())
        at = data.draw(st.integers(0, len(raw)))
        byte = data.draw(st.integers(0, 255))
        edit = data.draw(st.sampled_from(["insert", "replace", "drop"]))
        if edit == "insert":
            raw.insert(at, byte)
        elif at < len(raw):
            if edit == "replace":
                raw[at] = byte
            else:
                del raw[at]
        _agree(monkeypatch, bytes(raw))

    @needs_orjson
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=st.binary(max_size=40))
    def test_arbitrary_bytes(self, raw, monkeypatch):
        _agree(monkeypatch, raw)

    @needs_orjson
    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        number=st.floats(allow_nan=False, allow_infinity=False)
        | st.floats(min_value=1e-300, max_value=1e300),
        style=st.sampled_from(["{!r}", "{:.17e}", "{:.25g}", "{:.17E}", "{:.40f}"]),
    )
    def test_floats_decode_to_the_same_bits(self, number, style, monkeypatch):
        literal = style.format(number)
        if "e" not in literal.lower() and "." not in literal:
            literal += ".0"
        assert _agree(monkeypatch, literal.encode()) != "error"

    @needs_orjson
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(digits=st.text("0123456789", min_size=1, max_size=30), negative=st.booleans())
    def test_integer_literals(self, digits, negative, monkeypatch):
        literal = ("-" if negative else "") + (digits.lstrip("0") or "0")
        assert _agree(monkeypatch, literal.encode()) != "error"


class TestEncode:
    PAYLOAD = {
        "nan": float("nan"),
        "inf": [float("inf"), -float("inf")],
        "float32": np.float32("nan"),
        "array": np.array([1.5, np.nan]),
        "ok": [np.float32(0.1), np.int64(7), np.float64(0.25), -0.0],
    }

    def test_non_finite_floats_write_null(self, wire_codec):
        decoded = json.loads(wire.encode(self.PAYLOAD))
        assert decoded["nan"] is None
        assert decoded["inf"] == [None, None]
        assert decoded["float32"] is None
        assert decoded["array"] == [1.5, None]

    def test_float32_goes_out_as_its_double(self, wire_codec):
        raw = wire.encode({"x": np.float32(0.1), "v": np.array([0.1], dtype=np.float32)})
        assert b"0.10000000149011612" in raw
        assert json.loads(raw) == {"x": float(np.float32(0.1)), "v": [float(np.float32(0.1))]}

    @needs_orjson
    def test_both_encoders_write_the_same_values(self, monkeypatch):
        by_orjson = wire.encode(self.PAYLOAD)
        monkeypatch.setattr(wire, "_orjson", None)
        by_stdlib = wire.encode(self.PAYLOAD)
        assert _canonical(json.loads(by_orjson)) == _canonical(json.loads(by_stdlib))
        assert b"NaN" not in by_stdlib and b"Infinity" not in by_stdlib

    def test_unserializable_values_raise_type_error(self, wire_codec):
        with pytest.raises(TypeError):
            wire.encode({"x": object()})

    @needs_orjson
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=encodable_values)
    def test_round_trip(self, value, monkeypatch):
        """Each codec decodes its own and the other's output to the value."""
        encoded = []
        for module in (ORJSON, None):
            monkeypatch.setattr(wire, "_orjson", module)
            encoded.append(wire.encode(value))
        for raw in encoded:
            assert _agree(monkeypatch, raw) == _canonical(value)


def test_name_follows_the_import():
    assert wire.NAME == ("json" if ORJSON is None else "orjson")


def test_stdlib_decodes_the_deepest_allowed_body_on_a_thread(monkeypatch):
    """MAX_DEPTH stays below the stdlib decoder's recursion limit."""
    monkeypatch.setattr(wire, "_orjson", None)
    body = b"[" * wire.MAX_DEPTH + b"]" * wire.MAX_DEPTH
    outcome = []
    thread = threading.Thread(target=lambda: outcome.append(wire.decode(body)))
    thread.start()
    thread.join()
    assert len(outcome) == 1
