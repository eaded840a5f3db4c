"""The wire codec: every JSON body the HTTP service reads or writes.

``repro serve`` decodes each request body and encodes each response
through this module, and so does the ``repro query`` client.  It runs
orjson when orjson is importable and the stdlib :mod:`json` otherwise
(:data:`NAME` says which; ``/healthz`` reports it).  orjson is an
optional accelerator, like scipy for the sparse kernels: JSON float
parsing and formatting, not the query kernels, set the cost of a fold-in
or anomaly request, whose body carries one double per slice entry.

Both codecs enforce one input contract, RFC 8259 JSON, so a body decodes
to the same values, or fails the same way, whichever codec runs:

* ``NaN``, ``Infinity`` and ``-Infinity`` are not JSON, and a number
  that overflows a double (``1e400``) is rejected;
* an integer outside ``[-2**63, 2**64 - 1]`` decodes as the nearest
  float;
* the body is UTF-8 without a byte-order mark, and a ``\\ud800`` escape
  that is not half of a surrogate pair is rejected;
* arrays and objects nest at most :data:`MAX_DEPTH` deep.

The depth bound also keeps orjson alive: orjson 3.8 has no nesting
limit, and a well-formed body of 200,000 nested ``[`` (400 KB) overflows
its C stack, a segfault that takes the server down with it.  A body's
count of ``[`` and ``{`` bounds its depth and costs one vectorised pass,
so a body with at most ``MAX_DEPTH`` of them goes straight to the
decoder; a body with more (a fold-in slice of over 500 rows) pays one
exact depth scan that skips brackets inside strings.  Every failure
raises :class:`DecodeError`, a recursion-depth error of the stdlib
decoder included.

Both encoders write compact JSON, and a non-finite float as ``null``
(the stdlib would write ``NaN``, which is not JSON).  numpy scalars and
arrays convert through ``int``, ``float`` and ``tolist``, never through
orjson's numpy support, which writes a float32 with float32's shortest
repr: ``np.float32(0.1)`` must go out as ``0.10000000149011612``, the
double it is, or a float32 model's answers would change.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

try:
    import orjson as _orjson
except ImportError:  # the stdlib codec serves on its own
    _orjson = None

__all__ = ["MAX_DEPTH", "NAME", "DecodeError", "decode", "encode"]

#: Deepest nesting of arrays and objects a body may have, under either
#: codec.  The stdlib decoder recurses once per level against Python's
#: recursion limit (1,000 frames by default), so the bound stays well
#: below it; the API's own bodies nest at most three deep.
MAX_DEPTH = 512

#: The codec that runs: ``"orjson"`` or ``"json"`` (the stdlib).
NAME = "json" if _orjson is None else "orjson"


class DecodeError(ValueError):
    """A body that is not JSON under the wire contract."""


# ---------------------------------------------------------------------- #
# decode
# ---------------------------------------------------------------------- #

#: Structural bytes to int8 steps: an opening bracket +1, a closing one
#: -1, a quote 0; every other byte is deleted.
_STEPS = bytes.maketrans(b'[{]}"', b"\x01\x01\xff\xff\x00")
_NOT_STRUCTURAL = bytes(b for b in range(256) if b not in b'[{]}"')


def _check_depth(raw: bytes) -> None:
    """Raise ``ValueError`` when ``raw`` nests deeper than :data:`MAX_DEPTH`.

    Exact for valid JSON.  On malformed input the scan agrees with a
    decoder up to the byte where the decoder fails, so it never reports
    less than the depth the decoder reached.
    """
    if len(raw) <= MAX_DEPTH:
        return
    # "[" and "{" differ only in bit 5 (0x5B, 0x7B).
    if np.count_nonzero((np.frombuffer(raw, dtype=np.uint8) | 0x20) == ord("{")) <= MAX_DEPTH:
        return
    if b"\\" in raw:
        # Escaped backslashes first, then escaped quotes: every quote left
        # opens or closes a string.
        raw = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    steps = np.frombuffer(raw.translate(_STEPS, _NOT_STRUCTURAL), dtype=np.int8)
    in_string = np.cumsum(steps == 0) & 1  # after an odd number of quotes
    depth = np.cumsum(np.where(in_string, 0, steps), dtype=np.int32)
    if depth.size and int(depth.max()) > MAX_DEPTH:
        raise ValueError(f"arrays and objects nest deeper than {MAX_DEPTH}")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text[:40]} overflows a double")
    return value


def _int_or_float(text: str):
    # orjson's integer range; a literal longer than 20 characters lies
    # outside it, and skips int() and its 4,300-digit limit.
    if len(text) <= 20:
        value = int(text)
        if -(2**63) <= value <= 2**64 - 1:
            return value
    return _finite_float(text)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


_STDLIB_DECODER = json.JSONDecoder(
    parse_float=_finite_float,
    parse_int=_int_or_float,
    parse_constant=_reject_constant,
)
#: A ``\\u`` escape of a UTF-16 surrogate, paired or not.
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


def _stdlib_loads(raw: bytes):
    """Decode with :mod:`json` under orjson's rules."""
    # Strict UTF-8: rejects UTF-16 bodies and encoded surrogates; a BOM
    # survives as U+FEFF, which no JSON value starts with.
    value = _STDLIB_DECODER.decode(raw.decode("utf-8"))
    if _SURROGATE_ESCAPE.search(raw):
        # Paired escapes decode to one code point; a lone one stays a
        # surrogate, which UTF-8 cannot encode.
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    return value


def decode(raw: bytes):
    """Decode one JSON body under the wire contract.

    Parameters
    ----------
    raw:
        The body as received.

    Returns
    -------
    object
        The decoded value: dicts, lists, str, int, float, bool, None.

    Raises
    ------
    DecodeError
        When ``raw`` is not JSON under the contract (see the module
        docstring), whichever codec runs.
    """
    try:
        _check_depth(raw)
        if _orjson is not None:
            return _orjson.loads(raw)
        return _stdlib_loads(raw)
    except (ValueError, RecursionError) as exc:
        raise DecodeError(str(exc)) from None


# ---------------------------------------------------------------------- #
# encode
# ---------------------------------------------------------------------- #

def _json_default(obj):
    """Convert numpy scalars and arrays for the encoder; reject the rest."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


_STDLIB_ENCODER = json.JSONEncoder(
    ensure_ascii=False,
    allow_nan=False,
    separators=(",", ":"),
    default=_json_default,
)


def _nulled(obj):
    """``obj`` with every non-finite float replaced by ``None``."""
    if isinstance(obj, dict):
        return {key: _nulled(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nulled(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return _nulled(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


def encode(payload) -> bytes:
    """Encode one response body as compact UTF-8 JSON.

    Parameters
    ----------
    payload:
        JSON-safe values plus numpy scalars and arrays.

    Returns
    -------
    bytes
        The body; a non-finite float is written as ``null``.

    Raises
    ------
    TypeError
        For a value the codec cannot represent; orjson also refuses an int
        outside ``[-2**63, 2**64 - 1]``, which no response holds.
    """
    if _orjson is not None:
        return _orjson.dumps(payload, default=_json_default)
    try:
        text = _STDLIB_ENCODER.encode(payload)
    except ValueError:  # a non-finite float, which orjson writes as null
        text = _STDLIB_ENCODER.encode(_nulled(payload))
    return text.encode()
