"""Wire protocol: length-prefixed JSON frames with a numpy array codec.

Frames are ``4-byte big-endian length || UTF-8 JSON body``. JSON keeps the
protocol inspectable (``repro query`` output is the decoded body) and
dependency-free; the one thing JSON cannot carry — the result arrays
(parents, distances, ranks) — rides as a tagged base64 object::

    {"__ndarray__": "<base64 of tobytes()>", "dtype": "int64", "shape": [8192]}

Round-tripping is exact: ``tobytes``/``frombuffer`` preserve every bit, so
the over-socket parity tests can require results identical to in-process
execution, not merely close.

Request body shape (the client helper builds it)::

    {"op": "query", "graph": ..., "algo": ..., "params": {...},
     "tenant": ..., "timeout": ...}

Other ops: ``load`` / ``evict`` / ``stats`` / ``report`` / ``ping``.
Responses always carry ``"ok": true/false``; failures add ``"error"``.
"""

from __future__ import annotations

import base64
import json
import socket
import struct

import numpy as np

from repro.errors import ProtocolError
from repro.utils.locks import blocking

#: Frame header: unsigned 32-bit big-endian body length.
HEADER = struct.Struct(">I")

#: Refuse absurd frames before allocating for them (64 MiB covers a
#: scale-22 parent array with base64 overhead several times over).
MAX_FRAME_BYTES = 64 * 2**20

_NDARRAY_TAG = "__ndarray__"


def _encode_default(obj: object) -> object:
    if isinstance(obj, np.ndarray):
        return {
            _NDARRAY_TAG: base64.b64encode(obj.tobytes()).decode("ascii"),
            "dtype": str(obj.dtype),
            "shape": list(obj.shape),
        }
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"cannot encode {type(obj).__name__} on the wire")


def _decode_hook(doc: dict) -> object:
    if _NDARRAY_TAG in doc:
        try:
            raw = base64.b64decode(doc[_NDARRAY_TAG])
            arr = np.frombuffer(raw, dtype=np.dtype(doc["dtype"]))
            return arr.reshape(doc["shape"]).copy()  # writable, owned
        except (KeyError, ValueError, TypeError) as exc:
            raise ProtocolError(f"malformed array on the wire: {exc}") from None
    return doc


def encode_frame(doc: dict) -> bytes:
    """``doc`` → header+body bytes ready for one ``write``."""
    body = json.dumps(
        doc, default=_encode_default, separators=(",", ":")
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    return HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    """Body bytes → dict (arrays rehydrated)."""
    try:
        doc = json.loads(body.decode("utf-8"), object_hook=_decode_hook)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError(f"frame body must be an object, got {type(doc).__name__}")
    return doc


def read_frame_length(header: bytes) -> int:
    """Header bytes → validated body length."""
    if len(header) != HEADER.size:
        raise ProtocolError(f"truncated frame header ({len(header)} bytes)")
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    return length


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame from a blocking socket; None on clean EOF."""
    blocking("recv_frame")
    header = _recv_exact(sock, HEADER.size)
    if header is None:
        return None
    body = _recv_exact(sock, read_frame_length(header))
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_body(body)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly ``n`` bytes, or None on EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
