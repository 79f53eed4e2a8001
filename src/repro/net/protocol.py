"""The wire protocol: framing, message vocabulary, and error codes.

The enforcement gateway becomes a network service the way Blockaid's
proxy does (a JDBC-shaped network hop between application and database):
clients speak a small, versioned, length-prefixed JSON protocol over
TCP. JSON keeps the protocol debuggable with ``nc``/``socat`` and covers
every value the engine stores (INT/TEXT/REAL/BOOL plus NULL); the length
prefix makes framing trivial and lets the server reject oversized frames
*before* parsing them.

Framing
-------
Every message is one frame::

    +----------------------+---------------------------+
    | length: uint32 (BE)  | payload: UTF-8 JSON object|
    +----------------------+---------------------------+

``length`` counts payload bytes only. A frame whose declared length
exceeds ``MAX_FRAME_BYTES`` is rejected without reading
the payload (``ERROR/oversized``); a payload that is not a JSON object
with a string ``type`` is ``ERROR/malformed``.

Message vocabulary
------------------
Client → server:

* ``HELLO {version, bindings}`` — authenticate the connection as a
  session principal. ``bindings`` maps policy parameters to values
  (e.g. ``{"MyUId": 7}``). The connection is one session: it starts on an
  empty trace, and its history ends when it closes. A ``fresh`` field,
  which older clients send, is accepted and ignored.
* ``QUERY {id, sql, args?, named?}`` — vet + execute a SELECT.
* ``EXEC {id, sql, args?, named?}`` — execute any statement (writes
  return a row count; every session then retires the trace facts the
  changed rows stood for, and no decision template is evicted).
* ``PREPARE {id, sql}`` — hoist the statement's per-shape work (parse,
  bind plan, skeletonization, equality-partition layout) server-side
  once; replies ``PREPARED`` with an integer handle. Requires a session.
* ``EXECUTE {id, handle, args?, named?}`` — run a prepared handle,
  shipping only the bindings, decided under the policy current when it
  runs (a handle outlives a hot reload). An unknown handle (evicted past
  the per-connection cap) is refused with ``ERROR/malformed`` +
  ``unknown_handle: true`` so clients can re-prepare transparently.
  Requires a session.
* ``PING {id}`` — liveness probe; allowed before HELLO.
* ``STATS {id}`` — server + gateway metrics; allowed before HELLO.
* ``GOODBYE {}`` — orderly close.

Admin verbs (policy lifecycle; allowed before HELLO, like STATS — they
act on the deployment, not on a session; all require the server to be
started with a :class:`~repro.lifecycle.reload.LifecycleManager`):

* ``POLICY {id}`` — active version, fingerprint, provenance, registered
  versions, rollback target, shadow status.
* ``RELOAD {id, policy_text, provenance?, label?}`` — parse
  ``policy_text`` (the ``repro.policy.serialize`` format) and hot-swap
  it in; replies with the reload report.
* ``SHADOW {id, action: "start"|"stop"|"status", policy_text?,
  provenance?, label?}`` — manage shadow mode.
* ``PROMOTE {id, max_divergences?, min_shadow_checks?, min_precision?,
  min_recall?}`` — run the promotion gates on the shadowed candidate;
  swaps it in only if every gate passes.
* ``ROLLBACK {id}`` — restore the previously active version.
* ``MINE {id, action: "status"|"candidates"|"approve"|"run",
  fingerprint?}`` — the continuous policy-mining service
  (``repro.mining``): ``status`` reports the miner section, ``candidates``
  lists mined candidate policies with scores and dispositions,
  ``approve`` submits a parked candidate (by content fingerprint) to
  shadow mode, ``run`` forces one mining cycle now. Requires the server's
  lifecycle manager to have a mining service attached
  (``LifecycleManager.enable_mining`` — ``repro serve --mine``).

These are additive message types: a version-1 client that never sends
them is unaffected, so ``PROTOCOL_VERSION`` stays 1.

Server → client:

* ``WELCOME {version, session}`` — HELLO accepted.
* ``PREPARED {id, handle, select, policy_version}`` — PREPARE accepted;
  ``select`` says whether EXECUTE will return rows or a rowcount.
* ``RESULT {id, columns, rows}`` — a SELECT's answer.
* ``RESULT {id, rowcount}`` — a write's affected-row count.
* ``BLOCKED {id, sql, reason, cached}`` — the policy checker denied the
  query (the paper's execute-as-is-or-block contract, over the wire).
* ``ERROR {id?, code, error}`` — anything else went wrong; ``code`` is
  one of the ``ERR_*`` constants below and is stable protocol surface.
* ``PONG {id}``, ``STATS {id, net, gateway, cache_hit_rate}``,
  ``BYE {reason}``.

Requests carry a client-chosen ``id`` echoed in the reply, so a client
can pipeline requests and still correlate answers. The server processes
a connection's frames strictly in arrival order (a session's statements
must stay ordered for trace history) while whatever the client sends
ahead waits in the socket buffer, so a client may keep many requests in
flight and overlap its encode/send work with server-side checking — see
``NetClientConnection.pipeline``. Replies therefore also come back in
request order; ids make the correlation explicit and future-proof.

``PREPARE``/``EXECUTE``/``PREPARED`` and pipelining are additive: a
version-1 client that never sends ahead or prepares sees byte-identical
behavior, so ``PROTOCOL_VERSION`` stays 1.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

from repro.util.errors import DbacError

#: Bumped on any incompatible change to framing or message shapes.
PROTOCOL_VERSION = 1

#: Cap on a single frame's payload, server- and client-side (read at
#: call time, so a test may monkeypatch it).
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")

# -- message types -----------------------------------------------------------

HELLO = "HELLO"
QUERY = "QUERY"
EXEC = "EXEC"
PREPARE = "PREPARE"
EXECUTE = "EXECUTE"
PING = "PING"
STATS = "STATS"
GOODBYE = "GOODBYE"

# Policy-lifecycle admin verbs (see the module docstring).
POLICY = "POLICY"
RELOAD = "RELOAD"
SHADOW = "SHADOW"
PROMOTE = "PROMOTE"
ROLLBACK = "ROLLBACK"
MINE = "MINE"

WELCOME = "WELCOME"
PREPARED = "PREPARED"
RESULT = "RESULT"
BLOCKED = "BLOCKED"
ERROR = "ERROR"
PONG = "PONG"
BYE = "BYE"

# -- error codes (stable wire surface; see docs/networking.md) ---------------

ERR_OVERLOADED = "overloaded"  # admission control shed this request/connection
ERR_TIMEOUT = "timeout"  # per-request deadline exceeded
ERR_MALFORMED = "malformed"  # frame payload is not a valid message
ERR_OVERSIZED = "oversized"  # frame length exceeds MAX_FRAME_BYTES
ERR_UNAUTHENTICATED = "unauthenticated"  # QUERY/EXEC before HELLO
ERR_UNAVAILABLE = "unavailable"  # a cluster router's target shard is down
ERR_BAD_VERSION = "bad_version"  # HELLO version mismatch
ERR_BAD_REQUEST = "bad_request"  # well-formed frame, invalid contents
ERR_SHUTTING_DOWN = "shutting_down"  # server is draining
ERR_ENGINE = "engine"  # parse/translation/execution error
ERR_INTERNAL = "internal"  # unexpected server-side failure


class NetError(DbacError):
    """A wire-level failure, carrying the protocol error ``code``."""

    def __init__(self, message: str, code: str = ERR_INTERNAL):
        super().__init__(message)
        self.code = code


class FrameTooLarge(NetError):
    """A frame's declared length exceeds the configured maximum."""

    def __init__(self, declared: int, limit: int):
        super().__init__(
            f"frame of {declared} bytes exceeds the {limit}-byte limit",
            code=ERR_OVERSIZED,
        )
        self.declared = declared
        self.limit = limit


class ConnectionClosed(NetError):
    """The peer closed the connection mid-frame (or before one)."""

    def __init__(self, message: str = "connection closed by peer"):
        super().__init__(message, code=ERR_INTERNAL)


# -- encoding ----------------------------------------------------------------


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialize one message to a length-prefixed frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _LENGTH.pack(len(payload)) + payload


def encode_frame_into(message: dict[str, Any], buf: bytearray) -> None:
    """Append one encoded frame to ``buf``.

    The server's per-connection reply coalescer batches several small
    replies into one ``write()`` per drain cycle; appending into a
    reusable buffer avoids allocating (and the kernel avoids flushing)
    one segment per frame.
    """
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    buf += _LENGTH.pack(len(payload))
    buf += payload


def decode_payload(payload: bytes | bytearray) -> dict[str, Any]:
    """Parse a frame payload; raises :class:`NetError` (malformed) if bad."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise NetError(f"frame is not valid JSON: {exc}", code=ERR_MALFORMED) from exc
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise NetError(
            "frame must be a JSON object with a string 'type'", code=ERR_MALFORMED
        )
    return message


# -- buffer framing (the blocking server's per-connection receive buffer) ----


def take_frame(buf: bytearray) -> dict | None:
    """Pop one complete frame off the front of ``buf``; ``None`` if the
    buffer holds only part of one.

    Raises :class:`FrameTooLarge` from the length prefix alone (the
    payload need not have arrived) and :class:`NetError` (malformed) for
    an undecodable payload.
    """
    if len(buf) < _LENGTH.size:
        return None
    (length,) = _LENGTH.unpack_from(buf)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(length, MAX_FRAME_BYTES)
    end = _LENGTH.size + length
    if len(buf) < end:
        return None
    payload = buf[_LENGTH.size : end]
    del buf[:end]
    return decode_payload(payload)


# -- blocking-socket framing (the client and the cluster router) -------------


def write_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))


def read_frame(sock: socket.socket) -> dict:
    """Read one frame from a blocking socket, and not a byte past it.

    Raises :class:`ConnectionClosed` at end of stream,
    :class:`FrameTooLarge` before reading an over-limit payload, and
    :class:`NetError` (malformed) for an undecodable payload.
    """
    header = _recv_exactly(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(length, MAX_FRAME_BYTES)
    return decode_payload(_recv_exactly(sock, length))


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < count:
        try:
            chunk = sock.recv(count - len(chunks))
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise ConnectionClosed() from exc
        if not chunk:
            raise ConnectionClosed()
        chunks.extend(chunk)
    return bytes(chunks)
