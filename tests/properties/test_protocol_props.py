"""Property tests: wire frames round-trip arbitrary JSON payloads.

The protocol is length-prefixed JSON, so the property worth having is
that any JSON-object message with a string ``type`` survives
``encode_frame`` → framing → ``decode_payload`` bit-exactly — including
astral-plane unicode, deeply nested containers, huge strings, and the
float/int/bool/None corners JSON is touchy about.
"""

from __future__ import annotations

import socket
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.net import protocol

# Unicode that has bitten real wire formats: astral plane, combining
# marks, RTL, NULs, surrogate-adjacent code points, JSON syntax chars.
_spicy_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        st.characters(min_codepoint=0xA0, max_codepoint=0x2FF),
        st.sampled_from(list("🙂💥\U0001f9ea\u202e\u0301\x00\"\\{}[]:,\n\t")),
    ),
    max_size=40,
)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    _spicy_text,
)

_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_spicy_text, children, max_size=4),
    ),
    max_leaves=25,
)

_messages = st.fixed_dictionaries(
    {"type": st.sampled_from(["QUERY", "SQL", "TEMPLATE", "STATS"])},
    optional={
        "id": st.integers(min_value=0, max_value=2**31),
        "sql": _spicy_text,
        "bindings": st.dictionaries(_spicy_text, _scalars, max_size=4),
        "payload": _json_values,
    },
)


class TestFrameRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(message=_messages)
    def test_encode_decode_identity(self, message):
        frame = protocol.encode_frame(message)
        assert protocol.decode_payload(frame[4:]) == message

    @settings(max_examples=50, deadline=None)
    @given(message=_messages)
    def test_blocking_socket_framing_round_trips(self, message):
        """Through real sockets, chunked reads and all."""
        server, client = socket.socketpair()
        try:
            received = {}

            def serve():
                received["message"] = protocol.read_frame(server)

            thread = threading.Thread(target=serve)
            thread.start()
            protocol.write_frame(client, message)
            thread.join(timeout=10)
            assert received["message"] == message
        finally:
            server.close()
            client.close()

    def test_large_payload_round_trips(self):
        message = {"type": "SQL", "blob": "🙂" * 50_000, "rows": [[1, None]] * 5_000}
        frame = protocol.encode_frame(message)
        assert len(frame) > 100_000
        assert protocol.decode_payload(frame[4:]) == message

    def test_deeply_nested_payload_round_trips(self):
        nested: object = "leaf — ünïcode"
        for _ in range(60):
            nested = {"k": [nested]}
        message = {"type": "QUERY", "deep": nested}
        assert protocol.decode_payload(protocol.encode_frame(message)[4:]) == message


class TestFrameRejection:
    def test_oversized_frame_rejected_before_read(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1_000)
        message = {"type": "SQL", "blob": "x" * 2_000}
        frame = protocol.encode_frame(message)
        server, client = socket.socketpair()
        try:
            client.sendall(frame)
            with pytest.raises(protocol.FrameTooLarge):
                protocol.read_frame(server)
        finally:
            server.close()
            client.close()

    @settings(max_examples=50, deadline=None)
    @given(junk=st.binary(max_size=64))
    def test_non_json_payloads_raise_malformed_not_crash(self, junk):
        try:
            message = protocol.decode_payload(junk)
        except protocol.NetError as error:
            assert error.code == protocol.ERR_MALFORMED
        else:
            # Anything that decodes must satisfy the frame contract.
            assert isinstance(message, dict)
            assert isinstance(message["type"], str)

    def test_non_object_json_rejected(self):
        for payload in (b"[1,2]", b'"just a string"', b"42", b'{"type": 7}'):
            with pytest.raises(protocol.NetError):
                protocol.decode_payload(payload)
