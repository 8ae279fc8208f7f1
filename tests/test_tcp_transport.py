"""Tests for the real cross-process TCP transport.

Two in-process :class:`TcpTransport` instances on localhost stand in for two
OS processes (same codec framing, same sockets); the final test runs the
actual two-process example as a subprocess smoke check.
"""

import asyncio
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.messages import AbortMsg, CommitMsg, Envelope
from repro.errors import TransportError, WireError
from repro.transport.tcp import TcpTransport, _Inbound, _Outbound, _PeerLink
from repro.vtime import VirtualTime
from repro.wire.codec import FRAME_HEADER_BYTES, MAX_FRAME_BYTES, decode_frame, encode_frame

REPO = Path(__file__).resolve().parent.parent


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def two_addrs():
    return {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}


async def wait_for(predicate, timeout_s: float = 10.0, what: str = "condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.01)


class TestTcpTransport:
    def test_delivery_and_fifo_between_transports(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            a.register(0, lambda src, p: None)
            b.register(1, lambda src, p: inbox.append((src, p)))
            await a.start()
            await b.start()
            msgs = [CommitMsg(VirtualTime(i, 0), i) for i in range(20)]
            for m in msgs:
                a.send(0, 1, m)
            await wait_for(lambda: len(inbox) == len(msgs), what="all frames")
            assert [p for _, p in inbox] == msgs  # per-pair FIFO preserved
            assert all(src == 0 for src, _ in inbox)
            assert a.frames_sent == len(msgs)
            assert b.frames_received == len(msgs)
            await a.aquiesce(settle_ms=20.0)
            assert a.pending() == 0
            await a.stop()
            await b.stop()

        asyncio.run(main())

    def test_envelope_payload_crosses_the_wire(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            env = Envelope(
                (CommitMsg(VirtualTime(3, 0), 7), AbortMsg(VirtualTime(4, 0), 8, "x"))
            )
            a.send(0, 1, env)
            await wait_for(lambda: inbox, what="envelope")
            assert inbox[0] == env  # decoded copy, field-for-field equal
            assert inbox[0] is not env
            await a.stop()
            await b.stop()

        asyncio.run(main())

    def test_local_loopback_crosses_codec(self):
        async def main():
            addrs = two_addrs()
            t = TcpTransport(addrs, local_sites={0, 1})
            inbox = []
            t.register(1, lambda src, p: inbox.append(p))
            await t.start()
            msg = CommitMsg(VirtualTime(5, 0), 9)
            t.send(0, 1, msg)
            assert t.pending() == 1
            await wait_for(lambda: inbox, what="loopback delivery")
            assert inbox[0] == msg
            assert inbox[0] is not msg  # round-tripped through the codec
            await t.stop()

        asyncio.run(main())

    def test_reconnect_delivers_after_server_comes_up(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0}, reconnect_base_ms=10.0)
            inbox = []
            await a.start()
            msg = CommitMsg(VirtualTime(1, 0), 1)
            a.send(0, 1, msg)  # nobody listening yet; frame stays queued
            await asyncio.sleep(0.1)
            assert a.pending() == 1
            b = TcpTransport(addrs, local_sites={1})
            b.register(1, lambda src, p: inbox.append(p))
            await b.start()
            await wait_for(lambda: inbox, what="delivery after reconnect")
            assert inbox == [msg]
            await a.stop()
            await b.stop()

        asyncio.run(main())

    def test_first_send_after_peer_restart_is_not_lost(self):
        """A peer that stopped closes the connection; ``connection_lost``
        clears the link at once, so the next send re-dials instead of
        writing its batch into the dead socket (which used to drop "two")."""

        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0}, reconnect_base_ms=5.0)
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            a.send(0, 1, "one")
            await wait_for(lambda: inbox == ["one"], what="first delivery")
            await b.stop()
            b2 = TcpTransport(addrs, local_sites={1})
            b2.register(1, lambda src, p: inbox.append(p))
            await b2.start()
            await asyncio.sleep(0.05)
            a.send(0, 1, "two")
            a.send(0, 1, "three")
            await wait_for(lambda: len(inbox) >= 3, what="delivery after restart")
            await asyncio.sleep(0.05)
            assert inbox == ["one", "two", "three"]
            assert a.reconnects == 1
            await a.stop()
            await b2.stop()

        asyncio.run(main())

    def test_fail_stop_detection_notifies_listeners(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(
                addrs, local_sites={0}, reconnect_base_ms=5.0, fail_after_ms=150.0
            )
            failed = []
            a.add_failure_listener(failed.append)
            await a.start()
            a.send(0, 1, CommitMsg(VirtualTime(1, 0), 1))  # port never answers
            await wait_for(lambda: failed, what="failure declaration")
            assert failed == [1]
            assert a.is_failed(1)
            assert a.pending() == 0  # queued frames dropped on failure
            a.send(0, 1, CommitMsg(VirtualTime(2, 0), 2))  # silently dropped
            assert a.pending() == 0
            await a.stop()

        asyncio.run(main())

    def test_sync_quiesce_raises_toward_aquiesce(self):
        transport = TcpTransport({0: ("127.0.0.1", 1)}, local_sites={0})
        with pytest.raises(TransportError, match="aquiesce"):
            transport.quiesce()

    def test_register_non_local_site_rejected(self):
        transport = TcpTransport(two_addrs(), local_sites={0})
        with pytest.raises(TransportError, match="not local"):
            transport.register(1, lambda src, p: None)

    def test_local_site_without_address_rejected(self):
        with pytest.raises(TransportError, match="no address"):
            TcpTransport({0: ("127.0.0.1", 1)}, local_sites={0, 1})

    def test_send_before_start_outside_loop_rejected(self):
        transport = TcpTransport(two_addrs(), local_sites={0})
        with pytest.raises(TransportError, match="event loop"):
            transport.send(0, 1, CommitMsg(VirtualTime(1, 0), 1))

    def test_stop_flushes_queued_frames(self):
        """stop() must not lose frames that are queued but not yet written.

        Regression for the coalescing write path: a burst of sends followed
        immediately by stop() gets there before the turn's flush has run;
        the flush phase of stop() has to wait for the queue to drain before
        closing the connections.
        """

        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            msgs = [CommitMsg(VirtualTime(i, 0), i) for i in range(200)]
            for m in msgs:
                a.send(0, 1, m)
            await a.stop()  # flush=True by default: must drain first
            assert a.pending() == 0
            await wait_for(lambda: len(inbox) == len(msgs), what="flushed frames")
            assert inbox == msgs  # nothing lost, FIFO preserved
            await b.stop()

        asyncio.run(main())

    def test_stop_rejects_sends_while_closing(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            await a.start()
            await a.stop()
            a.send(0, 1, CommitMsg(VirtualTime(1, 0), 1))  # silently dropped
            assert a.pending() == 0

        asyncio.run(main())

    def test_stop_flush_times_out_on_unreachable_peer(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0}, reconnect_base_ms=5.0)
            await a.start()
            a.send(0, 1, CommitMsg(VirtualTime(1, 0), 1))  # nobody listening
            start = time.monotonic()
            await a.stop(flush_timeout_s=0.5)  # must not hang forever
            assert time.monotonic() - start < 5.0

        asyncio.run(main())

    def test_burst_coalesces_into_fewer_writes(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            # Establish the connection first so the burst queues behind a
            # live writer and the sender drains it in batches.
            probe = CommitMsg(VirtualTime(0, 0), 0)
            a.send(0, 1, probe)
            await wait_for(lambda: inbox, what="connection established")
            msgs = [CommitMsg(VirtualTime(i + 1, 0), i + 1) for i in range(500)]
            for m in msgs:
                a.send(0, 1, m)
            await wait_for(lambda: len(inbox) == len(msgs) + 1, what="burst")
            assert inbox == [probe] + msgs  # FIFO survives batching
            assert a.frames_sent == len(msgs) + 1
            assert a.writes < a.frames_sent  # batching actually happened
            assert a.frames_coalesced == a.frames_sent - a.writes
            assert a.frames_coalesced > 0
            await a.stop()
            await b.stop()

        asyncio.run(main())

    def test_maybe_install_uvloop_is_safe_without_uvloop(self):
        from repro.transport.tcp import maybe_install_uvloop

        assert maybe_install_uvloop() in (True, False)


def frame_of(payload, tenant: int = 0) -> bytes:
    return encode_frame(0, 1, payload, None, tenant=tenant)


class FakeTransport:
    """Stands in for the asyncio transport in direct protocol calls."""

    def __init__(self, break_on_write: bool = False) -> None:
        self.break_on_write = break_on_write
        self.written = []
        self.closing = False

    def write(self, data) -> None:
        self.written.append(bytes(data))
        self.closing = self.closing or self.break_on_write

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True


def direct_inbound(handler):
    """An ``_Inbound`` fed by hand: (transport, protocol, fake connection)."""
    owner = TcpTransport(two_addrs(), local_sites={1})
    owner.register(1, handler)
    conn = FakeTransport()
    protocol = _Inbound(owner)
    protocol.connection_made(conn)
    return owner, protocol, conn


async def raw_client(addr) -> socket.socket:
    """A plain non-blocking socket connected to a transport's listener."""
    sock = socket.socket()
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, addr)
    return sock


async def closed_by_peer(sock: socket.socket, timeout_s: float = 5.0) -> bool:
    try:
        data = await asyncio.wait_for(
            asyncio.get_running_loop().sock_recv(sock, 1), timeout_s
        )
    except ConnectionError:  # reset: it closed with our bytes unread
        return True
    except asyncio.TimeoutError:
        return False
    return data == b""


class TestInboundFraming:
    """The stream is split by hand in ``_Inbound.data_received``."""

    def test_one_frame_a_byte_at_a_time_over_a_socket(self):
        async def main():
            addrs = two_addrs()
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(1, lambda src, p: inbox.append(p))
            await b.start()
            sock = await raw_client(addrs[1])
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            msg = CommitMsg(VirtualTime(7, 0), 7)
            frame = frame_of(msg)
            loop = asyncio.get_running_loop()
            for i in range(len(frame)):
                assert inbox == []
                await loop.sock_sendall(sock, frame[i:i + 1])
                await asyncio.sleep(0)
            await wait_for(lambda: inbox, what="the reassembled frame")
            assert inbox == [msg] and b.frames_received == 1
            sock.close()
            await b.stop()

        asyncio.run(main())

    def test_frames_cut_at_every_byte_boundary(self):
        msgs = [CommitMsg(VirtualTime(1, 0), 1), "second", CommitMsg(VirtualTime(3, 0), 3)]
        stream = b"".join(frame_of(m) for m in msgs)
        for cut in range(1, len(stream)):
            inbox = []
            owner, protocol, _conn = direct_inbound(lambda src, p: inbox.append(p))
            protocol.data_received(stream[:cut])
            protocol.data_received(stream[cut:])
            assert inbox == msgs, f"cut at byte {cut}"
            assert protocol.buf is None and owner.frames_received == len(msgs)

    def test_fifty_frames_in_one_segment_then_half_of_the_next(self):
        async def main():
            addrs = two_addrs()
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(1, lambda src, p: inbox.append(p))
            await b.start()
            sock = await raw_client(addrs[1])
            msgs = [CommitMsg(VirtualTime(i + 1, 0), i) for i in range(51)]
            frames = [frame_of(m) for m in msgs]
            half = len(frames[50]) // 2
            loop = asyncio.get_running_loop()
            await loop.sock_sendall(sock, b"".join(frames[:50]) + frames[50][:half])
            await wait_for(lambda: len(inbox) == 50, what="the 50 whole frames")
            await asyncio.sleep(0.05)
            assert inbox == msgs[:50] and b.frames_received == 50
            await loop.sock_sendall(sock, frames[50][half:])
            await wait_for(lambda: len(inbox) == 51, what="the 51st frame")
            assert inbox == msgs
            sock.close()
            await b.stop()

        asyncio.run(main())

    def test_large_frame_in_many_reads_is_delivered_once_without_recopying(self):
        blob = bytes(range(256)) * (4 * 1024 * 1024 // 256)
        frame = frame_of(blob)
        inbox = []
        _owner, protocol, _conn = direct_inbound(lambda src, p: inbox.append(p))
        step = 4096
        protocol.data_received(frame[:step])
        tail = protocol.buf
        assert protocol.need == len(frame)  # the header was read once
        for pos in range(step, len(frame) - step, step):
            protocol.data_received(frame[pos:pos + step])
            # Appended in place: a ~1,000-read frame that re-copied its
            # tail per read would move 2 GiB instead of 4 MiB.
            assert protocol.buf is tail and not inbox
        protocol.data_received(frame[pos + step:])
        assert inbox == [blob] and protocol.buf is None

    def test_large_frame_over_a_socket_is_delivered_once(self):
        async def main():
            addrs = two_addrs()
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(1, lambda src, p: inbox.append(p))
            await b.start()
            sock = await raw_client(addrs[1])
            blob = b"\xab" * (4 * 1024 * 1024)
            tail = CommitMsg(VirtualTime(1, 0), 1)
            await asyncio.get_running_loop().sock_sendall(sock, frame_of(blob) + frame_of(tail))
            await wait_for(lambda: len(inbox) == 2, what="blob and the frame after it")
            assert inbox == [blob, tail] and b.frames_received == 2
            sock.close()
            await b.stop()

        asyncio.run(main())

    def test_oversized_header_is_refused_before_any_body_arrives(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(FRAME_HEADER_BYTES, "big")
        inbox = []
        _owner, protocol, conn = direct_inbound(lambda src, p: inbox.append(p))
        with pytest.raises(WireError, match="exceeds limit"):
            protocol.data_received(frame_of("before") + header)
        assert inbox == ["before"]  # whole frames ahead of it were delivered
        assert conn.closing and protocol.buf is None  # nothing buffered

    def test_oversized_header_closes_only_its_connection(self):
        async def main():
            addrs = two_addrs()
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            for tenant in (0, 7):
                b.register_scoped(tenant, 1, lambda src, p, t=tenant: inbox.append((t, p)))
            await b.start()
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda _loop, ctx: reported.append(ctx.get("exception")))
            good, hostile = await raw_client(addrs[1]), await raw_client(addrs[1])
            await loop.sock_sendall(good, frame_of("g1"))
            # The header alone, no body: the connection must go now, not
            # after 16 MiB more have been buffered.
            await loop.sock_sendall(
                hostile, (MAX_FRAME_BYTES + 1).to_bytes(FRAME_HEADER_BYTES, "big")
            )
            assert await closed_by_peer(hostile)
            assert len(reported) == 1 and isinstance(reported[0], WireError)
            await loop.sock_sendall(good, frame_of("g2") + frame_of("t7", tenant=7))
            await wait_for(lambda: len(inbox) == 3, what="the healthy connection")
            assert inbox == [(0, "g1"), (0, "g2"), (7, "t7")]
            for sock in (good, hostile):
                sock.close()
            await b.stop()

        asyncio.run(main())

    def test_raising_handler_closes_only_its_connection(self):
        async def main():
            addrs = two_addrs()
            b = TcpTransport(addrs, local_sites={1})
            inbox = []

            def handler(src, payload):
                if payload == "boom":
                    raise RuntimeError("handler failed")
                inbox.append(payload)

            b.register(1, handler)
            await b.start()
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda _loop, ctx: reported.append(ctx.get("exception")))
            good, bad = await raw_client(addrs[1]), await raw_client(addrs[1])
            await loop.sock_sendall(bad, frame_of("b1") + frame_of("boom") + frame_of("b3"))
            assert await closed_by_peer(bad)
            assert [type(exc) for exc in reported] == [RuntimeError]
            await loop.sock_sendall(good, frame_of("g1"))
            await wait_for(lambda: "g1" in inbox, what="the other connection")
            assert inbox == ["b1", "g1"]  # nothing after the failure on its stream
            assert b.pending() == 0
            for sock in (good, bad):
                sock.close()
            await b.stop()

        asyncio.run(main())


class TestBackPressureAndFifo:
    def test_stalled_reader_parks_frames_in_the_link_queue(self):
        """Tiny socket and write buffers plus a peer that does not read:
        ``pause_writing`` stops the flush, frames wait in ``link.frames``
        (and count as pending), and ``resume_writing`` delivers every one
        exactly once, in send order."""

        async def main():
            addrs = two_addrs()
            listener = socket.socket()
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            listener.bind(addrs[1])
            read_now, connected, hung_up = asyncio.Event(), asyncio.Event(), asyncio.Event()
            received = []

            async def stalled_peer(reader, writer):
                connected.set()
                await read_now.wait()
                try:
                    while True:
                        header = await reader.readexactly(FRAME_HEADER_BYTES)
                        body = await reader.readexactly(int.from_bytes(header, "big"))
                        received.append(decode_frame(body)[3])
                except asyncio.IncompleteReadError:
                    writer.close()
                    await writer.wait_closed()
                    hung_up.set()

            server = await asyncio.start_server(stalled_peer, sock=listener, limit=1024)
            a = TcpTransport(addrs, local_sites={0})
            await a.start()
            a.send(0, 1, "probe")
            await asyncio.wait_for(connected.wait(), 5.0)
            link = a._links[addrs[1]]
            await wait_for(lambda: a.frames_sent == 1, what="probe written")
            link.transport.set_write_buffer_limits(high=1024)
            link.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            msgs = [f"{i:04d}" + "x" * 8192 for i in range(300)]
            for m in msgs:
                a.send(0, 1, m)
            await wait_for(lambda: link.paused, what="pause_writing")
            await asyncio.sleep(0.05)
            assert link.paused and link.frames
            parked, writes = len(link.frames), a.writes
            assert a.pending() == parked
            assert a.frames_sent + parked == len(msgs) + 1
            a.send(0, 1, "last")  # queues behind the parked frames
            await asyncio.sleep(0.05)
            assert a.writes == writes and len(link.frames) == parked + 1

            read_now.set()
            await wait_for(lambda: len(received) == len(msgs) + 2, what="every frame")
            assert received == ["probe"] + msgs + ["last"]
            assert not link.paused and a.pending() == 0
            assert a.frames_sent == len(msgs) + 2
            await a.stop()
            await asyncio.wait_for(hung_up.wait(), 5.0)
            server.close()
            await server.wait_closed()

        asyncio.run(main())

    @pytest.mark.parametrize("flush", [True, False])
    def test_stop_releases_a_stalled_peer_within_the_budget(self, flush):
        """A peer that stopped reading would keep a closed connection open
        for as long as its write buffer holds bytes.  ``stop()`` gives it
        until ``flush_timeout_s`` from the call (nothing with
        ``flush=False``), then ``abort()``s it — released, not leaked —
        and returns one turn later."""

        async def main():
            addrs = two_addrs()
            listener = socket.socket()
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            listener.bind(addrs[1])
            release, done = asyncio.Event(), asyncio.Event()

            async def stalled_peer(_reader, writer):
                await release.wait()
                writer.close()
                done.set()

            server = await asyncio.start_server(stalled_peer, sock=listener, limit=1024)
            a = TcpTransport(addrs, local_sites={0})
            await a.start()
            a.send(0, 1, "probe")
            await wait_for(lambda: a.frames_sent == 1, what="probe written")
            link = a._links[addrs[1]]
            connection = link.transport
            connection.set_write_buffer_limits(high=1024)
            connection.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            for i in range(300):
                a.send(0, 1, f"{i:04d}" + "x" * 8192)
            await wait_for(lambda: link.paused, what="pause_writing")

            timeout_s = 0.4
            loop = asyncio.get_running_loop()
            start = loop.time()
            await a.stop(flush=flush, flush_timeout_s=timeout_s)
            elapsed = loop.time() - start
            assert connection.is_closing() and link.transport is None  # connection_lost ran
            assert not a._inbound and not a._links
            release.set()
            await asyncio.wait_for(done.wait(), 5.0)
            server.close()
            await server.wait_closed()
            return elapsed

        elapsed = asyncio.run(main())
        assert (0.4 if flush else 0.0) <= elapsed < 0.4 + 2.0, elapsed

    def test_stop_waits_for_a_slow_peer_to_take_the_write_buffer(self):
        """A live peer that reads late still gets every frame ``stop()``
        flushes: the flush budget covers the connection's write buffer, not
        only the queue, so nothing the peer takes within it is dropped."""

        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            a.send(0, 1, "probe")
            await wait_for(lambda: inbox == ["probe"], what="probe delivered")
            (accepted,) = b._inbound
            accepted.pause_reading()
            link = a._links[addrs[1]]
            link.transport.set_write_buffer_limits(high=1024)
            link.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            msgs = [f"{i:04d}" + "x" * 8192 for i in range(100)]
            for m in msgs:
                a.send(0, 1, m)
            await wait_for(lambda: link.paused, what="pause_writing")  # the peer is behind
            asyncio.get_running_loop().call_later(0.2, accepted.resume_reading)
            await a.stop(flush_timeout_s=5.0)
            await wait_for(lambda: len(inbox) == 1 + len(msgs), what="every flushed frame")
            assert inbox[1:] == msgs
            await b.stop()

        asyncio.run(main())

    def test_write_into_a_closing_connection_requeues_the_batch_first(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0}, reconnect_base_ms=5.0)
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            # A connection whose next write breaks it (what a reset peer
            # does to the real transport).
            broken = FakeTransport(break_on_write=True)
            link = a._links[addrs[1]] = _PeerLink(addrs[1], 1)
            link.transport = broken
            a.send(0, 1, "one")
            a.send(0, 1, "two")
            await asyncio.sleep(0.01)
            assert broken.written == [frame_of("one") + frame_of("two")]
            assert a.frames_sent == 0 and a.writes == 0  # not counted as sent
            a.send(0, 1, "three")
            await asyncio.sleep(0.01)
            assert [frame for _key, frame in link.frames] == [
                frame_of(p) for p in ("one", "two", "three")
            ]
            assert len(broken.written) == 1  # nothing more into a closing connection
            _Outbound(a, link).connection_lost(None)  # asyncio's next callback
            await wait_for(lambda: len(inbox) == 3, what="resend after re-dial")
            assert inbox == ["one", "two", "three"]
            assert a.frames_sent == 3
            await a.stop()
            await b.stop()

        asyncio.run(main())


class TestTransportTelemetry:
    def test_peer_transitions_fire_exactly_once_per_outage(self, tmp_path):
        """The backoff loop retries many times per outage; the transition
        events must be edge-triggered — one ``peer_unreachable`` and one
        ``peer_connected`` per outage, never one per dial attempt."""

        async def main():
            addrs = two_addrs()
            a = TcpTransport(
                addrs, local_sites={0}, reconnect_base_ms=5.0, fail_after_ms=60_000.0
            )
            a.bus.enable()
            inbox = []
            await a.start()

            def counts():
                return (
                    len(a.bus.filter(kind="peer_unreachable")),
                    len(a.bus.filter(kind="peer_connected")),
                )

            # Outage 1: peer not listening yet; several dials must fail.
            a.send(0, 1, CommitMsg(VirtualTime(1, 0), 1))
            await wait_for(
                lambda: a.metrics.value("transport.dial_failures") >= 3,
                what="several failed dial attempts",
            )
            assert counts() == (1, 0)

            b = TcpTransport(addrs, local_sites={1})
            b.register(1, lambda src, p: inbox.append(p))
            await b.start()
            await wait_for(lambda: len(inbox) == 1, what="delivery after outage 1")
            assert counts() == (1, 1)

            # Outage 2: the peer goes down again; a fresh transition pair.
            # A lone write to a freshly-dead connection can land in the
            # kernel buffer without error, so keep sending until the broken
            # pipe surfaces and the re-dial fails.
            await b.stop()
            for attempt in range(500):
                a.send(0, 1, CommitMsg(VirtualTime(2 + attempt, 0), 2))
                if counts()[0] == 2:
                    break
                await asyncio.sleep(0.01)
            assert counts()[0] == 2
            b2 = TcpTransport(addrs, local_sites={1})
            b2.register(1, lambda src, p: inbox.append(p))
            await b2.start()
            await wait_for(lambda: counts()[1] == 2, what="second reconnect")
            assert counts() == (2, 2)
            assert a.metrics.value("transport.peer_unreachable") == 2
            assert a.metrics.value("transport.reconnects") >= 1
            connected = a.bus.filter(kind="peer_connected")
            assert all(e.data["peer"] == 1 for e in connected)

            await a.stop()
            await b2.stop()

        asyncio.run(main())

    def test_traced_events_pair_across_transports(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            a.bus.enable()
            b.bus.enable()
            inbox = []
            a.register(0, lambda src, p: None)
            b.register(1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            for i in range(5):
                a.send(0, 1, CommitMsg(VirtualTime(i + 1, 0), i))
            await wait_for(lambda: len(inbox) == 5, what="all deliveries")
            sent = a.bus.filter(kind="message_sent")
            delivered = b.bus.filter(kind="message_delivered")
            assert [e.data["msg_id"] for e in sent] == [f"0:{i + 1}" for i in range(5)]
            # Every delivery pairs with its send — the cross-process
            # happens-before edges the merged timeline reconstructs.
            assert [e.data["msg_id"] for e in delivered] == [
                e.data["msg_id"] for e in sent
            ]
            assert all(e.data["msg_type"] == "CommitMsg" for e in delivered)
            assert all(str(e.txn_vt) == f"VT({i + 1}@0)" for i, e in enumerate(sent))
            await a.stop()
            await b.stop()

        asyncio.run(main())

    def test_untraced_transports_emit_nothing(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            a.send(0, 1, CommitMsg(VirtualTime(1, 0), 1))
            await wait_for(lambda: inbox, what="delivery")
            # Functional zero-overhead guard: no emission machinery entered.
            assert a.bus._seq == 0 and b.bus._seq == 0
            assert len(a.bus) == 0 and len(b.bus) == 0
            await a.stop()
            await b.stop()

        asyncio.run(main())

    def test_fail_stop_dumps_flight_recorder(self, tmp_path):
        from repro.obs import FlightRecorder

        async def main():
            addrs = two_addrs()
            a = TcpTransport(
                addrs, local_sites={0}, reconnect_base_ms=5.0, fail_after_ms=100.0
            )
            a.flight = FlightRecorder(str(tmp_path / "flight0.jsonl")).attach(a.bus)
            failed = []
            a.add_failure_listener(failed.append)
            await a.start()
            a.send(0, 1, CommitMsg(VirtualTime(1, 0), 1))  # port never answers
            await wait_for(lambda: failed, what="fail-stop declaration")
            assert a.flight.dumps == 1
            dump = (tmp_path / "flight0.jsonl").read_text().splitlines()
            import json

            header = json.loads(dump[0])
            assert header["flight"] == "repro-flight/1"
            assert "fail-stop: site 1" in header["reason"]
            # The ring captured the transition events leading up to it.
            kinds = {json.loads(line)["kind"] for line in dump[1:]}
            assert "peer_unreachable" in kinds
            await a.stop()

        asyncio.run(main())


class TestTwoProcessExample:
    def test_two_process_example_converges(self):
        """The CI smoke: two OS processes converge over real TCP."""
        result = subprocess.run(
            [sys.executable, str(REPO / "examples" / "two_process_tcp.py")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK: both processes converged" in result.stdout
        assert "identical state digests" in result.stdout
