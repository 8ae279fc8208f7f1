#!/usr/bin/env python3
"""Live multi-user chat on an asyncio event loop (real wall-clock time).

The other examples run on the deterministic discrete-event simulator; this
one drives the same DECAF stack over :class:`TcpTransport` with all three
sites in one process, so every message is a wire-codec frame delivered by
the event loop — demonstrating that the framework is transport-agnostic.
(``examples/two_process_tcp.py`` puts the sites in separate OS processes.)
Three users exchange messages; optimistic views render transcripts
immediately, and replicas converge.

Run:  python examples/chat_live.py
"""

import asyncio
import time

from repro import Session
from repro.apps import ChatRoom
from repro.transport import TcpTransport


async def main():
    print("== DECAF live chat (TCP transport, three sites on one event loop) ==\n")
    here = ("127.0.0.1", 0)  # one listener on an ephemeral port; nobody dials it
    transport = TcpTransport({0: here, 1: here, 2: here}, local_sites=(0, 1, 2))
    session = Session(transport=transport)
    alice, bob, carol = session.add_sites(3, prefix="user")
    await transport.start()

    # Establish the shared log with the real join protocol.
    log_a = alice.create_list("chatlog")
    assoc = alice.create_association("chat.assoc")
    alice.transact(lambda: assoc.create_relationship("chat.rel"))
    await transport.aquiesce()
    alice.join(assoc, "chat.rel", log_a)
    await transport.aquiesce()
    rooms = [ChatRoom(alice, log_a, author="alice")]
    for site, author in ((bob, "bob"), (carol, "carol")):
        invitation = assoc.make_invitation(note="team chat")  # one per joiner
        local_assoc = site.import_invitation(invitation, "chat.assoc")
        await transport.aquiesce()
        local_log = site.create_list("chatlog")
        site.join(local_assoc, "chat.rel", local_log)
        await transport.aquiesce()
        rooms.append(ChatRoom(site, local_log, author=author))

    script = [
        (0, "hello everyone!"),
        (1, "hi alice"),
        (2, "working on the DECAF reproduction"),
        (0, "optimistic views feel instant"),
        (1, "and the transcripts converge"),
    ]
    t0 = time.monotonic()
    for sender, text in script:
        rooms[sender].send(text)
        await asyncio.sleep(0.02)  # users type fast, sometimes overlapping
    await transport.aquiesce(settle_ms=200)
    elapsed = (time.monotonic() - t0) * 1000

    print(f"-- transcripts after {elapsed:.0f} ms of real time --")
    for room in rooms:
        print(f"   {room.author}'s view ({room.view.notifications} notifications):")
        for line in room.transcript():
            print(f"      {line}")
    assert rooms[0].transcript() == rooms[1].transcript() == rooms[2].transcript()
    assert len(rooms[0].transcript()) == len(script)
    await transport.stop()
    print("\nOK: identical transcripts on every site over a live transport.")


if __name__ == "__main__":
    asyncio.run(main())
