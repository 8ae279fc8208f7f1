"""Capstone end-to-end scenario: a realistic collaborative session.

Mixes everything the framework provides in one long run: dynamic joins and
leaves, scalar and composite edits under contention, optimistic AND
pessimistic views, a checkpoint, a crash with recovery, and adaptive
optimism suppression — then checks global consistency.
"""

import pytest

from repro import Session, View
from repro.apps import ChatRoom, Whiteboard
from repro.core.adaptive import AdaptiveOptimismController
from repro.persist import checkpoint_site, restore_site
from repro import DInt, DList, DMap


def value(obj):
    return obj.value_at(obj.current_value_vt())


class AuditView(View):
    def __init__(self, obj):
        self.obj = obj
        self.states = []

    def update(self, changed, snapshot):
        self.states.append(snapshot.read(self.obj))


def test_full_collaborative_session():
    session = Session.simulated(latency_ms=30.0, seed=2024)
    host, editor, reviewer = session.add_sites(3, prefix="user")

    # --- Establish three shared artifacts --------------------------------
    counters = session.replicate(DInt, "revision", [host, editor, reviewer], initial=0)
    boards = session.replicate(DMap, "canvas", [host, editor, reviewer])
    logs = session.replicate(DList, "minutes", [host, editor, reviewer])
    session.settle()

    # Views: a pessimistic audit at the reviewer, optimistic everywhere else.
    audit = AuditView(counters[2])
    counters[2].attach(audit, "pessimistic")
    wb_host = Whiteboard(host, boards[0])
    wb_editor = Whiteboard(editor, boards[1])
    chat_host = ChatRoom(host, logs[0], author="host")
    chat_editor = ChatRoom(editor, logs[1], author="editor")

    # --- Phase 1: concurrent activity ------------------------------------
    controller = AdaptiveOptimismController(editor, window=8, enter_threshold=0.3)
    for round_no in range(6):
        host.transact(lambda: counters[0].set(counters[0].get() + 1))
        controller.transact(lambda: counters[1].set(counters[1].get() + 1))
        wb_host.draw("dot", round_no, 0, shape_id=f"h{round_no}")
        wb_editor.draw("dot", 0, round_no, shape_id=f"e{round_no}")
        chat_host.send(f"host round {round_no}")
        session.run_for(45.0)
    chat_editor.send("phase 1 done")
    session.settle()

    assert [value(c) for c in counters] == [12, 12, 12]
    assert value(boards[0]) == value(boards[1]) == value(boards[2])
    assert len(value(boards[0])) == 12
    assert chat_host.transcript() == chat_editor.transcript()
    # The pessimistic audit saw only committed, strictly advancing counts.
    numeric = [s for s in audit.states if isinstance(s, int)]
    assert numeric == sorted(numeric)
    assert numeric[-1] == 12

    # --- Phase 2: late joiner via invitation -----------------------------
    guest = session.add_site("guest")
    assoc = host.objects["s0:canvas.assoc"]
    guest_assoc = guest.import_invitation(assoc.make_invitation(), "canvas.assoc")
    session.settle()
    guest_board_obj = guest.create_map("canvas")
    out = guest.join(guest_assoc, "canvas.rel", guest_board_obj)
    session.settle()
    assert out.committed
    assert value(guest_board_obj) == value(boards[0])

    # --- Phase 3: checkpoint, crash, recover ------------------------------
    payload = checkpoint_site(editor)
    session.network.fail_site(editor.site_id)
    session.settle()
    # Survivors continue.
    host.transact(lambda: counters[0].set(counters[0].get() + 1))
    wb_host.draw("star", 9, 9, shape_id="after-crash")
    session.settle()
    assert value(counters[0]) == 13
    assert counters[2].get() == 13

    # The editor restarts with its checkpoint and rejoins the counter.
    editor2 = session.add_site("editor-restarted")
    restored = restore_site(editor2, payload)
    assert restored["revision"].get() == 12  # pre-crash committed state
    rev_assoc = host.objects["s0:revision.assoc"]
    editor2_assoc = editor2.import_invitation(rev_assoc.make_invitation(), "revision.assoc")
    session.settle()
    rejoin = editor2.join(editor2_assoc, "revision.rel", restored["revision"])
    session.settle()
    assert rejoin.committed
    assert restored["revision"].get() == 13  # reconciled missed update

    # --- Phase 4: the recovered site contributes again --------------------
    editor2.transact(lambda: restored["revision"].set(restored["revision"].get() + 1))
    session.settle()
    assert value(counters[0]) == 14
    assert counters[2].get() == 14
    assert audit.states[-1] == 14

    # --- Global hygiene ----------------------------------------------------
    for site in (host, reviewer, guest, editor2):
        assert not site.engine.pending_propagates
        assert not site.engine.deps.pending_vts()
    totals = session.counters()
    assert totals["commits"] > 30
