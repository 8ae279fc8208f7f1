"""Direct unit tests for each explorer oracle (repro.explore.oracles).

The integration suites exercise the oracles only through full trials,
where a violation means the *protocol* broke.  Here each oracle is fed a
hand-built :class:`TrialResult` — fake sites, objects, and view logs — so
every check is proven to fire on the exact evidence it guards against,
and to stay silent on the conforming baseline.  An oracle that silently
stopped detecting its violation class would pass every healthy
integration test; these fixtures are the proof of non-vacuity.
"""

from repro.core.transaction import TransactionOutcome, TxnState
from repro.explore.oracles import check_trial
from repro.explore.plan import exhaustive_config
from repro.explore.trial import TrialResult, TxnInfo
from repro.vtime import VirtualTime

VT1 = VirtualTime(10, 0)
VT2 = VirtualTime(20, 1)


class FakeNetwork:
    def __init__(self, failed=()):
        self.failed = set(failed)

    def is_failed(self, site_id):
        return site_id in self.failed


class FakeEngine:
    """The engine's status log: plain ``(counter, site)`` keys, ``TxnState``
    values, walked through ``resolved()`` as the oracles do."""

    def __init__(self, status):
        self.status = {tuple(vt): state for vt, state in status.items()}

    def resolved(self):
        for key, state in self.status.items():
            yield VirtualTime(*key), state


class FakeObj:
    def __init__(self, committed_value):
        self.committed_value = committed_value

    def value_at(self, vt, committed_only=False):
        return self.committed_value


class FakeSite:
    def __init__(self, site_id, status, digest, residue=None):
        self.site_id = site_id
        self.engine = FakeEngine(status)
        self._digest = digest
        self._residue = dict(residue or {})

    def state_digest(self):
        return dict(self._digest)

    def protocol_residue(self):
        return dict(self._residue)


class FakeView:
    """Stands in for both recording view classes (oracles only read .log)."""

    def __init__(self, log):
        self.log = list(log)


def make_result(
    *,
    status0=None,
    status1=None,
    values=None,
    digest1=None,
    residue0=None,
    outcome=None,
    views=False,
    pess_log=None,
    opt_log=None,
    failed=(),
):
    """A 2-site TrialResult with one committed rmw transaction at VT1.

    The defaults describe the conforming outcome (ctr incremented once,
    identical digests, no residue); each oracle test overrides exactly the
    evidence its check inspects.
    """
    status0 = {VT1: TxnState.COMMITTED} if status0 is None else status0
    status1 = dict(status0) if status1 is None else status1
    values = {"ctr": 1, "board": 0, "xa": 1000, "xb": 0} if values is None else values
    digest0 = {"root": (VT1.key, "1")}
    digest1 = digest0 if digest1 is None else digest1
    outcome = (
        TransactionOutcome(committed=True, vt=VT1) if outcome is None else outcome
    )

    config = exhaustive_config(2, [(0, "rmw")], views=views)
    sites = [
        FakeSite(0, status0, digest0, residue0),
        FakeSite(1, status1, digest1),
    ]
    objects = {
        name: {0: FakeObj(value), 1: FakeObj(value)} for name, value in values.items()
    }
    result = TrialResult(
        config=config,
        session=None,
        network=FakeNetwork(failed),
        sites=sites,
        objects=objects,
        infos=[
            TxnInfo(party=0, site=0, kind="rmw", value=None, amount=1, outcome=outcome)
        ],
    )
    if views:
        # Only ctr views attached: the oracles skip absent (site, obj) views.
        for sid in (0, 1):
            result.pess_views[(sid, "ctr")] = FakeView(
                pess_log if pess_log is not None else [(VirtualTime(1, 0), 0), (VT1, 1)]
            )
            result.opt_views[(sid, "ctr")] = FakeView(
                opt_log if opt_log is not None else [(VT1, 1)]
            )
    return result


def oracles_of(result):
    return sorted({v.oracle for v in check_trial(result)})


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------


def test_conforming_result_is_clean():
    assert check_trial(make_result()) == []


def test_conforming_result_with_views_is_clean():
    assert check_trial(make_result(views=True)) == []


def test_all_sites_failed_promises_nothing():
    assert check_trial(make_result(failed=(0, 1))) == []


# ----------------------------------------------------------------------
# status
# ----------------------------------------------------------------------


def test_status_flags_commit_abort_disagreement():
    result = make_result(status1={VT1: TxnState.ABORTED})
    violations = [v for v in check_trial(result) if v.oracle == "status"]
    assert violations and "committed at site 0" in violations[0].detail


def test_status_flags_initiator_commit_unlogged():
    # The initiator saw its transaction commit, but no live site's status
    # map records it (e.g. the commit summary was lost).
    result = make_result(
        status0={},
        values={"ctr": 0, "board": 0, "xa": 1000, "xb": 0},
        digest1=None,
    )
    assert "status" in oracles_of(result)


def test_status_ignores_dead_sites():
    # The disagreeing site is failed: fail-stop makes no promises for it.
    result = make_result(status1={VT1: TxnState.ABORTED}, failed=(1,))
    assert "status" not in oracles_of(result)


# ----------------------------------------------------------------------
# effect
# ----------------------------------------------------------------------


def test_effect_flags_value_diverging_from_serial_replay():
    # One committed increment: serial replay says ctr == 1, replicas hold 2.
    result = make_result(values={"ctr": 2, "board": 0, "xa": 1000, "xb": 0})
    violations = [v for v in check_trial(result) if v.oracle == "effect"]
    assert violations and violations[0].obj == "ctr"


def test_effect_ignores_aborted_transactions():
    # The only transaction aborted: baseline values must be expected.
    result = make_result(
        status0={VT1: TxnState.ABORTED},
        values={"ctr": 0, "board": 0, "xa": 1000, "xb": 0},
        outcome=TransactionOutcome(committed=False, aborted_no_retry=True, vt=VT1),
    )
    assert check_trial(result) == []


# ----------------------------------------------------------------------
# convergence
# ----------------------------------------------------------------------


def test_convergence_flags_digest_mismatch():
    result = make_result(digest1={"root": (VT2.key, "7")})
    violations = [v for v in check_trial(result) if v.oracle == "convergence"]
    assert violations and violations[0].site == 1


# ----------------------------------------------------------------------
# residue
# ----------------------------------------------------------------------


def test_residue_flags_leaked_protocol_state():
    result = make_result(residue0={"unresolved-transactions": ["vt=10 state=AWAITING"]})
    violations = [v for v in check_trial(result) if v.oracle == "residue"]
    assert violations and "unresolved-transactions" in violations[0].detail


# ----------------------------------------------------------------------
# pessimistic
# ----------------------------------------------------------------------


def test_pessimistic_flags_missing_bootstrap():
    result = make_result(views=True, pess_log=[])
    violations = [v for v in check_trial(result) if v.oracle == "pessimistic"]
    assert violations and "bootstrap" in violations[0].detail


def test_pessimistic_flags_non_monotonic_delivery():
    result = make_result(
        views=True, pess_log=[(VirtualTime(1, 0), 0), (VT1, 1), (VirtualTime(5, 0), 1)]
    )
    assert any(
        "non-monotonic" in v.detail
        for v in check_trial(result)
        if v.oracle == "pessimistic"
    )


def test_pessimistic_flags_lost_committed_write():
    # Bootstrap only: the committed write at VT1 was never delivered.
    result = make_result(views=True, pess_log=[(VirtualTime(1, 0), 0)])
    assert any(
        "lossless" in v.detail
        for v in check_trial(result)
        if v.oracle == "pessimistic"
    )


def test_pessimistic_flags_uncommitted_delivery():
    # VT2 was never committed anywhere, yet a pessimistic view saw it.
    result = make_result(
        views=True, pess_log=[(VirtualTime(1, 0), 0), (VT1, 1), (VT2, 2)]
    )
    assert any(
        "no committed status" in v.detail
        for v in check_trial(result)
        if v.oracle == "pessimistic"
    )


def test_pessimistic_flags_wrong_value():
    result = make_result(views=True, pess_log=[(VirtualTime(1, 0), 0), (VT1, 9)])
    assert any(
        "serial reconstruction" in v.detail
        for v in check_trial(result)
        if v.oracle == "pessimistic"
    )


# ----------------------------------------------------------------------
# optimistic
# ----------------------------------------------------------------------


def test_optimistic_flags_unsuperseded_final_notification():
    result = make_result(views=True, opt_log=[(VT1, 9)])
    violations = [v for v in check_trial(result) if v.oracle == "optimistic"]
    assert violations and violations[0].obj == "ctr"


def test_optimistic_accepts_superseded_history():
    # Intermediate wrong values are the optimistic contract; only the
    # final notification must match the committed outcome.
    result = make_result(views=True, opt_log=[(VirtualTime(5, 0), 9), (VT1, 1)])
    assert check_trial(result) == []
