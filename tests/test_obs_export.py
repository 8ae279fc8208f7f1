"""Schema validation for the timeline exporters (repro.obs.export).

The acceptance bar: a full explorer trial exports Chrome trace-event JSON
that Perfetto accepts — every committed transaction has a complete
submit→commit span, every abort span ends in ``aborted``, and span/event
timestamps are monotonic per site track.  Also checks JSONL structure and
byte-determinism of both exporters.
"""

import json

from repro.explore import run_trial, sample_config
from repro.obs import build_spans, chrome_trace_json, to_chrome_trace, to_jsonl
from repro.obs.spans import _SPAN_KINDS

#: Chrome trace-event phases this exporter may legally emit.
ALLOWED_PHASES = {"M", "i", "X"}


def observed_trial(seed=0, index=0, **kwargs):
    config = sample_config(seed, index, **kwargs)
    return run_trial(config, observe=True)


class TestChromeTraceSchema:
    def setup_method(self):
        self.result = observed_trial()
        self.events = list(self.result.events)
        self.document = to_chrome_trace(self.events)

    def test_top_level_shape(self):
        assert isinstance(self.document["traceEvents"], list)
        assert self.document["displayTimeUnit"] == "ms"
        # Must be valid JSON end to end (Perfetto's first requirement).
        json.loads(chrome_trace_json(self.events))

    def test_every_entry_is_well_formed(self):
        for entry in self.document["traceEvents"]:
            assert entry["ph"] in ALLOWED_PHASES
            assert isinstance(entry["pid"], int)
            assert isinstance(entry["tid"], int)
            assert isinstance(entry["name"], str) and entry["name"]
            if entry["ph"] != "M":
                assert isinstance(entry["ts"], int) and entry["ts"] >= 0
            if entry["ph"] == "X":
                assert isinstance(entry["dur"], int) and entry["dur"] >= 1

    def test_every_site_has_metadata_track_names(self):
        sites = {e.site for e in self.events}
        meta = [e for e in self.document["traceEvents"] if e["ph"] == "M"]
        named = {(m["pid"], m["name"], m["args"]["name"]) for m in meta}
        for site in sites:
            assert (site, "process_name", f"site {site}") in named

    def test_committed_txns_have_complete_spans(self):
        spans = build_spans(self.events)
        committed = [s for s in spans if s.resolution == "committed"]
        assert committed, "a healthy trial must commit transactions"
        slices = {
            e["name"]: e for e in self.document["traceEvents"] if e["ph"] == "X"
        }
        for span in committed:
            assert span.complete, f"committed span {span.vt} missing submit"
            assert span.submit_ms is not None and span.resolved_ms is not None
            entry = slices[f"txn {span.vt} [committed]"]
            assert entry["pid"] == span.origin
            assert entry["args"]["resolution"] == "committed"

    def test_abort_spans_end_aborted(self):
        # The rmw workload under contention produces aborts; if this seed
        # has none, the invariant holds vacuously but we assert on a seed
        # known to retry (sample 0 does).
        spans = build_spans(self.events)
        aborted = [s for s in spans if s.resolution == "aborted"]
        assert aborted, "seed 0 trial 0 is known to produce conflict aborts"
        for span in aborted:
            lifecycle = [
                e for e in self.events if e.txn_vt == span.vt and e.kind in _SPAN_KINDS
            ]
            assert len(lifecycle) == span.event_count
            assert lifecycle[-1].kind in ("aborted", "view_notified")
            assert span.abort_reason is not None
            entry_name = f"txn {span.vt} [aborted]"
            matches = [
                e for e in self.document["traceEvents"]
                if e["ph"] == "X" and e["name"] == entry_name
            ]
            assert len(matches) == 1

    def test_timestamps_monotonic_per_site_track(self):
        last = {}
        for entry in self.document["traceEvents"]:
            if entry["ph"] == "M":
                continue
            key = (entry["pid"], entry["tid"])
            assert entry["ts"] >= last.get(key, 0), f"ts regressed on track {key}"
            last[key] = entry["ts"]

    def test_span_slices_nest_within_trial_time(self):
        horizon = max(e.time_ms for e in self.events) * 1000 + 1
        for entry in self.document["traceEvents"]:
            if entry["ph"] == "X":
                assert entry["ts"] + entry["dur"] <= horizon + 1000


class TestExportDeterminism:
    def test_chrome_trace_is_byte_identical_across_runs(self):
        a = chrome_trace_json(observed_trial().events)
        b = chrome_trace_json(observed_trial().events)
        assert a == b

    def test_jsonl_is_byte_identical_and_line_valid(self):
        a = to_jsonl(observed_trial().events)
        b = to_jsonl(observed_trial().events)
        assert a == b
        lines = a.strip().split("\n")
        assert lines
        seqs = []
        for line in lines:
            record = json.loads(line)
            assert {"seq", "time_ms", "site", "kind", "txn_vt", "data"} <= set(record)
            seqs.append(record["seq"])
        assert seqs == sorted(seqs)

    def test_empty_stream_exports(self):
        assert to_jsonl([]) == ""
        document = to_chrome_trace([])
        assert document["traceEvents"] == []
        json.loads(chrome_trace_json([]))

    def test_empty_timeline_chrome_trace_is_loadable_and_stable(self):
        # An empty timeline must still export a structurally valid,
        # byte-stable Chrome trace document (no metadata for phantom
        # sites, no slices), so tooling can open "nothing happened" runs.
        payload = chrome_trace_json([])
        assert payload == chrome_trace_json([])
        document = json.loads(payload)
        assert document["traceEvents"] == []
        assert document["displayTimeUnit"] == "ms"
        assert payload.endswith("\n") or payload == json.dumps(document)
