"""Tests of the benchmark's own code: inputs, reference, percentiles, checks, spans."""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from pipebench import reference  # noqa: E402
from pipebench.common import PROBE_REFERENCE_MS, at_reference_speed  # noqa: E402
from pipebench.ingest import Cycle, scaled  # noqa: E402
from pipebench.inputs import EPOCH_PAIRS, RING_EPOCHS, ZipfStream, batches  # noqa: E402
from pipebench.spans import ROOT, Tracer, layer_metrics  # noqa: E402
from pipebench.stats import (  # noqa: E402
    TooFewSamples,
    epoch_rate,
    percentile,
    samples_needed,
    spread,
)


def _profile(stream: ZipfStream, rounds: int) -> list[list[tuple[int, int]]]:
    """Per round: the sorted (pairs, distinct items) of every user."""
    profile = []
    for _ in range(rounds):
        pairs, _ranks, _slots = stream.next_round_pairs()
        items: dict[object, set] = {}
        sent = Counter()
        for user, item in pairs:
            items.setdefault(user, set()).add(item)
            sent[user] += 1
        profile.append(sorted((sent[user], len(items[user])) for user in items))
    return profile


class TestInputs:
    @pytest.mark.parametrize("labels", ["int", "dotted"])
    def test_same_seed_same_pairs(self, labels):
        first = ZipfStream(5, 2000, labels=labels)
        second = ZipfStream(5, 2000, labels=labels)
        for _ in range(3):
            assert first.next_round_pairs()[0] == second.next_round_pairs()[0]

    def test_other_seed_other_labels(self):
        assert ZipfStream(1, 2000).next_round_pairs()[0] != ZipfStream(2, 2000).next_round_pairs()[0]

    @pytest.mark.parametrize("labels", ["int", "dotted"])
    def test_cardinality_profile_is_seed_independent(self, labels):
        profiles = [_profile(ZipfStream(seed, 3000, labels=labels), 6) for seed in (1, 2, 99)]
        assert profiles[0] == profiles[1] == profiles[2]

    def test_rounds_are_epochs_of_whole_batches(self):
        pairs, ranks, slots = ZipfStream(3, 500).next_round_pairs()
        assert len(pairs) == len(ranks) == len(slots) == EPOCH_PAIRS
        assert [len(batch) for batch in batches(pairs)] == [2048] * 8

    def test_items_repeat_once_the_ring_wraps(self):
        stream = ZipfStream(4, 100)
        rounds = [stream.next_round_pairs()[0] for _ in range(RING_EPOCHS + 2)]
        heavy = stream.user_label(0)
        items = [item for pairs in rounds for user, item in pairs if user == heavy]
        assert len(set(items)) == stream.ring[0] < len(items)

    def test_hot_ranks_appear_in_every_round(self):
        stream = ZipfStream(6, 5000)
        hot = {stream.user_label(rank) for rank in stream.hot_ranks()}
        for _ in range(4):
            users = {user for user, _item in stream.next_round_pairs()[0]}
            assert hot <= users


class TestReference:
    EPOCHS = [
        [("a", 1), ("a", 2), ("b", 1), ("a", 1)],
        [("a", 1), ("a", 3), ("b", 1), ("b", 1), ("c", 9)],
    ]

    def test_additive_counts_sum_per_epoch_distinct_items(self):
        counts = reference.exact_window_counts(self.EPOCHS, reference.ADDITIVE)
        assert counts == {"a": 4, "b": 2, "c": 1}

    def test_exact_counts_distinct_items_over_the_window(self):
        counts = reference.exact_window_counts(self.EPOCHS, reference.EXACT)
        assert counts == {"a": 3, "b": 1, "c": 1}

    def test_unknown_semantics_is_refused(self):
        with pytest.raises(ValueError):
            reference.exact_window_counts(self.EPOCHS, "union")

    def test_rse(self):
        counts = {"a": 10, "b": 20}
        estimates = {"a": 11.0, "b": 18.0}
        assert reference.answer_rse(estimates, counts, ["a", "b"]) == pytest.approx(0.1)
        assert reference.top_users(counts, 1) == ["b"]


class TestPercentile:
    def test_needs_ten_samples_beyond(self):
        assert samples_needed(95) == 200
        assert samples_needed(99) == 1000
        assert samples_needed(50) == 20
        with pytest.raises(TooFewSamples):
            percentile(list(range(199)), 95)
        with pytest.raises(TooFewSamples):
            percentile(list(range(999)), 99)
        assert percentile(list(range(200)), 95) == pytest.approx(np.percentile(range(200), 95))
        assert percentile(list(range(1000)), 99) == pytest.approx(989.01)

    def test_epoch_rate_is_total_pairs_over_total_time(self):
        assert epoch_rate([0.5, 1.5]) == pytest.approx(2 * EPOCH_PAIRS / 2.0)

    def test_each_timing_is_scaled_by_its_own_cycles_probe(self):
        slow = Cycle(traced=False, probe_ms=2 * PROBE_REFERENCE_MS, busy_s=0.5,
                     observe_ms=[40.0, 60.0], query_ms=[2.0], restore_s=0.3)
        fast = Cycle(traced=False, probe_ms=PROBE_REFERENCE_MS, busy_s=0.25,
                     observe_ms=[20.0, 30.0], query_ms=[1.0])
        readings = scaled([slow, fast])
        assert readings["busy_s"] == [0.25, 0.25]
        assert readings["observe_ms"] == [20.0, 30.0, 20.0, 30.0]
        assert readings["query_ms"] == [1.0, 1.0]
        assert readings["restore_s"] == [0.15]
        assert at_reference_speed(3.0, PROBE_REFERENCE_MS / 2) == 6.0

    def test_spread(self):
        summary = spread([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary["median"] == 3.0
        assert summary["rel_spread"] == pytest.approx((summary["q3"] - summary["q1"]) / 3.0)


class TestOutputChecks:
    ESTIMATES = {"u1": 9.0, "u2": 7.5, "u3": 7.5, "u4": 1.0}

    def test_correct_top_passes_and_ties_compare_by_value(self):
        assert reference.check_top([("u1", 9.0), ("u2", 7.5)], self.ESTIMATES, 2) == []
        assert reference.check_top([("u1", 9.0), ("u3", 7.5)], self.ESTIMATES, 2) == []

    def test_perturbed_top_fails(self):
        nudged = float(np.nextafter(9.0, 10.0))
        assert reference.check_top([("u1", nudged), ("u2", 7.5)], self.ESTIMATES, 2)
        assert reference.check_top([("u1", 9.0), ("u4", 1.0)], self.ESTIMATES, 2)


class TestSpans:
    def test_self_time_and_coverage_count_only_work_under_the_root(self):
        tracer = Tracer()
        tracer.spans = [
            [ROOT, 0.0, 10.0, -1, "main"],
            ["ingest.encode", 1.0, 3.0, 0, "main"],
            ["monitor.sliding", 4.0, 9.0, 0, "main"],
            ["monitor.merge", 5.0, 8.0, 2, "main"],
            ["monitor.sliding", 20.0, 25.0, -1, "main"],
        ]
        totals = tracer.layer_totals()
        assert totals[ROOT]["self_s"] == pytest.approx(3.0)
        assert totals["monitor.sliding"]["self_s"] == pytest.approx(2.0 + 5.0)
        assert totals["monitor.sliding"]["under_root_s"] == pytest.approx(2.0)
        assert totals["monitor.merge"]["under_root_s"] == pytest.approx(3.0)
        assert totals["monitor.sliding"]["calls"] == 2

    def test_specific_coverage_leaves_out_the_catch_all_self_times(self):
        tracer = Tracer()
        tracer.spans = [
            [ROOT, 0.0, 10.0, -1, "main"],
            ["ingest.window", 0.0, 6.0, 0, "main"],
            ["ingest.encode", 1.0, 2.0, 1, "main"],
            ["monitor.evaluate", 6.0, 10.0, 0, "main"],
            ["monitor.topk", 7.0, 8.0, 3, "main"],
        ]
        metrics = layer_metrics(tracer)
        assert metrics["trace.coverage"][0] == pytest.approx(1.0)
        assert metrics["trace.coverage_specific"][0] == pytest.approx(0.2)

    def test_install_records_spans_and_uninstall_restores(self):
        from repro.monitor import MonitorSpec
        from repro.monitor.spreader import SpreaderMonitor

        original = SpreaderMonitor.__dict__["observe"]
        tracer = Tracer()
        tracer.install()
        try:
            monitor = MonitorSpec(method="FreeRS", memory_bits=1 << 14, epoch_pairs=64).build()
            monitor.observe([(user, item) for user in range(5) for item in range(20)])
        finally:
            tracer.uninstall()
        assert SpreaderMonitor.__dict__["observe"] is original
        names = {span[0] for span in tracer.spans}
        assert {ROOT, "ingest.window", "ingest.encode", "ingest.kernel", "monitor.topk"} <= names
        assert all(span[2] >= span[1] for span in tracer.spans)
