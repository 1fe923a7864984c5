"""MetricsRegistry: labels, aggregation, serialization."""

from repro.obs.metrics import NULL_METRICS, Histogram, MetricsRegistry


class TestCounters:
    def test_wildcard_aggregation(self):
        reg = MetricsRegistry()
        reg.count("p2p/bytes", 10, rank=0, op="send")
        reg.count("p2p/bytes", 20, rank=1, op="send")
        reg.count("p2p/bytes", 5, rank=0, op="recv")
        assert reg.value("p2p/bytes") == 35
        assert reg.value("p2p/bytes", rank=0) == 15
        assert reg.value("p2p/bytes", op="send") == 30
        assert reg.value("p2p/bytes", rank=1, op="send") == 20
        assert reg.value("nope") == 0.0

    def test_phase_label(self):
        reg = MetricsRegistry()
        reg.count("chameleon/state_markers", 3, phase="AT")
        reg.count("chameleon/state_markers", 7, phase="C")
        assert reg.value("chameleon/state_markers", phase="AT") == 3
        assert reg.value("chameleon/state_markers") == 10

    def test_has_and_names(self):
        reg = MetricsRegistry()
        reg.count("a/x", 1)
        reg.observe("c/z", 3.0)
        assert reg.has("a/x") and reg.has("c/z")
        assert not reg.has("a")
        assert reg.names() == ["a/x", "c/z"]

    def test_labels_sorted(self):
        reg = MetricsRegistry()
        reg.count("m", 1, rank=3)
        reg.count("m", 1, rank=0)
        reg.count("m", 1)
        keys = reg.labels("m")
        assert [k[1] for k in keys] == [None, 0, 3]


class TestHistograms:
    def test_observe_and_merge(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 1000.0):
            reg.observe("lat", v, rank=0)
        reg.observe("lat", 4.0, rank=1)
        merged = reg.histogram("lat")
        assert merged.count == 4
        assert merged.max == 1000.0
        assert reg.histogram("lat", rank=1).count == 1

    def test_histogram_mean_empty(self):
        assert Histogram().mean == 0.0


class TestCombination:
    def test_merge_adds_counters(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.count("x", 1, rank=0)
        b.count("x", 2, rank=0)
        b.count("y", 5)
        b.observe("h", 3.0)
        a.merge(b)
        assert a.value("x", rank=0) == 3
        assert a.value("y") == 5
        assert a.histogram("h").count == 1

    def test_roundtrip(self):
        reg = MetricsRegistry()
        reg.count("c", 2, rank=1, phase="L", op="send")
        reg.observe("h", 7.0)
        back = MetricsRegistry.from_dict(reg.to_dict())
        assert back.value("c", rank=1, phase="L") == 2
        assert back.histogram("h").total == 7.0
        assert back.to_dict() == reg.to_dict()

    def test_rows_are_flat_json(self):
        reg = MetricsRegistry()
        reg.count("c", 1, rank=0)
        reg.observe("h", 2.0)
        rows = reg.rows()
        kinds = {r["kind"] for r in rows}
        assert kinds == {"counter", "histogram"}
        assert all("name" in r for r in rows)


def test_null_metrics_discards_everything():
    NULL_METRICS.count("x", 1)
    NULL_METRICS.observe("z", 3.0)
    assert len(NULL_METRICS) == 0
    assert NULL_METRICS.value("x") == 0.0
