"""MetricsRegistry: labels, aggregation, serialization."""

from repro.obs.metrics import NULL_METRICS, MetricsRegistry


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
        reg.count("c/z", 3.0, rank=2)
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


class TestCombination:
    def test_merge_adds_counters(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.count("x", 1, rank=0)
        b.count("x", 2, rank=0)
        b.count("y", 5)
        a.merge(b)
        assert a.value("x", rank=0) == 3
        assert a.value("y") == 5
        assert len(a) == 2

    def test_roundtrip(self):
        reg = MetricsRegistry()
        reg.count("c", 2, rank=1, phase="L", op="send")
        reg.count("h", 7.0)
        back = MetricsRegistry.from_dict(reg.to_dict())
        assert back.value("c", rank=1, phase="L") == 2
        assert back.value("h") == 7.0
        assert back.to_dict() == reg.to_dict()
        assert list(reg.to_dict()) == ["counters"]

    def test_rows_are_flat_json(self):
        reg = MetricsRegistry()
        reg.count("c", 1, rank=0)
        reg.count("h", 2.0, phase="L", op="send")
        assert reg.rows() == [
            {"kind": "counter", "name": "c", "rank": 0, "value": 1},
            {"kind": "counter", "name": "h", "phase": "L", "op": "send",
             "value": 2.0},
        ]


def test_null_metrics_discards_everything():
    NULL_METRICS.count("x", 1)
    assert len(NULL_METRICS) == 0
    assert NULL_METRICS.value("x") == 0.0
