"""Wire-protocol and stream-vocabulary tests (no server, no sim)."""

from __future__ import annotations

import json

import pytest

from repro.obs.schema import validate
from repro.serve.protocol import (
    ProtocolError,
    encode_ndjson,
    event_schema,
    parse_ndjson_events,
)
from repro.workloads.stream import (
    MAX_OPS_PER_STEP,
    StreamSpecError,
    StreamWorkload,
    canonical_steps_json,
    decode_steps_json,
    default_steps,
    normalize_op,
    normalize_step,
    normalize_steps,
)


class TestNormalization:
    def test_defaults_filled(self):
        op = normalize_op({"op": "allreduce"})
        assert op["frame"] == "allreduce"
        assert op["size"] >= 1

    def test_unknown_op_rejected(self):
        with pytest.raises(StreamSpecError):
            normalize_op({"op": "gatherv"})

    def test_unknown_field_rejected(self):
        with pytest.raises(StreamSpecError):
            normalize_op({"op": "barrier", "bogus": 1})

    def test_step_requires_ops(self):
        with pytest.raises(StreamSpecError):
            normalize_step({})

    def test_ranks_selector_forms(self):
        a = normalize_op({"op": "compute", "seconds": 0.1, "ranks": "all"})
        b = normalize_op({"op": "compute", "seconds": 0.1,
                          "ranks": [3, 1, 1, 2]})
        c = normalize_op({"op": "compute", "seconds": 0.1,
                          "ranks": {"mod": 2, "eq": 1}})
        assert a["ranks"] == "all"
        assert b["ranks"] == [1, 2, 3]
        assert c["ranks"] == {"mod": 2, "eq": 1}

    def test_canonical_json_is_stable(self):
        steps = default_steps()
        once = canonical_steps_json(steps)
        again = canonical_steps_json(normalize_steps(json.loads(once)))
        assert once == again

    def test_decode_roundtrip(self):
        steps = default_steps()
        assert decode_steps_json(canonical_steps_json(steps)) == steps

    def test_workload_uses_canonical_params(self):
        w = StreamWorkload()
        assert w.iterations == len(default_steps())


class TestNDJSON:
    def test_parse_and_encode_roundtrip(self):
        steps = default_steps()
        parsed = parse_ndjson_events(encode_ndjson(steps))
        assert parsed == steps

    def test_blank_lines_skipped(self):
        body = b'\n{"ops":[{"op":"barrier"}]}\n\n'
        assert len(parse_ndjson_events(body)) == 1

    def test_bad_json_names_line(self):
        body = b'{"ops":[{"op":"barrier"}]}\nnot json\n'
        with pytest.raises(ProtocolError, match="line 2"):
            parse_ndjson_events(body)

    def test_bad_vocabulary_rejected_atomically(self):
        body = b'{"ops":[{"op":"barrier"}]}\n{"ops":[{"op":"nope"}]}\n'
        with pytest.raises(ProtocolError):
            parse_ndjson_events(body)

    def test_non_utf8_rejected(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            parse_ndjson_events(b"\xff\xfe")

    def test_ops_cap_enforced(self):
        body = encode_ndjson(
            [{"ops": [{"op": "barrier"}] * (MAX_OPS_PER_STEP + 1)}])
        with pytest.raises(ProtocolError):
            parse_ndjson_events(body)


class TestSchema:
    def test_schema_loads_from_checkout(self):
        assert event_schema() is not None

    def test_default_steps_conform(self):
        schema = event_schema()
        for step in default_steps():
            assert validate(step, schema) == []

    def test_schema_rejects_extra_top_level_field(self):
        schema = event_schema()
        assert validate({"ops": [], "extra": 1}, schema)

    def test_schema_rejects_unknown_op(self):
        schema = event_schema()
        errors = validate({"ops": [{"op": "gatherv"}]}, schema)
        assert errors
