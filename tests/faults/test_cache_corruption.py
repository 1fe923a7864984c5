"""RunCache integrity: corrupt entries are misses, never stale results."""

import pickle

from repro.harness.cache import RunCache, digest_of
from repro.obs import Recorder


def _store(cache, key="payload"):
    digest = digest_of(key)
    cache.put(digest, {"value": 42})
    return digest


def test_round_trip(tmp_path):
    cache = RunCache(tmp_path)
    digest = _store(cache)
    assert cache.get(digest) == {"value": 42}
    assert cache.stats.hits == 1


def test_bit_flip_is_an_invalidating_miss(tmp_path):
    cache = RunCache(tmp_path)
    digest = _store(cache)
    path = cache.path_for(digest)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))

    assert cache.get(digest) is None
    assert cache.stats.invalidated == 1
    assert cache.stats.misses == 1
    assert not path.exists(), "corrupt entries must be deleted"


def test_truncated_entry_is_a_miss(tmp_path):
    cache = RunCache(tmp_path)
    digest = _store(cache)
    path = cache.path_for(digest)
    path.write_bytes(path.read_bytes()[:10])
    assert cache.get(digest) is None
    assert cache.stats.invalidated == 1


def test_checksum_catches_blob_swap(tmp_path):
    # A structurally valid payload whose blob does not match its checksum
    # must not be served (this is what plain pickling would miss).
    cache = RunCache(tmp_path)
    digest = _store(cache)
    path = cache.path_for(digest)
    payload = pickle.loads(path.read_bytes())
    payload["blob"] = pickle.dumps({"value": 666})
    path.write_bytes(pickle.dumps(payload))
    assert cache.get(digest) is None
    assert cache.stats.invalidated == 1


def test_wrong_schema_is_a_miss(tmp_path):
    cache = RunCache(tmp_path)
    digest = _store(cache)
    stale = RunCache(tmp_path, schema=cache.schema,
                     fingerprint=cache.fingerprint)
    path = cache.path_for(digest)
    payload = pickle.loads(path.read_bytes())
    payload["schema"] = -1
    path.write_bytes(pickle.dumps(payload))
    assert stale.get(digest) is None
    assert stale.stats.invalidated == 1


def test_corruption_is_observable(tmp_path):
    rec = Recorder()
    cache = RunCache(tmp_path, instrument=rec)
    digest = _store(cache)
    path = cache.path_for(digest)
    path.write_bytes(b"garbage")
    assert cache.get(digest) is None
    events = [i for i in rec.instants if i.name == "cache_corrupt"]
    assert len(events) == 1
    assert events[0].cat == "fault"
    assert events[0].args["digest"] == digest
    assert cache.stats.invalidated == 1
    assert not rec.metrics.names()  # the instant is the one record
