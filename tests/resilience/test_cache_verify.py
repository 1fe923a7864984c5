"""`RunCache.verify` and the `repro cache verify` CLI.

Verification re-uses the exact schema/key/checksum validation path of
``get``: anything verify flags as corrupt would also have been deleted
lazily on read, and vice versa.  Orphans — leftover ``.tmp`` spills and
entries stranded in stale generation directories — are reported (and
removed with ``--fix``) even though reads would never touch them.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.harness.cache import RunCache
from repro.obs.instrument import Recorder
from repro.resilience import HostFaultPlan, apply_cache_faults


@pytest.fixture()
def cache(tmp_path):
    return RunCache(root=tmp_path / "cache")


def _fill(cache, n=3):
    digests = [f"{i:02x}" + "ab" * 31 for i in range(n)]
    for i, digest in enumerate(digests):
        cache.put(digest, {"payload": i})
    return digests


class TestVerify:
    def test_clean_cache(self, cache):
        digests = _fill(cache)
        report = cache.verify()
        assert report.clean
        assert report.scanned == len(digests)
        assert report.ok == len(digests)
        assert report.removed == 0

    def test_flip_detected_everywhere_get_would_reject(self, cache):
        digests = _fill(cache)
        damaged = apply_cache_faults(
            HostFaultPlan(cache_mode="flip"), cache, digests=digests[:2]
        )
        assert len(damaged) == 2
        report = cache.verify()
        assert sorted(report.corrupt) == sorted(damaged)
        assert report.ok == 1
        # verify() and get() agree: the flagged entries read as misses.
        assert cache.get(digests[0]) is None
        assert cache.get(digests[2]) == {"payload": 2}

    def test_truncation_detected(self, cache):
        digests = _fill(cache, n=2)
        apply_cache_faults(HostFaultPlan(cache_mode="truncate"), cache)
        report = cache.verify()
        assert len(report.corrupt) == 2
        assert report.ok == 0
        assert all(cache.get(d) is None for d in digests)

    def test_orphans_tmp_and_stale_generations(self, cache):
        _fill(cache, n=1)
        gen_dir = cache.root / cache.generation
        (gen_dir / "aa").mkdir(parents=True, exist_ok=True)
        (gen_dir / "aa" / "spill.tmp").write_bytes(b"partial write")
        stale = cache.root / "v1-000000000000" / "ab"
        stale.mkdir(parents=True)
        (stale / ("ab" * 32 + ".pkl")).write_bytes(b"old generation")
        report = cache.verify()
        assert report.scanned == 1 and report.ok == 1
        assert len(report.orphaned) == 2
        assert not report.clean

    def test_fix_removes_damage(self, cache):
        digests = _fill(cache)
        apply_cache_faults(HostFaultPlan(cache_mode="flip"), cache)
        (cache.root / "leftover.tmp").write_bytes(b"x")
        report = cache.verify(fix=True)
        assert report.removed == len(digests) + 1
        after = cache.verify()
        assert after.clean
        assert after.scanned == 0

    def test_corruption_counts_through_fault_instrument(self, tmp_path):
        recorder = Recorder()
        cache = RunCache(root=tmp_path / "cache", instrument=recorder)
        _fill(cache, n=2)
        apply_cache_faults(HostFaultPlan(cache_mode="flip"), cache)
        before = cache.stats.invalidated
        cache.verify()
        assert cache.stats.invalidated == before + 2
        corrupt = [i for i in recorder.instants
                   if (i.cat, i.name) == ("fault", "cache_corrupt")]
        assert len(corrupt) == 2
        assert not recorder.metrics.names()

    def test_report_as_dict_roundtrips_json(self, cache):
        _fill(cache, n=1)
        report = cache.verify()
        data = json.loads(json.dumps(report.as_dict()))
        assert data["scanned"] == 1
        assert data["generation"] == cache.generation


class TestCacheVerifyCLI:
    def test_clean_exits_zero(self, tmp_path, capsys):
        cache = RunCache(root=tmp_path / "cache")
        _fill(cache, n=2)
        code = main(["cache", "verify", "--cache-dir",
                     str(tmp_path / "cache")])
        assert code == 0
        assert "cache clean" in capsys.readouterr().out

    def test_damage_exits_nonzero_then_fix_repairs(self, tmp_path, capsys):
        cache = RunCache(root=tmp_path / "cache")
        _fill(cache, n=2)
        apply_cache_faults(HostFaultPlan(cache_mode="truncate"), cache)
        assert main(["cache", "verify", "--cache-dir",
                     str(tmp_path / "cache")]) == 1
        assert main(["cache", "verify", "--fix", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        assert main(["cache", "verify", "--cache-dir",
                     str(tmp_path / "cache")]) == 0

    def test_json_report(self, tmp_path, capsys):
        cache = RunCache(root=tmp_path / "cache")
        _fill(cache, n=1)
        report_path = tmp_path / "cache-report.json"
        code = main(["cache", "verify", "--cache-dir",
                     str(tmp_path / "cache"), "--report", str(report_path)])
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["ok"] == 1 and data["corrupt"] == []
