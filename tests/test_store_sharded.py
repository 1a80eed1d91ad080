"""Tests for the sharded certificate-store layout (repro.api.store).

The store contract: entries live in fingerprint-prefix shards, writes
are atomic under concurrent writers (unique temp + os.replace), stale
temp files are reaped in the shards and the artifact cache alike, the
store accounts for itself (stats/len/entries + StoreMetrics), and a
byte budget evicts least-recently-used entries.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import (
    CertificateStore,
    StoreError,
    StoreMetrics,
    certify,
)
from repro.api.artifacts import seal, unseal
from repro.api.store import ORPHAN_AGE_SECONDS, SHARD_PREFIX_LEN
from repro.experiments import lanewidth_workload

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _certified(seed=81, n=18, store=None):
    sequence, graph = lanewidth_workload(3, n, seed)
    report = certify(
        sequence, "connected", rng=random.Random(seed + 1), store=store
    )
    assert report.accepted and not report.refused
    return report, graph


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestShardedLayout:
    def test_entry_lands_in_its_shard(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(seed=81)
        path = store.save(report)
        fingerprint = graph.fingerprint()
        assert path.parent == tmp_path / fingerprint[:SHARD_PREFIX_LEN]
        assert path == store.path_for(fingerprint, "connected")
        # Nothing cert-shaped sits directly under the root.
        assert not list(tmp_path.glob("*.cert"))

    def test_distinct_prefixes_get_distinct_shards(self, tmp_path):
        store = CertificateStore(tmp_path)
        fingerprints = set()
        seed = 82
        # Graphs until two fingerprints disagree on their shard prefix.
        while len({fp[:SHARD_PREFIX_LEN] for fp in fingerprints}) < 2:
            report, graph = _certified(seed=seed, n=12)
            store.save(report)
            fingerprints.add(graph.fingerprint())
            seed += 1
            assert seed < 120, "fingerprint prefixes suspiciously clustered"
        stats = store.stats()
        assert stats["shards"] >= 2
        assert stats["entries"] == len(fingerprints)

    def test_stats_len_entries_across_layouts(self, tmp_path):
        # Store-backed certifies fill the shards and the artifact cache;
        # only the shards hold entries.
        store = CertificateStore(tmp_path)
        _report_a, graph_a = _certified(seed=83, store=store)
        _report_b, graph_b = _certified(seed=84, store=store)
        assert list((tmp_path / "artifacts").glob("*.art"))

        assert len(store) == 2
        stats = store.stats()
        assert stats["entries"] == 2
        shards = {graph_a.fingerprint()[:2], graph_b.fingerprint()[:2]}
        assert stats["shards"] == len(shards)
        assert stats["bytes"] == sum(
            p.stat().st_size for _f, _k, p in store.entries()
        )
        assert stats["tmp_orphans"] == 0
        assert stats["byte_budget"] is None

        listed = {(f, k) for f, k, _p in store.entries()}
        assert listed == {
            (graph_a.fingerprint(), "connected"),
            (graph_b.fingerprint(), "connected"),
        }

    def test_empty_store_accounting(self, tmp_path):
        store = CertificateStore(tmp_path / "never-created")
        assert len(store) == 0
        assert store.entries() == []
        assert store.stats()["entries"] == 0


class TestAtomicSave:
    def test_injected_publish_failure_leaves_no_partial_entry(
        self, tmp_path, monkeypatch
    ):
        store = CertificateStore(tmp_path)
        report, graph = _certified(seed=89)
        fingerprint = graph.fingerprint()

        import repro.api.store as store_module

        def exploding_replace(src, dst):
            raise OSError("injected mid-write failure")

        monkeypatch.setattr(store_module.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="injected"):
            store.save(report)
        monkeypatch.undo()

        # No entry was published, and the temp file was reclaimed.
        assert not store.path_for(fingerprint, "connected").exists()
        assert len(store) == 0
        assert store.stats()["tmp_orphans"] == 0
        assert store.metrics.snapshot()["saves"] == 0

    def test_injected_failure_preserves_previous_entry(
        self, tmp_path, monkeypatch
    ):
        store = CertificateStore(tmp_path)
        report, graph = _certified(seed=90, store=store)
        fingerprint = graph.fingerprint()

        import repro.api.store as store_module

        real_replace = os.replace

        def exploding_replace(src, dst):
            raise OSError("injected overwrite failure")

        monkeypatch.setattr(store_module.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="injected"):
            store.save(report)
        monkeypatch.setattr(store_module.os, "replace", real_replace)

        # The overwrite failed wholesale: the old entry is untouched.
        loaded = store.load(fingerprint, "connected")
        assert loaded.accepted
        assert len(store) == 1

    def test_concurrent_same_key_writers_use_distinct_temps(self, tmp_path):
        """Two saves of one key must never share a temp path — the exact
        interleaving the old deterministic ``.cert.tmp`` name allowed."""
        store = CertificateStore(tmp_path)
        report, graph = _certified(seed=91)
        seen = []

        import repro.api.store as store_module

        real_replace = os.replace

        def recording_replace(src, dst):
            seen.append(str(src))
            return real_replace(src, dst)

        try:
            store_module.os.replace = recording_replace
            store.save(report)
            store.save(report)
        finally:
            store_module.os.replace = real_replace
        assert len(seen) == 2
        assert seen[0] != seen[1]
        assert all(name.endswith(".tmp") for name in seen)

    def test_orphan_cleanup(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(seed=92, store=store)
        shard = store.shard_for(graph.fingerprint())
        crash_a = shard / "half-written.cert.1234.a.tmp"
        crash_b = tmp_path / "artifacts" / "half-written.art.1234.b.tmp"
        crash_a.write_bytes(b"partial")
        crash_b.write_bytes(b"partial")
        assert store.stats()["tmp_orphans"] == 2

        # Young temp files might be another writer's in-flight publish.
        assert store.clean_orphans(max_age_seconds=3600) == 0
        assert crash_a.exists()

        assert store.clean_orphans(max_age_seconds=0) == 2
        assert not crash_a.exists() and not crash_b.exists()
        assert store.stats()["tmp_orphans"] == 0
        assert store.metrics.snapshot()["orphans_cleaned"] == 2
        # The real entry survived the sweep.
        assert store.load(graph.fingerprint(), "connected").accepted

    def test_artifact_orphans_follow_the_age_rule(self, tmp_path):
        # The artifact cache publishes through temp files too: a stale
        # one is reaped, a fresh one may be a write in flight.
        store = CertificateStore(tmp_path)
        _certified(seed=93, store=store)
        artifacts = tmp_path / "artifacts"
        published = sorted(artifacts.glob("*.art"))
        stale = artifacts / f"{published[0].name}.123.0.tmp"
        fresh = artifacts / f"{published[0].name}.123.1.tmp"
        stale.write_bytes(b"partial")
        fresh.write_bytes(b"partial")
        old = time.time() - 2 * ORPHAN_AGE_SECONDS
        os.utime(stale, (old, old))
        assert store.stats()["tmp_orphans"] == 2

        assert store.clean_orphans() == 1
        assert not stale.exists() and fresh.exists()
        assert store.stats()["tmp_orphans"] == 1
        assert store.metrics.snapshot()["orphans_cleaned"] == 1
        # Compaction sweeps orphans, never published artifacts.
        store.compact(byte_budget=1)
        assert len(store) == 0
        assert sorted(artifacts.glob("*.art")) == published


class TestEviction:
    def _aged_store(self, tmp_path):
        """Three entries with controlled mtimes: a < b < c."""
        store = CertificateStore(tmp_path)
        entries = []
        now = time.time()
        for offset, seed in enumerate((93, 94, 95)):
            report, graph = _certified(seed=seed)
            path = store.save(report)
            stamp = now - 1000 + offset * 100
            os.utime(path, (stamp, stamp))
            entries.append((graph.fingerprint(), path))
        return store, entries

    def test_compact_evicts_lru_and_load_bumps_recency(self, tmp_path):
        store, entries = self._aged_store(tmp_path)
        (fp_a, path_a), (fp_b, path_b), (fp_c, path_c) = entries
        # Serving the oldest entry makes it the most recently used.
        store.load(fp_a, "connected")

        total = store.stats()["bytes"]
        evicted = store.compact(byte_budget=total - 1)
        # b is now the least recently used; a was bumped, c is newest.
        assert evicted == [path_b]
        assert not path_b.exists()
        assert path_a.exists() and path_c.exists()
        assert store.load(fp_a, "connected").accepted
        assert store.load(fp_c, "connected").accepted
        snap = store.metrics.snapshot()
        assert snap["evictions"] == 1
        assert snap["bytes_evicted"] > 0

    def test_compact_without_budget_only_cleans_orphans(self, tmp_path):
        store, entries = self._aged_store(tmp_path)
        assert store.compact() == []
        assert len(store) == 3

    def test_save_with_budget_triggers_eviction(self, tmp_path):
        plain = CertificateStore(tmp_path)
        report_a, graph_a = _certified(seed=96)
        path_a = plain.save(report_a)
        size = path_a.stat().st_size
        # Make the first entry look old so the budget evicts it, not
        # the entry being saved (save + compact run within one tick).
        old = time.time() - 1000
        os.utime(path_a, (old, old))

        bounded = CertificateStore(tmp_path, byte_budget=size + size // 2)
        report_b, graph_b = _certified(seed=97)
        bounded.save(report_b)

        assert len(bounded) == 1
        assert not path_a.exists()
        assert bounded.load(graph_b.fingerprint(), "connected").accepted
        assert bounded.metrics.snapshot()["evictions"] == 1

    def test_byte_budget_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CertificateStore(tmp_path, byte_budget=0)

    def test_compact_never_touches_artifacts(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(seed=98, store=store)
        artifacts = list((tmp_path / "artifacts").glob("*.art"))
        assert artifacts, "session with a store should persist artifacts"
        store.compact(byte_budget=1)  # evict every certificate
        assert len(store) == 0
        assert list((tmp_path / "artifacts").glob("*.art")) == artifacts


class TestSharedMetrics:
    def test_hit_miss_counters(self, tmp_path):
        metrics = StoreMetrics()
        store = CertificateStore(tmp_path, metrics=metrics)
        report, graph = _certified(seed=99, store=store)
        store.load(graph.fingerprint(), "connected")
        with pytest.raises(StoreError):
            store.load("0" * 64, "connected")
        # A corrupt certificate payload is unusable too: its entry
        # loads (one more hit), and the reverify round that reads the
        # labels is one more miss.
        path = store.path_for(graph.fingerprint(), "connected")
        manifest = unseal(path.read_bytes())
        key = next(iter(manifest["labels"]))
        data, bits = manifest["labels"][key]
        manifest["labels"][key] = (data[:1], bits)
        path.write_bytes(seal(manifest))
        with pytest.raises(StoreError):
            store.reverify(graph.fingerprint(), "connected")
        snap = metrics.snapshot()
        assert snap["saves"] == 1
        assert snap["hits"] == 2
        assert snap["misses"] == 2

    def test_shared_instance_aggregates_two_stores(self, tmp_path):
        metrics = StoreMetrics()
        store_a = CertificateStore(tmp_path / "a", metrics=metrics)
        store_b = CertificateStore(tmp_path / "b", metrics=metrics)
        _certified(seed=100, store=store_a)
        _certified(seed=101, store=store_b)
        assert metrics.snapshot()["saves"] == 2


WORKER_SCRIPT = """
import random
import sys
from repro.api import CertificateStore, certify
from repro.experiments import lanewidth_workload

store_root, worker_seed = sys.argv[1], int(sys.argv[2])
store = CertificateStore(store_root)

# Every worker certifies the same shared graph (same fingerprint, same
# entry path -> concurrent same-key writers) ...
shared_seq, shared_graph = lanewidth_workload(3, 14, 7000)
certify(shared_seq, "connected", rng=random.Random(worker_seed), store=store)

# ... and one private graph of its own (disjoint shards, most likely).
own_seq, own_graph = lanewidth_workload(3, 14, 7000 + worker_seed)
certify(own_seq, "connected", rng=random.Random(worker_seed + 1), store=store)

# Both must be immediately loadable through the same store.
for graph in (shared_graph, own_graph):
    report = store.load(graph.fingerprint(), "connected")
    assert report.accepted
print("WORKER-OK", own_graph.fingerprint())
"""


class TestConcurrentProcesses:
    def test_multiprocess_writers_share_one_store(self, tmp_path):
        """N processes certify into one sharded store at once: the same
        shared graph (same-key writer races) plus one graph each.  Every
        entry must load cleanly afterwards and nothing may be left
        half-written."""
        workers = 3
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", WORKER_SCRIPT, str(tmp_path), str(i)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=_subprocess_env(),
            )
            for i in range(1, workers + 1)
        ]
        own_fingerprints = set()
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            own_fingerprints.add(out.split("WORKER-OK")[-1].strip())

        store = CertificateStore(tmp_path)
        # workers distinct graphs + 1 shared graph, each saved once.
        assert len(store) == workers + 1
        assert store.stats()["tmp_orphans"] == 0
        for fingerprint, key, _path in store.entries():
            assert key == "connected"
            assert store.load(fingerprint, key).accepted
        shared = {f for f, _k, _p in store.entries()} - own_fingerprints
        assert len(shared) == 1  # the contended graph, published intact
