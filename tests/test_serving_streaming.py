"""Tests for the crash-safe living catalog: append-only segments, the
write-ahead journal + atomic-manifest commit protocol, monotonic versions
with rollback and GC, crash-point chaos sweeps (killing the writer at every
named point and asserting recovery lands on a *committed* version with
bitwise screening parity — never a torn hybrid), the service-level
append-through / rollback / compaction wiring, remote version-skew healing,
and concurrent registration-vs-screening on the gateway.
"""

import asyncio
import shutil
import zlib

import numpy as np
import pytest

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig, save_model
from repro.core.decoder import MLPDecoder, make_screen_kernel
from repro.serving import (CrashPoint, CrashPolicy, DDIScreeningService,
                           ScreeningGateway, ShardedEmbeddingCatalog,
                           ShardStore, ShardWorker, exact_score_fn)
from repro.serving import store as store_module
from repro.serving.store import JOURNAL_NAME, MANIFEST_NAME, ORPHAN_DIR


# ---------------------------------------------------------------------------
# Synthetic store helpers (no model in the loop)
# ---------------------------------------------------------------------------
def _synthetic(seed=0, n=18, d=6):
    rng = np.random.default_rng(seed)
    decoder = MLPDecoder(d, d, np.random.default_rng(seed))
    embeddings = rng.standard_normal((n, d))
    return decoder, embeddings, decoder.candidate_projections(embeddings)


def _screen_store(store, decoder, queries, top_k=6, block_size=None):
    kernel = make_screen_kernel(decoder)
    query_proj = decoder.project_queries(queries, sides=("as_left",))
    return store.catalog(block_size).screen(
        exact_score_fn(kernel, query_proj), len(queries), top_k)


def _screen_memory(decoder, embeddings, queries, top_k=6,
                   num_shards=2, block_size=7):
    kernel = make_screen_kernel(decoder)
    query_proj = decoder.project_queries(queries, sides=("as_left",))
    catalog = ShardedEmbeddingCatalog(
        embeddings, decoder.candidate_projections(embeddings),
        num_shards=num_shards, block_size=block_size)
    return catalog.screen(exact_score_fn(kernel, query_proj),
                          len(queries), top_k)


def _drugs(count, start=0):
    """Drug ids and SMILES for ``count`` rows from row ``start`` on."""
    rows = range(start, start + count)
    return {"drug_ids": [f"drug_{i}" for i in rows],
            "smiles": ["C" * (1 + i % 4) for i in rows]}


def _same_screens(a, b):
    return all(np.array_equal(ia, ib) and np.array_equal(pa, pb)
               for (ia, pa), (ib, pb) in zip(a, b))


def _crc(path):
    return zlib.crc32(path.read_bytes()) & 0xFFFFFFFF


def _file_states(root):
    return {p.name: (p.stat().st_mtime_ns, _crc(p))
            for p in root.glob("*.npy")}


# ---------------------------------------------------------------------------
# Crash-point chaos sweep: kill the writer at every point, recover, assert
# a committed version with bitwise screening parity.
# ---------------------------------------------------------------------------
class TestCrashSweep:
    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("chaos")
        decoder, emb, proj = _synthetic(n=18)
        store_dir = root / "base"
        ShardStore.save(store_dir, emb, proj, num_shards=2, block_size=7,
                        catalog_digest="v0", **_drugs(18))
        rng = np.random.default_rng(99)
        extra = rng.standard_normal((5, emb.shape[1]))
        return root, decoder, emb, extra, store_dir

    def _sweep(self, base, op_name, prepare, mutate, versions_content):
        """Kill a writer at every crash point of ``mutate``; recover; check.

        ``versions_content`` maps committed version -> the embedding matrix
        whose screens that version must reproduce bitwise.
        """
        root, decoder, emb, extra, store_dir = base
        queries = emb[[0, 3]]
        references = {v: _screen_memory(decoder, content, queries)
                      for v, content in versions_content.items()}

        # Recorder pass enumerates the complete crash surface.
        recorder_dir = root / f"{op_name}-recorder"
        shutil.copytree(store_dir, recorder_dir)
        store = ShardStore(recorder_dir)
        prepare(store)
        recorder = CrashPolicy()
        store.crash_policy = recorder
        mutate(store)
        points = list(recorder.seen)
        assert f"{op_name}.begin" in points
        assert f"{op_name}.journal" in points
        assert f"{op_name}.manifest" in points
        assert f"{op_name}.commit" in points
        assert f"{op_name}.done" in points

        actions = []
        for i, point in enumerate(points):
            work = root / f"{op_name}-{i}"
            shutil.copytree(store_dir, work)
            victim = ShardStore(work)
            prepare(victim)
            pre_version = victim.version
            victim.crash_policy = CrashPolicy(point)
            with pytest.raises(CrashPoint):
                mutate(victim)
            # The in-memory store is transactional: a writer that died
            # before installing still describes its last committed state.
            assert victim.version == pre_version

            survivor = ShardStore(work, recover=True)
            report = survivor.recovered
            actions.append(report["action"])
            assert not (work / JOURNAL_NAME).exists()
            assert not list(work.glob("*.tmp"))
            assert survivor.version in references, \
                f"crash at {point} recovered uncommitted version " \
                f"{survivor.version}"
            # Bitwise parity with the committed version — never a torn
            # hybrid of old and new rows.
            assert _same_screens(
                _screen_store(survivor, decoder, queries),
                references[survivor.version]), f"crash at {point}"
            # Quarantined orphans are reported, moved out of the root,
            # and the survivor still verifies clean.
            for name in report["orphans"]:
                assert (work / ORPHAN_DIR / name).exists()
                assert not (work / name).exists()
            assert survivor.verify(strict=True) == []
        return points, actions

    def test_append_sweep(self, base):
        root, decoder, emb, extra, store_dir = base
        combined = np.concatenate([emb, extra], axis=0)
        points, actions = self._sweep(
            base, "append",
            prepare=lambda store: None,
            mutate=lambda store: store.append(
                extra, store_projections(store, decoder, extra),
                catalog_digest="v1", **_drugs(5, 18)),
            versions_content={0: emb, 1: combined})
        # The sweep must exercise every fate: crashes before the staged
        # state is durable roll back (with quarantined orphans once any
        # segment file landed), a crash between the retained snapshot and
        # the commit rename rolls forward, and a crash after the rename
        # only needed the journal tidied.
        assert "roll-back" in actions
        assert "roll-forward" in actions
        assert "completed" in actions
        assert any(p.startswith("append.file:") for p in points)

    def test_compact_sweep(self, base):
        root, decoder, emb, extra, store_dir = base
        combined = np.concatenate([emb, extra], axis=0)

        def prepare(store):
            store.append(extra, store_projections(store, decoder, extra),
                         catalog_digest="v1", **_drugs(5, 18))

        self._sweep(
            base, "compact",
            prepare=prepare,
            mutate=lambda store: store.compact(catalog_digest="v1"),
            # v1 (the append) and v2 (the compaction) hold the same rows.
            versions_content={1: combined, 2: combined})

    def test_rollback_sweep(self, base):
        root, decoder, emb, extra, store_dir = base
        combined = np.concatenate([emb, extra], axis=0)

        def prepare(store):
            store.append(extra, store_projections(store, decoder, extra),
                         catalog_digest="v1", **_drugs(5, 18))

        self._sweep(
            base, "rollback",
            prepare=prepare,
            mutate=lambda store: store.rollback(0),
            # v2 re-commits v0's content.
            versions_content={1: combined, 2: emb})


def store_projections(store, decoder, rows):
    """Non-alias projections for ``rows`` from the store's own decoder."""
    projections = decoder.candidate_projections(rows)
    return {name: projections[name] for name in store.projection_names
            if name in projections}


# ---------------------------------------------------------------------------
# Append-only byte identity, rollback parity, GC
# ---------------------------------------------------------------------------
class TestAppendOnly:
    def test_appends_never_rewrite_existing_bytes(self, tmp_path):
        decoder, emb, proj = _synthetic(n=20)
        store = ShardStore(ShardStore.save(tmp_path / "s", emb, proj,
                                           num_shards=2,
                                           **_drugs(len(emb))))
        rng = np.random.default_rng(7)
        for round_ in range(3):
            before = _file_states(tmp_path / "s")
            rows = rng.standard_normal((4, emb.shape[1]))
            store.append(rows, store_projections(store, decoder, rows),
                         **_drugs(len(rows), store.num_drugs))
            after = _file_states(tmp_path / "s")
            for name, state in before.items():
                assert after[name] == state, \
                    f"append round {round_} rewrote {name}"
            assert len(after) > len(before)  # new segment files landed

    def test_rollback_restores_every_retained_version_bitwise(self,
                                                              tmp_path):
        decoder, emb, proj = _synthetic(n=15)
        store = ShardStore(ShardStore.save(tmp_path / "s", emb, proj,
                                           num_shards=2,
                                           **_drugs(len(emb))))
        rng = np.random.default_rng(3)
        contents = {0: emb}
        current = emb
        for version in (1, 2, 3):
            rows = rng.standard_normal((3, emb.shape[1]))
            store.append(rows, store_projections(store, decoder, rows),
                         **_drugs(len(rows), store.num_drugs))
            current = np.concatenate([current, rows], axis=0)
            contents[version] = current
        queries = emb[[1, 4]]
        next_version = 4
        for target in (2, 0, 3):
            new_version = store.rollback(target)
            assert new_version == next_version
            next_version += 1
            assert _same_screens(
                _screen_store(store, decoder, queries),
                _screen_memory(decoder, contents[target], queries))

    def test_versions_are_monotonic_and_retained(self, tmp_path):
        decoder, emb, proj = _synthetic(n=10)
        store = ShardStore(ShardStore.save(tmp_path / "s", emb, proj,
                                           **_drugs(len(emb))))
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((2, emb.shape[1]))
        store.append(rows, store_projections(store, decoder, rows),
                     **_drugs(len(rows), store.num_drugs))
        assert store.versions() == [0, 1]
        assert store.manifest_for(0)["num_drugs"] == 10
        assert store.manifest_for(1)["num_drugs"] == 12
        store.rollback(0)
        assert store.version == 2
        assert store.manifest_for(2)["num_drugs"] == 10

    def test_gc_reclaims_dropped_versions_only(self, tmp_path):
        decoder, emb, proj = _synthetic(n=12)
        store = ShardStore(ShardStore.save(tmp_path / "s", emb, proj,
                                           num_shards=2,
                                           **_drugs(len(emb))))
        rng = np.random.default_rng(11)
        for _ in range(3):
            rows = rng.standard_normal((2, emb.shape[1]))
            store.append(rows, store_projections(store, decoder, rows),
                         **_drugs(len(rows), store.num_drugs))
        full = np.concatenate(
            [np.asarray(store.open_shard(i).embeddings)
             for i in range(store.num_shards)], axis=0)
        deleted = store.gc(keep=1)
        assert deleted  # old retained manifests (at least) went away
        assert store.versions() == [3]
        with pytest.raises(ValueError, match="not retained"):
            store.rollback(0)
        # The current version is untouched and still screens clean.
        queries = emb[[0, 2]]
        assert _same_screens(
            _screen_store(store, decoder, queries),
            _screen_memory(decoder, full, queries))
        assert store.verify(strict=True) == []

    def test_resave_starts_a_fresh_history(self, tmp_path):
        """Saving into a directory that holds a store retains only the
        new version 0: no old version can be rolled back into it."""
        decoder, emb, proj = _synthetic(n=12)
        store = ShardStore(ShardStore.save(tmp_path / "s", emb, proj,
                                           num_shards=2,
                                           **_drugs(len(emb))))
        rng = np.random.default_rng(2)
        for _ in range(6):
            rows = rng.standard_normal((1, emb.shape[1]))
            store.append(rows, store_projections(store, decoder, rows),
                         **_drugs(len(rows), store.num_drugs))
        assert store.versions() == list(range(7))
        fresh_decoder, fresh_emb, fresh_proj = _synthetic(seed=4, n=10)
        fresh = ShardStore(ShardStore.save(tmp_path / "s", fresh_emb,
                                           fresh_proj, num_shards=2,
                                           **_drugs(len(fresh_emb))))
        assert fresh.versions() == [0]
        assert fresh.version == 0 and fresh.num_drugs == 10
        with pytest.raises(ValueError, match="not retained"):
            fresh.rollback(3)
        assert fresh.verify(strict=True) == []
        fresh.gc(keep=1)  # the old lineage's segments are unreferenced
        assert not list(fresh.root.glob("seg_*.npy"))
        assert _same_screens(
            _screen_store(fresh, fresh_decoder, fresh_emb[[0, 3]]),
            _screen_memory(fresh_decoder, fresh_emb, fresh_emb[[0, 3]]))

    def test_failed_save_leaves_a_journal_that_rolls_back(
            self, tmp_path, monkeypatch):
        """Version 0 commits through the journal too: a save that dies
        part-way is rolled back by recovery, its files quarantined."""
        _, emb, proj = _synthetic(n=12)
        written = []
        atomic_save = store_module._atomic_save

        def failing_save(root, name, array):
            if written:
                raise OSError("disk full")
            written.append(name)
            return atomic_save(root, name, array)

        monkeypatch.setattr(store_module, "_atomic_save", failing_save)
        root = tmp_path / "s"
        with pytest.raises(OSError, match="disk full"):
            ShardStore.save(root, emb, proj, num_shards=2,
                            **_drugs(len(emb)))
        assert (root / JOURNAL_NAME).exists()
        assert not (root / MANIFEST_NAME).exists()
        report = ShardStore.recover_dir(root)
        assert report["action"] == "roll-back"
        assert report["orphans"] == written == ["shard_00000.emb.npy"]
        assert (root / ORPHAN_DIR / written[0]).exists()
        assert not (root / JOURNAL_NAME).exists()
        assert not list(root.glob("manifest*.json"))

    def test_gc_refuses_with_unresolved_journal(self, tmp_path):
        _, emb, proj = _synthetic(n=8)
        store = ShardStore(ShardStore.save(tmp_path / "s", emb, proj,
                                           **_drugs(len(emb))))
        (store.root / JOURNAL_NAME).write_text("{}")
        with pytest.raises(RuntimeError, match="journal"):
            store.gc()


# ---------------------------------------------------------------------------
# Satellite: verify's checksum memo is invalidated by mutation
# ---------------------------------------------------------------------------
class TestVerifyMemoInvalidation:
    def test_reverify_detects_corruption_after_mutation(self, tmp_path):
        decoder, emb, proj = _synthetic(n=16)
        store = ShardStore(ShardStore.save(tmp_path / "s", emb, proj,
                                           num_shards=2,
                                           **_drugs(len(emb))))
        assert store.verify() == []  # memoizes every file as clean
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((2, emb.shape[1]))
        store.append(rows, store_projections(store, decoder, rows),
                     **_drugs(len(rows), store.num_drugs))
        # Corrupt a file that was verified *before* the mutation; the
        # regression was a stale memo skipping the re-read here.
        victim = store.root / store.manifest["shards"][0]["embeddings"]
        damaged = bytearray(victim.read_bytes())
        damaged[-8:] = bytes(8)
        victim.write_bytes(bytes(damaged))
        assert store.verify() == [0]
        assert 0 in store.quarantined

    def test_reload_clears_memo_too(self, tmp_path):
        _, emb, proj = _synthetic(n=10)
        store = ShardStore(ShardStore.save(tmp_path / "s", emb, proj,
                                           **_drugs(len(emb))))
        assert store.verify() == []
        store.reload()
        victim = store.root / store.manifest["shards"][0]["embeddings"]
        damaged = bytearray(victim.read_bytes())
        damaged[-4:] = bytes(4)
        victim.write_bytes(bytes(damaged))
        assert store.verify() == [0]


# ---------------------------------------------------------------------------
# Service-level living catalog (real model)
# ---------------------------------------------------------------------------
def _corpus(n=24, seed=11):
    return [r.smiles for r in MoleculeGenerator(seed=seed).generate_corpus(n)]


@pytest.fixture(scope="module")
def setup():
    corpus = _corpus()
    extras = [r.smiles
              for r in MoleculeGenerator(seed=77).generate_corpus(6)]
    config = HyGNNConfig(parameter=4, embed_dim=12, hidden_dim=12, seed=5)
    model, hypergraph, builder = HyGNN.for_corpus(corpus, config)
    return corpus, extras, model, builder


def _service(setup, **kwargs):
    corpus, _, model, builder = setup
    return DDIScreeningService(model, builder, corpus, **kwargs)


def _hits(results):
    return [[(h.index, h.probability) for h in hits] for hits in results]


class TestServiceLivingCatalog:
    def test_register_append_rollback_compact_lifecycle(self, setup,
                                                        tmp_path):
        corpus, extras, model, builder = setup
        service = _service(setup, num_shards=2)
        twin = _service(setup)  # in-memory reference, no store
        service.save_shards(tmp_path / "store")
        assert service.open_shards(tmp_path / "store")
        assert service.catalog_version == 0

        before_hits = _hits([service.screen(0, top_k=5)])
        epoch_before = service.catalog_epoch

        # Two registration batches append through as two commits.
        service.register_drugs(extras[:2], drug_ids=["xa", "xb"])
        service.register_drug(extras[2], drug_id="xc")
        twin.register_drugs(extras[:2], drug_ids=["xa", "xb"])
        twin.register_drug(extras[2], drug_id="xc")
        assert service._store is not None
        assert service.catalog_version == 2
        assert service.catalog_epoch != epoch_before
        assert service.shard_store.num_drugs == len(corpus) + 3
        stats = service.stats
        assert stats.registrations == 3
        assert stats.appends_committed == 2
        assert stats.registration_latency.summary()["count"] == 2
        # Screens over the extended catalog come from the store and match
        # the in-memory twin bitwise.
        queries = [0, len(corpus) + 1, "xc"]
        assert _hits([service.screen(q, top_k=6) for q in queries]) == \
            _hits([twin.screen(q, top_k=6) for q in queries])

        # Compaction consolidates segments without changing answers.
        version = service.compact_shards()
        assert version == 3
        assert stats.compactions == 1
        assert _hits([service.screen(q, top_k=6) for q in queries]) == \
            _hits([twin.screen(q, top_k=6) for q in queries])

        # Rollback to the pre-registration version restores it bitwise.
        new_version = service.rollback_catalog(0)
        assert new_version == 4
        assert stats.rollbacks == 1
        assert service.num_drugs == len(corpus)
        assert service.shard_store.num_drugs == len(corpus)
        with pytest.raises(KeyError):
            service.index_of("xa")
        assert _hits([service.screen(0, top_k=5)]) == before_hits
        # Registration after a rollback works (ids freed, rows truncated).
        index = service.register_drug(extras[0], drug_id="xa")
        assert index == len(corpus)
        assert service.catalog_version == 5

    def test_rollback_guards(self, setup, tmp_path):
        corpus, extras, model, builder = setup
        service = _service(setup)
        with pytest.raises(RuntimeError, match="attached shard store"):
            service.rollback_catalog(0)
        service.save_shards(tmp_path / "store")
        assert service.open_shards(tmp_path / "store")
        with pytest.raises(ValueError, match="not retained"):
            service.rollback_catalog(17)

    def test_crash_during_register_recovers_on_reopen(self, setup,
                                                      tmp_path):
        corpus, extras, model, builder = setup
        service = _service(setup, num_shards=2)
        service.save_shards(tmp_path / "store")
        assert service.open_shards(tmp_path / "store")
        reference = _hits([service.screen(2, top_k=5)])
        # Kill the writer after the first segment file landed but before
        # the staged state is complete — recovery must roll back and
        # quarantine the dead writer's segment.
        service.shard_store.crash_policy = CrashPolicy(
            "append.file:seg_v000001.emb.npy")
        with pytest.raises(CrashPoint):
            service.register_drug(extras[4], drug_id="dead")
        assert (tmp_path / "store" / JOURNAL_NAME).exists()

        # "Restart": a fresh service over the same artifacts recovers the
        # torn directory while attaching and serves the committed version.
        fresh = _service(setup, num_shards=2)
        assert fresh.open_shards(tmp_path / "store", strict=True)
        report = fresh.shard_store.recovered
        assert report["action"] == "roll-back"
        assert report["orphans"]  # the dead writer's segment, quarantined
        assert fresh.catalog_version == 0
        assert not (tmp_path / "store" / JOURNAL_NAME).exists()
        assert _hits([fresh.screen(2, top_k=5)]) == reference


# ---------------------------------------------------------------------------
# Restart from the store at every committed version
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module", params=["mlp", "dot"])
def booting(request, tmp_path_factory):
    """A model archive and a 2-shard store of the corpus, per decoder."""
    corpus = _corpus()
    extras = [r.smiles
              for r in MoleculeGenerator(seed=77).generate_corpus(6)]
    config = HyGNNConfig(parameter=4, embed_dim=12, hidden_dim=12, seed=5,
                         decoder=request.param)
    model, _, builder = HyGNN.for_corpus(corpus, config)
    root = tmp_path_factory.mktemp(f"boot-{request.param}")
    save_model(root / "model.npz", model, builder)
    DDIScreeningService(model, builder, corpus).save_shards(
        root / "base", num_shards=2)
    return corpus, extras, model, builder, root


class TestRestartFromStore:
    """The store is the one record of the catalog: it boots, with the
    model archive, at every version it commits."""

    @staticmethod
    def _writer(booting, store, registered=False):
        """A live service that owns a copy of the base store."""
        corpus, extras, model, builder, root = booting
        shutil.copytree(root / "base", store)
        service = DDIScreeningService(model, builder, corpus, num_shards=2,
                                      block_size=8)
        assert service.open_shards(store, strict=True)
        if registered:
            service.register_drugs(extras[:2], drug_ids=["xa", "xb"])
        return service

    def test_boots_at_every_committed_version(self, booting, tmp_path):
        """After an append-through, a compaction, a rollback and a
        registration on a booted service, the store boots into the
        serving service's exact and approximate bits, with no corpus
        encode."""
        _, extras, _, _, root = booting
        store = tmp_path / "store"
        live = self._writer(booting, store)

        def boots_as(service):
            booted = DDIScreeningService.from_store(store,
                                                    root / "model.npz")
            queries = [0, 7, service.num_drugs - 1]
            for approx in (False, True):
                assert _hits(booted.screen_batch(
                    queries, top_k=5, approx=approx)) == _hits(
                        service.screen_batch(queries, top_k=5,
                                             approx=approx))
            assert booted.drug_ids == service.drug_ids
            assert booted.catalog_version == service.catalog_version
            assert booted.stats.corpus_encodes == 0
            return booted

        live.register_drugs(extras[:2], drug_ids=["xa", "xb"])
        boots_as(live)
        live.compact_shards(2)
        boots_as(live)
        live.rollback_catalog(0)
        booted = boots_as(live)
        booted.register_drugs(extras[2:4], drug_ids=["xc", "xd"])
        boots_as(booted)

    @pytest.mark.parametrize("op", ["append", "compact", "rollback"])
    def test_boots_on_a_committed_version_after_any_crash(
            self, booting, tmp_path, op):
        """A writer killed at any crash point of a registration's append,
        a compaction or a rollback leaves a store that boots on a
        committed version, screening like an in-memory service over that
        version's drugs."""
        corpus, extras, model, builder, root = booting
        base = DDIScreeningService(model, builder, corpus)
        extended = DDIScreeningService(model, builder, corpus)
        extended.register_drugs(extras[:2], drug_ids=["xa", "xb"])
        committed = {"append": {0: base, 1: extended},
                     "compact": {1: extended, 2: extended},
                     "rollback": {1: extended, 2: base}}[op]
        mutate = {"append": lambda service: service.register_drugs(
                      extras[:2], drug_ids=["xa", "xb"]),
                  "compact": lambda service: service.compact_shards(2),
                  "rollback": lambda service: service.rollback_catalog(0)
                  }[op]
        recorder = CrashPolicy()
        writer = self._writer(booting, tmp_path / "recorder",
                              registered=op != "append")
        writer.shard_store.crash_policy = recorder
        mutate(writer)
        assert f"{op}.manifest" in recorder.seen
        for i, point in enumerate(recorder.seen):
            store = tmp_path / f"crash-{i}"
            writer = self._writer(booting, store,
                                  registered=op != "append")
            writer.shard_store.crash_policy = CrashPolicy(point)
            with pytest.raises(CrashPoint):
                mutate(writer)
            booted = DDIScreeningService.from_store(store,
                                                    root / "model.npz")
            assert booted.catalog_version in committed, point
            reference = committed[booted.catalog_version]
            queries = [0, 5, reference.num_drugs - 1]
            assert booted.drug_ids == reference.drug_ids, point
            assert _hits(booted.screen_batch(queries, top_k=5)) == \
                _hits(reference.screen_batch(queries, top_k=5)), point
            assert booted.stats.corpus_encodes == 0


# ---------------------------------------------------------------------------
# Satellite: remote workers heal version skew instead of being excluded
# ---------------------------------------------------------------------------
class TestRemoteVersionSkew:
    def test_worker_reloads_after_append(self, setup, tmp_path):
        corpus, extras, model, builder = setup
        service = _service(setup, num_shards=2)
        twin = _service(setup)
        manifest = service.save_shards(tmp_path / "store")
        assert service.open_shards(tmp_path / "store")
        # The worker opens its *own* store instance (a separate process
        # in production), so a local append skews it.
        with ShardWorker(ShardStore(manifest)) as worker:
            remote = service.connect_workers([worker])
            assert _hits([service.screen(1, top_k=4)]) == \
                _hits([twin.screen(1, top_k=4)])
            assert remote.stats["remote_requests"] > 0

            service.register_drug(extras[5], drug_id="xr")
            twin.register_drug(extras[5], drug_id="xr")
            assert service._store is not None  # append-through kept it
            # The next screen finds the worker behind, asks it to reload,
            # and keeps using it — no exclusion, no local fallback.
            assert _hits([service.screen("xr", top_k=4)]) == \
                _hits([twin.screen("xr", top_k=4)])
            assert remote.stats["version_skews"] >= 1
            assert remote.stats["worker_reloads"] >= 1
            assert remote.stats["mismatched_workers"] == 0
            assert remote.stats["local_fallbacks"] == 0
            assert service.stats.remote_screens >= 2

    def test_foreign_store_still_permanently_excluded(self, setup,
                                                      tmp_path):
        corpus, extras, model, builder = setup
        service = _service(setup)
        service.save_shards(tmp_path / "store")
        assert service.open_shards(tmp_path / "store")
        # A worker serving a different catalog: reload cannot heal it.
        foreign = DDIScreeningService(model, builder, corpus[:20])
        foreign_manifest = foreign.save_shards(tmp_path / "foreign")
        with ShardWorker(ShardStore(foreign_manifest)) as worker:
            remote = service.connect_workers([worker])
            hits = service.screen(0, top_k=3)  # local fallback answers
            assert len(hits) == 3
            assert remote.stats["mismatched_workers"] == 1
            assert remote.stats["worker_reloads"] == 0
            assert remote.stats["local_fallbacks"] > 0


# ---------------------------------------------------------------------------
# Satellite: concurrent registration vs. coalesced screening on the gateway
# ---------------------------------------------------------------------------
class TestGatewayStreaming:
    def test_interleaved_registration_and_screens_are_version_consistent(
            self, setup):
        corpus, extras, model, builder = setup
        service = _service(setup)
        twin = _service(setup)
        query, top_k = 0, 4

        # Reference answer per catalog size, from the in-memory twin.
        references = {twin.num_drugs: _hits([twin.screen(query, top_k)])[0]}

        async def main():
            results = []
            async with ScreeningGateway(service, max_batch=8) as gateway:
                for wave, smiles in enumerate(extras[:4]):
                    tasks = [asyncio.ensure_future(
                        gateway.screen(query, top_k=top_k))
                        for _ in range(3)]
                    await asyncio.sleep(0)  # let the flusher admit them
                    service.register_drug(smiles, drug_id=f"gw{wave}")
                    twin.register_drug(smiles, drug_id=f"gw{wave}")
                    references[twin.num_drugs] = _hits(
                        [twin.screen(query, top_k)])[0]
                    results.extend(await asyncio.gather(*tasks))
                # Drain screens after the last registration.
                results.extend(await asyncio.gather(*[
                    gateway.screen(query, top_k=top_k) for _ in range(3)]))
                snapshot = gateway.stats_snapshot()
            return results, snapshot

        results, snapshot = asyncio.run(main())
        valid = list(references.values())
        for hits in results:
            answer = [(h.index, h.probability) for h in hits]
            # Every response equals exactly one committed catalog
            # version's reference — never a blend of two versions.
            assert answer in valid
        stats = service.stats
        assert stats.registrations == 4
        # Flushes crossed at least one catalog epoch boundary, and the
        # swap counter reconciles with the number of catalog mutations.
        assert 1 <= stats.gateway_epoch_swaps <= stats.registrations
        assert snapshot["registrations"] == 4
        assert snapshot["gateway_epoch_swaps"] == stats.gateway_epoch_swaps
        assert snapshot["registration_latency"]["count"] == 4
        assert snapshot["pending"] == 0
        assert snapshot["catalog_epoch"] == service.catalog_epoch
        assert snapshot["catalog_version"] is None  # no store attached

    def test_epoch_swap_counter_with_attached_store(self, setup, tmp_path):
        corpus, extras, model, builder = setup
        service = _service(setup, num_shards=2)
        service.save_shards(tmp_path / "store")
        assert service.open_shards(tmp_path / "store")

        twin = _service(setup)

        async def main():
            async with ScreeningGateway(service, max_batch=4) as gateway:
                first = await gateway.screen(0, top_k=3)
                service.register_drug(extras[5], drug_id="gw-store")
                second = await gateway.screen(0, top_k=3)
                return first, second, gateway.stats_snapshot()

        first, second, snapshot = asyncio.run(main())
        # Both flushes answered from a single committed version each:
        # pre-append and post-append, bitwise equal to the in-memory twin.
        assert _hits([first]) == _hits([twin.screen(0, top_k=3)])
        twin.register_drug(extras[5], drug_id="gw-store")
        assert _hits([second]) == _hits([twin.screen(0, top_k=3)])
        assert service.stats.gateway_epoch_swaps >= 1
        assert snapshot["appends_committed"] == 1
        assert snapshot["catalog_version"] == service.catalog_version == 1
