"""Batched DDI screening service over cached drug embeddings.

``HyGNN.predict_proba`` re-encodes the *entire* corpus hypergraph for every
call — fine for training loops, wasteful for serving, where the catalog is
fixed and only the query pairs change.  :class:`DDIScreeningService` exploits
the encoder's inductive split (:meth:`HyGNNEncoder.encode_with_context` /
:meth:`~repro.core.encoder.HyGNNEncoder.encode_edges_subset`):

1. Drug embeddings are computed **once** per (model weights, catalog) version
   and cached; every scoring call after that is a vectorized decoder pass,
   O(pairs) instead of O(full-graph encode).  Cached scores are
   bitwise-identical to ``model.predict_proba`` on the catalog hypergraph.
2. The cache keeps the parameter arrays it was encoded from, read-only;
   every weight update rebinds ``.data``, so the next call sees a new
   array and rebuilds (see :mod:`repro.serving.cache`).
   :meth:`DDIScreeningService.invalidate` is the explicit override.
3. New drugs register incrementally: their SMILES is tokenized against the
   *fitted* vocabulary and encoded against the frozen corpus context — the
   paper's cold-start semantics (Table IX) — without re-encoding a single
   existing catalog drug.
4. ``screen`` answers top-k "drug X against the whole catalog" queries.

Build one with a live model (:meth:`DDIScreeningService.__init__`) or
straight from a ``serialize.save_model`` artifact
(:meth:`DDIScreeningService.from_artifact`) for a train → save → serve path.
"""

from __future__ import annotations

import hashlib
import operator
import os
import re
import subprocess
import sys
import time
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.decoder import make_screen_kernel
from ..core.encoder import EncoderContext
from ..core.model import HyGNN
from ..core.serialize import load_model
from ..hypergraph import DrugHypergraphBuilder, Hypergraph
from ..nn import Tensor
from ..nn.functional import stable_sigmoid
from .cache import EmbeddingCache, ServiceStats, weights_fingerprint
from .precision import resolve_precision
from .remote import RemoteShardExecutor
from .shards import ShardedEmbeddingCatalog, ShardPlan, exact_score_fn
from .store import ShardStore


def _freeze(weights: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Make served weight arrays read-only: an in-place edit then raises."""
    for array in weights:
        array.flags.writeable = False
    return weights


def _worker_address(process: subprocess.Popen) -> tuple[str, int]:
    """The ``(host, port)`` a started shard worker prints once it listens."""
    line = process.stdout.readline()
    match = re.search(r" on (\S+):(\d+) \(", line)
    if match is None:
        raise RuntimeError(f"shard worker failed to start: {line!r}")
    return match.group(1), int(match.group(2))


def _stop_processes(processes: list[subprocess.Popen]) -> None:
    """Terminate and reap started shard workers; empties ``processes``."""
    for process in processes:
        process.terminate()
    for process in processes:
        process.wait()
        process.stdout.close()
    processes.clear()


@dataclass(frozen=True)
class ScreenHit:
    """One ranked candidate from a top-k screening query."""

    index: int
    drug_id: str
    probability: float


class DDIScreeningService:
    """Embed-once / score-many serving layer for a trained HyGNN model.

    ``block_size`` and ``num_shards`` shape the screening engine: candidates
    are scored in ``block_size``-row blocks with streaming top-k selection
    (peak scoring memory O(block + k), never O(catalog)), partitioned into
    ``num_shards`` shards with per-shard top-k and a deterministic merge.
    Exact-mode screening scores are bitwise-identical for every choice of
    both knobs.

    Two out-of-core extensions ride on that layout, both exactly as
    deterministic: :meth:`save_shards` persists the shards (embedding
    rows + precomputed projections) as raw ``.npy`` files plus a JSON
    manifest, and :meth:`open_shards` reattaches them memory-mapped, so
    screening streams candidate blocks from disk instead of holding the
    catalog-sized working set in RAM; :meth:`start_workers` (local
    processes) or :meth:`connect_workers` (any host) then hands exact-mode
    screens to shard workers that open the same store by manifest path;
    each request names the store version it must be answered from.
    All plans — in-memory, memory-mapped, shard workers — return
    bitwise-identical ``(indices, probabilities)``.
    """

    def __init__(self, model: HyGNN, builder: DrugHypergraphBuilder,
                 catalog_smiles: list[str],
                 drug_ids: list[str] | None = None,
                 block_size: int = 1024,
                 num_shards: int = 1,
                 precision: str = "float64"):
        if not catalog_smiles:
            raise ValueError("catalog must contain at least one drug")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        vocab = builder.vocabulary  # raises if the builder is unfitted
        if len(vocab) != model.encoder.num_substructures:
            raise ValueError(
                f"builder vocabulary ({len(vocab)}) does not match the "
                f"model ({model.encoder.num_substructures} substructures)")
        if drug_ids is None:
            drug_ids = [f"drug_{i}" for i in range(len(catalog_smiles))]
        if len(drug_ids) != len(catalog_smiles):
            raise ValueError("drug_ids length mismatch")
        if len(set(drug_ids)) != len(drug_ids):
            raise ValueError("drug ids must be unique")

        self._model = model
        self._builder = builder
        self._vocab = vocab
        # The parameter set is fixed after construction; only the arrays
        # bound to ``.data`` change.  ``_digest`` memoizes the artifact
        # fingerprint of the last set of arrays hashed.
        self._params = list(model.parameters())
        self._digest: tuple[tuple[np.ndarray, ...], str] | None = None
        # Serving precision: "float32" downcasts embeddings, decoder
        # weights, and candidate projections once at cache-build time and
        # runs the whole blockwise screen in float32 (half the memory
        # bandwidth on the GEMM-bound hot loop).  float64 (default) stays
        # bitwise-identical to the training-path scores.  The precision is
        # part of the artifact fingerprint, so float32 stores can never
        # masquerade as exact-tier artifacts (or vice versa).
        self._dtype = resolve_precision(precision)
        self._smiles: list[str] = list(catalog_smiles)
        self._drug_ids: list[str] = list(drug_ids)
        self._index: dict[str, int] = {d: i for i, d in enumerate(drug_ids)}
        # The corpus hypergraph is the frozen context every embedding — and
        # every future registration — is computed against.
        self._corpus: Hypergraph = builder.transform(catalog_smiles)
        self._num_corpus = self._corpus.num_edges
        self._cache = EmbeddingCache()
        self.block_size = block_size
        self.num_shards = num_shards
        # Sharded catalog derived from the cache; rebuilt when the cache
        # version (or either knob) changes.  Versions are globally unique
        # (never reused across cache instances), so the key alone decides
        # staleness.
        self._catalog_engine: ShardedEmbeddingCatalog | None = None
        self._catalog_key: tuple | None = None
        # Out-of-core tier: an attached memory-mapped shard store, attached
        # exactly while it holds the rows being served.
        self._store: ShardStore | None = None
        # Shard-worker tier: a fault-tolerant client over shard workers
        # (see connect_workers), tied to the attached store's lifetime,
        # and the local worker processes start_workers launched for it.
        self._remote: RemoteShardExecutor | None = None
        self._worker_processes: list[subprocess.Popen] = []
        # Weight-free screening kernel (scores from projections only);
        # shard workers rebuild the same kernel from its kind string.
        self._screen_kernel = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(cls, path: str | Path, catalog_smiles: list[str],
                      drug_ids: list[str] | None = None,
                      **kwargs) -> "DDIScreeningService":
        """Load a ``serialize.save_model`` archive and serve it."""
        model, builder = load_model(path)
        return cls(model, builder, catalog_smiles, drug_ids=drug_ids,
                   **kwargs)

    # ------------------------------------------------------------------
    # Cold boot: shard store + model archive, no corpus encode
    # ------------------------------------------------------------------
    @classmethod
    def from_store(cls, manifest: str | Path, model,
                   workers: list | None = None) -> "DDIScreeningService":
        """Cold-boot a service from a shard store and a model archive.

        ``manifest`` is a :meth:`save_shards` store, the one record of the
        catalog at every committed version; ``model`` the
        ``serialize.save_model`` archive (a path or a binary file object)
        of the weights it was saved under.  The store is opened once and
        recovered; its drug records and frozen encoder context are read,
        and it is checked against the loaded weights and those records
        (fingerprint, catalog digest, row count).  The catalog embeddings
        are then *gathered from the shard files*, each CRC-checked once,
        and adopted into the cache, so the corpus is never re-encoded
        (``stats.corpus_encodes`` stays 0); that same store is attached.
        A torn or mismatched store raises instead of serving wrong
        numbers.  Screens afterwards, exact and approximate, are
        bitwise-identical to the service that committed the version.

        ``workers`` (addresses for :meth:`connect_workers`) wires the
        shard-worker tier in the same call; the precision and block size
        come from the store.
        """
        # The cold-booting process owns the store directory: recover from
        # any torn state (journal roll-forward/back, orphan quarantine)
        # before trusting the manifest.
        store = ShardStore(manifest, recover=True)
        drug_ids, smiles = store.drugs()
        saved = store.encoder_context()
        if saved is None:
            raise ValueError(f"{store.path} holds no encoder context; "
                             f"re-save the catalog with save_shards()")
        layers, num_corpus = saved
        model, builder = load_model(model)
        service = cls(model, builder, smiles[:num_corpus],
                      drug_ids=drug_ids[:num_corpus],
                      block_size=store.block_size,
                      precision=store.manifest["dtype"])
        # Registered drugs restore as records only — their embedding rows
        # come from the store like everyone else's.
        service._smiles, service._drug_ids = smiles, drug_ids
        service._index = {d: i for i, d in enumerate(drug_ids)}
        sketch = service._check_store(store)
        # Gathering materialises the rows in RAM (the cache needs them for
        # pair scoring and registrations).  open_shard CRC-checks each
        # file and memoizes the mapped shard, so screens reuse both.
        embeddings = np.concatenate(
            [np.asarray(store.open_shard(index).embeddings)
             for index in range(store.num_shards)],
            axis=0).astype(service._dtype, copy=False)
        context = EncoderContext(
            layer_node_feats=tuple(Tensor(layer) for layer in layers))
        service._cache.adopt(service._weights(), context, embeddings)
        service._attach_store(store, sketch)
        if workers:
            service.connect_workers(workers)
        return service

    # ------------------------------------------------------------------
    # Catalog introspection
    # ------------------------------------------------------------------
    @property
    def num_drugs(self) -> int:
        return len(self._smiles)

    @property
    def drug_ids(self) -> list[str]:
        return list(self._drug_ids)

    @property
    def stats(self) -> ServiceStats:
        return self._cache.stats

    @property
    def embeddings(self) -> np.ndarray:
        """Read-only view of the cached catalog embeddings."""
        self._ensure_fresh()
        view = self._cache.embeddings.view()
        view.flags.writeable = False
        return view

    def index_of(self, drug_id: str) -> int:
        try:
            return self._index[drug_id]
        except KeyError:
            raise KeyError(f"unknown drug id {drug_id!r}") from None

    # ------------------------------------------------------------------
    # Cache lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the cache and detach the store (stopping its workers); the
        next query re-encodes the catalog and screens in memory.

        Every rebuild goes through here — a weight update seen by
        :meth:`_ensure_fresh` and ``refresh(force=True)`` alike — so a
        store never outlives the rows it holds.
        """
        self._cache.drop()
        self._detach_store()

    def refresh(self, force: bool = False) -> None:
        """Rebuild the cache now (``force=True`` skips the staleness check)."""
        if force:
            self.invalidate()
        self._ensure_fresh()

    def _catalog_digest(self, upto: int | None = None) -> str:
        """Content hash of the catalog the embedding rows belong to.

        ``upto`` hashes only the first ``upto`` drugs — the catalog is
        append-only, so a retained store version's digest is always the
        digest of some prefix (how :meth:`rollback_catalog` verifies a
        target version really is this catalog's past).
        """
        digest = hashlib.blake2b(digest_size=16)
        for smiles, drug_id in zip(self._smiles[:upto], self._drug_ids[:upto]):
            digest.update(smiles.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(drug_id.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Out-of-core shard store
    # ------------------------------------------------------------------
    def save_shards(self, path: str | Path, num_shards: int | None = None,
                    block_size: int | None = None) -> Path:
        """Persist the sharded catalog as an out-of-core store; see
        :class:`~repro.serving.store.ShardStore`.

        Writes each shard's embedding rows and precomputed candidate
        projections as raw ``.npy`` files under directory ``path``, plus a
        JSON manifest carrying the weight fingerprint and catalog digest.
        Returns the manifest path (pass it — or the directory — to
        :meth:`open_shards`, possibly from a different process or host).
        The drug records and the frozen encoder context are stored too,
        so the store plus the ``save_model`` archive is what
        :meth:`from_store` restarts from.  When the decoder prefilters
        through a sketch (MLP), the sketch rows and factors are stored
        too, so the store serves approximate screens on a cold open.

        The rows written are the rows served, and nothing is recomputed
        into the cache: in memory, the cache's projections; with a store
        attached, that store's rows, aliases and sketch factors — the
        attached store and its workers keep serving, and the copy boots
        (:meth:`from_store`) into bitwise-identical screens.  Saving into
        the attached store's own directory raises ``ValueError``:
        :meth:`compact_shards` rewrites that store in place.  Any other
        directory that holds a store starts a fresh history.
        """
        self._ensure_fresh()
        embeddings = self._cache.embeddings
        if self._store is None:
            if getattr(self._model.decoder, "needs_sketch", False):
                self._sketch_factors()  # adds the sketch rows
            projections = self._cache.ensure_projections(self._model.decoder)
        else:
            if Path(path).resolve() == self._store.root.resolve():
                raise ValueError(
                    f"{path} holds the attached shard store; "
                    f"compact_shards() rewrites it in place")
            projections = self._catalog().rows(np.arange(self.num_drugs))
            projections.update(dict.fromkeys(self._store.manifest["aliases"],
                                             embeddings))
        return ShardStore.save(
            path, embeddings, projections,
            num_shards=num_shards or self.num_shards,
            block_size=block_size or self.block_size,
            fingerprint=self._fingerprint(),
            catalog_digest=self._catalog_digest(),
            sketch_factors=self._cache.sketch_factors,
            drug_ids=self._drug_ids, smiles=self._smiles,
            context=[layer.data
                     for layer in self._cache.context.layer_node_feats],
            num_corpus=self._num_corpus)

    def open_shards(self, path: str | Path, strict: bool = False) -> bool:
        """Attach a :meth:`save_shards` store memory-mapped; True on success.

        The store is attached only if its manifest reads cleanly, its
        fingerprint matches the *current* model weights, and its catalog
        digest and row count match this service's exact drug list —
        otherwise it is ignored (or, with ``strict=True``, the error is
        raised).  While attached, exact-mode screening streams candidate
        blocks from the mapped files (O(block + k) heap) instead of
        in-memory arrays, approximate screens prefilter the mapped sketch
        rows and rerank the mapped shortlist rows, and the store can serve
        shard workers (:meth:`start_workers`, :meth:`connect_workers`).
        Results stay bitwise-identical to the in-memory engine.  The store
        stays attached exactly while it holds the rows being served:
        registrations are *appended through* to it (see
        :meth:`register_drugs`) and :meth:`rollback_catalog` moves it with
        the rows, while a rebuild (a weight update, :meth:`invalidate`) or
        a failed append-through detaches it — and stops its workers — and
        screening falls back in memory.  The store's sketch factors are
        read, CRC-checked, when it opens.

        The attaching process owns the store: any torn state a crashed
        writer left behind (intent journal, partial segment files) is
        recovered to the last committed version before validation — see
        :meth:`ShardStore.recover_dir`; the report is on
        ``service.shard_store.recovered``.
        """
        self._ensure_fresh()
        try:
            store = ShardStore(path, recover=True)
            sketch = self._check_store(store)
        except (OSError, ValueError, KeyError):
            if strict:
                raise
            return False
        self._attach_store(store, sketch)
        return True

    def _check_store(self, store: ShardStore) -> dict | None:
        """Check that ``store`` holds this service's rows — same weights
        fingerprint (serving precision included), catalog digest and row
        count — or raise ``ValueError``; returns its sketch factors
        (CRC-checked), or None when it has no sketch rows."""
        if store.fingerprint != self._fingerprint():
            raise ValueError("shard store fingerprint does not match the "
                             "current model weights")
        if store.catalog_digest != self._catalog_digest():
            raise ValueError(
                "shard store was saved for a different drug catalog")
        if store.num_drugs != self.num_drugs:
            raise ValueError(f"shard store covers {store.num_drugs} drugs; "
                             f"this service has {self.num_drugs}")
        if "sketch" not in store.projection_names:
            return None
        return store.sketch_factors()

    def _attach_store(self, store: ShardStore,
                      sketch: dict[str, np.ndarray] | None) -> None:
        """Serve from a store that holds exactly the cached rows, with the
        sketch factors :meth:`_check_store` read from it."""
        self._detach_store()
        # The store now serves the candidate side, so the in-memory copy
        # of the dominant working set — the precomputed projections, ~4x
        # the embedding matrix for the MLP decoder — is redundant: release
        # it, and adopt the sketch factors the store's rows were made with.
        # While the store is attached nothing recomputes the projections;
        # after a detach ensure_projections does, lazily.  The embeddings
        # and encoder context stay resident — queries and registrations
        # need them — so the service's floor is O(N·d), not O(N·d·5).
        self._cache.projections = None
        self._cache.sketch_factors = sketch
        self._store = store

    def _detach_store(self) -> None:
        self._store = None
        # Shard workers serve the detached store's shards — their answers
        # no longer describe the cache.
        self.disconnect_workers()
        self._catalog_engine = None
        self._catalog_key = None

    # ------------------------------------------------------------------
    # Shard-worker tier
    # ------------------------------------------------------------------
    def _attached_store(self, caller: str) -> ShardStore:
        """The attached store shard workers serve, or raise."""
        if self._store is None:
            raise RuntimeError(
                f"{caller} needs an attached shard store "
                "(save_shards + open_shards first)")
        return self._store

    def connect_workers(self, workers: list,
                        **kwargs) -> RemoteShardExecutor:
        """Route exact-mode screens to remote shard workers.

        ``workers`` are addresses (``(host, port)`` tuples,
        ``"host:port"`` strings, or in-process
        :class:`~repro.serving.remote.ShardWorker` objects) serving the
        *attached* shard store's manifest; ``kwargs`` configure the
        :class:`~repro.serving.remote.RemoteShardExecutor` (timeouts,
        retry budget, circuit breakers, local fallback).  Requires an
        attached store — the local mmap copy is the failover of last
        resort, and each request names the store version a worker must
        hold to answer (one that is behind reloads).  Screens stay
        bitwise-identical to the in-process plans under any fault
        schedule.  Connecting replaces any prior workers, stopping those
        :meth:`start_workers` launched.
        """
        store = self._attached_store("connect_workers")
        self.disconnect_workers()
        self._remote = RemoteShardExecutor(store, workers, **kwargs)
        return self._remote

    def start_workers(self, count: int,
                      **connect_kwargs) -> RemoteShardExecutor:
        """Launch ``count`` local shard worker processes and connect them.

        Each runs ``python -m repro.serving.worker <manifest>`` over the
        attached store on an ephemeral localhost port;
        ``connect_kwargs`` go to :meth:`connect_workers`.
        :meth:`disconnect_workers`, :meth:`close` and a store detach stop
        them.  Each is a fresh interpreter: starting takes ~0.5-1 s.
        """
        if count < 1:
            raise ValueError("start_workers needs count >= 1")
        manifest = str(self._attached_store("start_workers").path)
        src = str(Path(__file__).resolve().parents[2])  # this repro's root
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        processes = [subprocess.Popen(
            [sys.executable, "-m", "repro.serving.worker", manifest],
            stdout=subprocess.PIPE, text=True, env=env)
            for _ in range(count)]
        # A service dropped without close() still stops its workers.
        weakref.finalize(self, _stop_processes, processes)
        try:
            remote = self.connect_workers(
                [_worker_address(p) for p in processes], **connect_kwargs)
        except BaseException:
            _stop_processes(processes)
            raise
        self._worker_processes = processes
        return remote

    def disconnect_workers(self) -> None:
        """Drop the shard-worker tier and stop started workers; screens
        run in-process again."""
        if self._remote is not None:
            self._remote.close()
            self._remote = None
        _stop_processes(self._worker_processes)

    @property
    def remote(self) -> RemoteShardExecutor | None:
        """The connected remote executor, if any (stats live on it)."""
        return self._remote

    def close(self) -> None:
        """Release the shard-worker tier; the service stays usable."""
        self.disconnect_workers()

    def __enter__(self) -> "DDIScreeningService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    @property
    def precision(self) -> str:
        """The serving dtype of the screening tier ("float64"/"float32")."""
        return self._dtype.name

    def _weights(self) -> tuple[np.ndarray, ...]:
        """The parameter arrays currently bound to the model's weights."""
        return tuple(param.data for param in self._params)

    def _fingerprint(self) -> str:
        """Serving precision + weights digest for persisted artifacts,
        hashed once per set of (read-only) weight arrays."""
        weights = self._weights()
        if self._digest is None or not all(
                map(operator.is_, self._digest[0], weights)):
            _freeze(weights)
            self._digest = (weights, f"{self._dtype.name}:"
                                     f"{weights_fingerprint(self._model)}")
        return self._digest[1]

    def _ensure_fresh(self) -> None:
        """Rebuild the cache unless it came from the current weight arrays."""
        weights = self._weights()
        if self._cache.matches(weights):
            self._cache.stats.cache_hits += 1
            return
        self.invalidate()
        self._rebuild(_freeze(weights))

    def _rebuild(self, weights: tuple[np.ndarray, ...]) -> None:
        model = self._model
        was_training = model.training
        model.eval()
        try:
            corpus_emb, context = model.encoder.encode_with_context(
                self._corpus.node_ids, self._corpus.edge_ids,
                self._corpus.num_edges,
                partitions=(self._corpus.node_partition,
                            self._corpus.edge_partition))
            rows = [corpus_emb.numpy()]
            registered = self._smiles[self._num_corpus:]
            if registered:
                # Registered drugs re-encode from their SMILES; one that
                # was allowed without a known token keeps its zero row.
                rows.append(self._encode_subset(context, self._tokenize_batch(
                    registered, allow_unknown=True)))
            # Detach the context: serving never backprops, and a live context
            # would pin the whole corpus-encode autograd graph in the cache.
            detached = EncoderContext(layer_node_feats=tuple(
                Tensor(t.data) for t in context.layer_node_feats))
            # The encode always runs float64 (training parity); the serving
            # tier downcasts once here — a no-op at the default precision.
            embeddings = np.concatenate(rows, axis=0).astype(self._dtype,
                                                             copy=False)
            self._cache.install(
                weights, detached, embeddings,
                projections=model.candidate_projections(embeddings))
        finally:
            model.train(was_training)

    def _encode_subset(self, context: EncoderContext,
                       node_lists: list[np.ndarray]) -> np.ndarray:
        """Embed drugs (one token-id array each) against a frozen context.

        Runs in eval mode and returns the rows at the serving dtype.
        Each drug's hyperedge reduces independently, but the encoder
        projects the whole batch in one BLAS GEMM, whose per-row bits
        depend on the row count: a batch embeds like one drug at a time
        up to last-ulp differences (see
        :meth:`~repro.core.encoder.HyGNNEncoder.encode_edges_subset`, and
        ROADMAP's cold-start item for making it batch-invariant).
        """
        node_ids = (np.concatenate(node_lists) if node_lists
                    else np.zeros(0, dtype=np.int64))
        edge_ids = np.repeat(np.arange(len(node_lists), dtype=np.int64),
                             [len(n) for n in node_lists])
        model = self._model
        was_training = model.training
        model.eval()
        try:
            rows = model.encoder.encode_edges_subset(
                context, node_ids, edge_ids, len(node_lists)).numpy()
        finally:
            model.train(was_training)
        return rows.astype(self._dtype, copy=False)

    # ------------------------------------------------------------------
    # Incremental registration
    # ------------------------------------------------------------------
    def _tokenize_batch(self, smiles_list: list[str],
                        allow_unknown: bool) -> list[np.ndarray]:
        token_sets = self._builder.drug_token_sets(smiles_list)
        node_lists = []
        for smiles, tokens in zip(smiles_list, token_sets):
            if not tokens and not allow_unknown:
                raise ValueError(
                    f"no known substructures in {smiles!r}; its embedding "
                    f"would be all-zero (pass allow_unknown=True to register "
                    f"anyway)")
            node_lists.append(np.array(
                sorted(self._vocab[t] for t in tokens), dtype=np.int64))
        return node_lists

    def register_drug(self, smiles: str, drug_id: str | None = None,
                      allow_unknown: bool = False) -> int:
        """Add one new drug to the catalog; O(its substructures), not O(catalog).

        The drug is tokenized against the fitted vocabulary and embedded
        against the frozen corpus context — existing catalog embeddings are
        neither recomputed nor touched.  Returns the new catalog index.
        """
        return self.register_drugs([smiles],
                                   None if drug_id is None else [drug_id],
                                   allow_unknown=allow_unknown)[0]

    def register_drugs(self, smiles_list: list[str],
                       drug_ids: list[str] | None = None,
                       allow_unknown: bool = False) -> list[int]:
        """Batch registration: one encode for every new drug.

        The rows equal one-at-a-time registrations up to last-ulp
        differences from the encoder's batched GEMM (see
        :meth:`_encode_subset`).  With a shard store attached, the new
        rows are *appended through* to it as a crash-safe segment (a new
        committed catalog version) instead of detaching it — the
        memory-mapped and shard-worker tiers keep serving across
        registrations.  If the append fails, the registration still
        stands and the store detaches.
        """
        start = time.perf_counter()
        if drug_ids is None:
            drug_ids = [f"drug_{len(self._smiles) + i}"
                        for i in range(len(smiles_list))]
        if len(drug_ids) != len(smiles_list):
            raise ValueError("drug_ids length mismatch")
        clashes = [d for d in drug_ids if d in self._index]
        if clashes or len(set(drug_ids)) != len(drug_ids):
            raise ValueError(f"duplicate drug ids: {clashes or drug_ids}")
        node_lists = self._tokenize_batch(smiles_list, allow_unknown)

        self._ensure_fresh()
        rows = self._encode_subset(self._cache.context, node_lists)
        projections = self._model.candidate_projections(rows)
        factors = self._cache.sketch_factors
        if factors is not None:
            # Sketch the new rows with the served catalog's *existing*
            # factors so the append stays O(new rows) and keeps the
            # sketch rows alive.  Factors are per (weights, catalog)
            # version — drift from the appended rows only degrades
            # shortlist recall, never rerank exactness — and are
            # refreshed on the next full rebuild.
            projections["sketch"] = self._model.decoder.sketch_candidates(
                projections, factors)
        self._cache.append_rows(rows, projections=projections)

        indices = []
        for smiles, drug_id in zip(smiles_list, drug_ids):
            index = len(self._smiles)
            self._smiles.append(smiles)
            self._drug_ids.append(drug_id)
            self._index[drug_id] = index
            indices.append(index)
        if self._store is not None:
            self._append_to_store(rows, projections)
        stats = self._cache.stats
        stats.registrations += len(smiles_list)
        stats.registration_latency.record(time.perf_counter() - start,
                                          time.monotonic())
        return indices

    # ------------------------------------------------------------------
    # Living catalog: append-through, compaction, rollback
    # ------------------------------------------------------------------
    @property
    def catalog_epoch(self) -> int:
        """Monotone identifier of the catalog contents being served.

        Every mutation of the serving rows — rebuild, registration,
        rollback, cold boot — moves the epoch; two screens answered
        under the same epoch are answered from bitwise-identical
        catalogs.  The gateway samples this per flush to count epoch
        swaps observed by live traffic.
        """
        return self._cache.version

    @property
    def catalog_version(self) -> int | None:
        """The attached store's committed catalog version (None = no
        store)."""
        return None if self._store is None else self._store.version

    @property
    def shard_store(self) -> ShardStore | None:
        """The attached shard store, if any (versions/recovery live on
        it)."""
        return self._store

    def _append_to_store(self, rows: np.ndarray, projections: dict) -> None:
        """Carry freshly registered rows, with their drug records, through
        to the attached store.

        Called with the in-memory registration already complete.  Any
        append failure degrades gracefully — the store, which no longer
        holds every served row, detaches and the service keeps serving
        in memory.  (A simulated
        :class:`~repro.serving.faults.CrashPoint` is a ``BaseException``
        and deliberately flies past the degradation path, like a real
        ``kill -9`` would.)
        """
        new = slice(-len(rows), None)
        try:
            self._store.append(
                rows, projections, catalog_digest=self._catalog_digest(),
                drug_ids=self._drug_ids[new], smiles=self._smiles[new])
        except Exception:
            self._detach_store()
            return
        self._cache.stats.appends_committed += 1

    def compact_shards(self, num_shards: int | None = None) -> int:
        """Merge accumulated append segments into full shards.

        Commits a new catalog version under the store's journal + atomic
        replace protocol; the served rows are unchanged (screens stay
        bitwise-identical), only the on-disk layout is consolidated.
        Returns the new committed version.  Old segment files survive for
        retained versions — ``service.shard_store.gc()`` reclaims them.
        """
        version = self._attached_store("compact_shards").compact(
            num_shards, catalog_digest=self._catalog_digest())
        self._cache.stats.compactions += 1
        return version

    def rollback_catalog(self, version: int) -> int:
        """Roll the live catalog back to a retained store version.

        The target version must be a *prefix* of the current catalog
        (same fingerprint, and its catalog digest equals the digest of
        the first ``num_drugs`` entries) — the catalog is append-only, so
        any retained version of this store qualifies unless the corpus
        itself differs.  The store re-commits the target's content as a
        fresh (monotonic) version and the in-memory bookkeeping, cache
        rows, and projections are truncated to match; subsequent screens
        are bitwise-identical to the target version's.  Returns the new
        committed store version.
        """
        store = self._attached_store("rollback_catalog")
        target = store.manifest_for(version)
        n = int(target["num_drugs"])
        if not self._num_corpus <= n <= self.num_drugs:
            raise ValueError(
                f"version {version} covers {n} drugs; rollback can only "
                f"unwind registered extensions "
                f"({self._num_corpus}..{self.num_drugs} drugs)")
        if target.get("fingerprint") != store.manifest.get("fingerprint"):
            raise ValueError(
                f"version {version} was committed under different model "
                f"weights; cannot roll back a live service onto it")
        if target.get("catalog_digest") != self._catalog_digest(n):
            raise ValueError(
                f"version {version} is not a prefix of the current "
                f"catalog; cannot roll back")
        new_version = store.rollback(version)
        # In-memory truncation mirrors the store: rows are append-only,
        # so the prefix restores the target catalog exactly.
        if n < self.num_drugs:
            for drug_id in self._drug_ids[n:]:
                del self._index[drug_id]
            del self._smiles[n:]
            del self._drug_ids[n:]
        self._cache.truncate_rows(n)
        self._cache.stats.rollbacks += 1
        return new_version

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _as_query_index(self, query: int | str) -> int:
        """Resolve one query (catalog index or drug id) to an index.

        Booleans are rejected explicitly — ``isinstance(True, int)`` holds,
        so without the check ``screen(True)`` would silently screen catalog
        index 1.
        """
        if isinstance(query, (bool, np.bool_)):
            raise TypeError(
                f"query must be a catalog index or drug id, not a bool "
                f"(got {query!r})")
        if isinstance(query, (int, np.integer)):
            return int(query)
        return self.index_of(query)

    def _check_pairs(self, pairs: np.ndarray) -> np.ndarray:
        raw = np.asarray(pairs)
        if raw.dtype == np.bool_:
            raise TypeError(
                "pairs must hold integer catalog indices, not booleans")
        pairs = np.asarray(raw, dtype=np.int64).reshape(-1, 2)
        if pairs.size:
            bad = (pairs < 0) | (pairs >= self.num_drugs)
            if bad.any():
                row, col = (int(v) for v in np.argwhere(bad)[0])
                raise IndexError(
                    f"pair {row}, position {col}: index {int(pairs[row, col])} "
                    f"out of catalog range [0, {self.num_drugs})")
        return pairs

    def score_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Interaction probabilities for ``pairs`` of catalog indices."""
        pairs = self._check_pairs(pairs)
        self._ensure_fresh()
        self._cache.stats.pairs_scored += len(pairs)
        return self._model.predict_proba_from_embeddings(
            self._cache.embeddings, pairs)

    def score_id_pairs(self, id_pairs: list[tuple[str, str]]) -> np.ndarray:
        """Like :meth:`score_pairs`, addressing drugs by their ids."""
        for number, pair in enumerate(id_pairs):
            for drug_id in pair:
                if drug_id not in self._index:
                    raise KeyError(
                        f"unknown drug id {drug_id!r} (pair {number})")
        return self.score_pairs(np.array(
            [[self._index[a], self._index[b]] for a, b in id_pairs],
            dtype=np.int64).reshape(-1, 2))

    # -- blockwise / sharded screening engine ---------------------------
    # (The pre-engine ``_rank`` — a full stable argsort over dense catalog
    # probabilities — is gone: ranking now happens inside the streaming
    # top-k selection, which reproduces its ordering, ties included.)
    def _catalog(self) -> ShardedEmbeddingCatalog:
        """The screening catalog for the served rows (memoized).

        One :class:`ShardedEmbeddingCatalog` either way: over the attached
        store's memory-mapped shards, or over the cache's in-memory
        arrays.  Exact and approximate screens read the same catalog.
        Keys embed the store version or the cache's globally unique
        version, so a rebuilt or appended catalog can never be served a
        stale engine.
        """
        if self._store is not None:
            # The store version rides the key, so an append/compaction/
            # rollback commit retires the memoized engine and the next
            # screen admits the new catalog version (in-flight screens
            # keep the version-pinned catalog they started with).
            key = ("store", id(self._store), self._store.version,
                   self.block_size)
            if self._catalog_engine is None or self._catalog_key != key:
                self._catalog_engine = self._store.catalog(self.block_size)
                self._catalog_key = key
            return self._catalog_engine
        projections = self._cache.ensure_projections(self._model.decoder)
        key = (self._cache.version, self.block_size, self.num_shards)
        if self._catalog_engine is None or self._catalog_key != key:
            self._catalog_engine = ShardedEmbeddingCatalog(
                self._cache.embeddings, projections,
                num_shards=self.num_shards, block_size=self.block_size)
            self._catalog_key = key
        return self._catalog_engine

    def _kernel(self):
        if self._screen_kernel is None:
            self._screen_kernel = make_screen_kernel(self._model.decoder)
        return self._screen_kernel

    def _resolve_exclude(self, exclude: tuple) -> np.ndarray:
        resolved = {self._as_query_index(i) for i in exclude}
        # Sorted, so the resolved index order never depends on set/hash
        # iteration order — the same exclusion list produces byte-identical
        # exclusion arrays in every process (worker dispatch included).
        return np.sort(np.fromiter(resolved, dtype=np.int64,
                                   count=len(resolved)))

    def _screen_embeddings(self, query_embeddings: np.ndarray,
                           top_k: int | list[int], exclude: list[np.ndarray],
                           symmetric: bool, approx: bool,
                           approx_oversample: int
                           ) -> list[list[ScreenHit]]:
        """Shared engine behind screen / screen_batch / screen_smiles.

        Exact mode streams probability blocks through per-shard top-k
        selection; scores are bitwise-identical to
        :meth:`HyGNN.screen_probs` over the full catalog for every block
        size, shard count, query-batch size, and placement (in-memory,
        memory-mapped, or shard workers, used whenever connected).
        ``top_k`` may be per-query: queries are selected and reduced
        independently, so heterogeneous budgets in one batch reproduce
        the homogeneous results bitwise.
        Approximate mode prefilters each block with one cheap GEMM (dot:
        the inner products themselves; MLP: a low-rank sketch of the
        split-weight operands), then exact-reranks the
        ``top_k * approx_oversample`` survivors.
        """
        decoder = self._model.decoder
        kernel = self._kernel()
        num_queries = len(query_embeddings)
        two_sided = symmetric and not decoder.is_symmetric
        query_proj = decoder.project_queries(
            query_embeddings,
            sides=("as_left", "as_right") if two_sided else ("as_left",))
        stats = self._cache.stats
        # Excluded candidates are filtered out and never reported, so they
        # are not useful pair evaluations: charge only the eligible ones
        # (every screen excludes at least the query itself).
        eligible = sum(self.num_drugs - e.size for e in exclude)

        if approx:
            if not decoder.supports_prefilter:
                raise ValueError(
                    f"approximate screening needs a decoder with a "
                    f"prefilter; {type(decoder).__name__} has none")
            if approx_oversample < 1:
                raise ValueError("approx_oversample must be >= 1")
            results, rescored = self._approx_screen(
                kernel, query_proj,
                ShardPlan.build(num_queries, top_k, exclude),
                approx_oversample, two_sided)
            # The shortlist scan is one cheap comparison per candidate,
            # not an exact pair score; only the rescores are exact.
            stats.prefilter_pairs += num_queries * self.num_drugs
            stats.pairs_scored += rescored
        else:
            # Every plan is bitwise-identical, so routing is a pure
            # placement decision.
            if self._remote is not None:
                results = self._remote.screen(
                    kernel, query_proj, num_queries, top_k,
                    block_size=self.block_size, exclude=exclude,
                    two_sided=two_sided)
                stats.remote_screens += num_queries
            else:
                results = self._catalog().screen(
                    exact_score_fn(kernel, query_proj, two_sided),
                    num_queries, top_k, exclude=exclude)
            stats.pairs_scored += eligible * (2 if two_sided else 1)
        stats.screens += num_queries
        return [[ScreenHit(index=int(j), drug_id=self._drug_ids[j],
                           probability=float(p))
                 for j, p in zip(indices, probs)]
                for indices, probs in results]

    def _sketch_factors(self) -> dict[str, np.ndarray]:
        """The MLP prefilter's sketch factors for the served catalog.

        Built on the cache when serving from memory; with a store
        attached, the factors its sketch rows were made with, read when
        it opened.
        """
        if self._store is None:
            return self._cache.ensure_sketch(self._model.decoder)
        if self._cache.sketch_factors is None:
            raise ValueError(
                "attached shard store carries no prefilter sketch for "
                f"{type(self._model.decoder).__name__}; re-save it with "
                "save_shards() to serve approximate mode")
        return self._cache.sketch_factors

    def _approx_screen(self, kernel, query_proj, plan: ShardPlan,
                       oversample, two_sided):
        """Cheap-operand prefilter, then one exact rerank of every shortlist.

        One path for every placement: the shortlist pass streams
        prefilter scores over :meth:`_catalog` — in memory or memory
        mapped (dot: one inner-product GEMM per block; MLP: the low-rank
        sketch GEMM, a forward-orientation surrogate even for symmetric
        screens) — through the same top-k engine as exact mode, keeping
        ``top_k * oversample`` survivors per query.  The rerank gathers
        every shortlist's rows from that catalog with one ``rows`` call —
        shorter shortlists padded with row 0 to the longest — and scores
        them as one ``(Q, K)`` batch with the kernel's ``score_rows``
        (two-sided when the screen is), which is bitwise what exact mode
        reports for the same pairs; the padding is dropped before
        selection.  Returns ``(results, rescored)`` where ``rescored``
        counts the shortlist rows the exact kernel scored.
        """
        if getattr(self._model.decoder, "needs_sketch", False):
            # Factors first: building them in memory adds the sketch rows
            # to the cached projections the catalog is made from.
            query_proj["sketch"] = kernel.sketch_queries(
                query_proj, self._sketch_factors())
        catalog = self._catalog()

        def prefilter(_emb_block, proj_block):
            return kernel.prefilter_block(query_proj, proj_block)

        shortlist = catalog.screen(
            prefilter, plan.num_queries,
            [max(k * oversample, k) for k in plan.top_ks],
            exclude=plan.excludes)
        lengths = [len(indices) for indices, _ in shortlist]
        gather = np.zeros((len(shortlist), max(lengths, default=0)),
                          dtype=np.int64)
        for qi, (indices, _approx_scores) in enumerate(shortlist):
            gather[qi, :len(indices)] = indices
        probs = np.zeros(gather.shape)
        if gather.size:
            rows = {name: value.reshape(gather.shape + value.shape[1:])
                    for name, value in catalog.rows(
                        gather.reshape(-1)).items()}
            probs = stable_sigmoid(kernel.score_rows(query_proj, rows))
            if two_sided:
                probs = 0.5 * (probs + stable_sigmoid(
                    kernel.score_rows(query_proj, rows, reverse=True)))
        results = []
        for qi, ((indices, _), top_k) in enumerate(zip(shortlist,
                                                      plan.top_ks)):
            row = probs[qi, :len(indices)]
            select = np.lexsort((indices, -row))[:max(top_k, 0)]
            results.append((indices[select], row[select]))
        return results, sum(lengths) * (2 if two_sided else 1)

    def screen(self, query: int | str, top_k: int = 5,
               exclude: tuple = (), symmetric: bool = False,
               approx: bool = False,
               approx_oversample: int = 4) -> list[ScreenHit]:
        """Top-k most likely interaction partners of one catalog drug.

        ``symmetric=True`` averages σ(γ(x, y)) and σ(γ(y, x)) — the MLP
        decoder is order-sensitive; the dot decoder is already symmetric.
        ``approx=True`` ranks via a cheap prefilter (inner products for the
        dot decoder, a low-rank sketch for the MLP decoder) keeping
        ``top_k * approx_oversample`` candidates for an exact rerank —
        near-ties beyond the shortlist may be missed.  Exact screens run on
        connected shard workers if there are any, in process otherwise;
        every plan returns bitwise-identical hits.  A one-query
        :meth:`screen_batch`.
        """
        return self.screen_batch(
            [query], top_k=top_k, exclude=exclude, symmetric=symmetric,
            approx=approx, approx_oversample=approx_oversample)[0]

    def _normalize_exclude_arg(self, exclude,
                               num_queries: int) -> list[np.ndarray]:
        """Resolve a shared or per-query ``exclude`` to index arrays.

        A flat collection of catalog indices / drug ids is one shared
        exclusion set applied to every query; a collection whose elements
        are themselves collections (tuples, lists, sets, arrays) is
        per-query and must have one entry per query.  Deciding by element
        type — the same rule as :func:`repro.serving.shards
        .normalize_exclude` — keeps ``exclude=(3, "drug_5")`` shared even
        when the batch happens to have two queries.
        """
        if exclude is None:
            exclude = ()
        if isinstance(exclude, (list, tuple)) and len(exclude) and all(
                isinstance(e, (list, tuple, set, frozenset, np.ndarray))
                for e in exclude):
            if len(exclude) != num_queries:
                raise ValueError(
                    f"per-query exclude has {len(exclude)} entries for "
                    f"{num_queries} queries")
            return [self._resolve_exclude(tuple(e)) for e in exclude]
        shared = self._resolve_exclude(tuple(exclude))
        return [shared] * num_queries

    def screen_batch(self, queries: list[int | str],
                     top_k: int | list[int] = 5,
                     exclude: tuple | list = (), symmetric: bool = False,
                     approx: bool = False, approx_oversample: int = 4
                     ) -> list[list[ScreenHit]]:
        """Micro-batched screening: many queries, one pass over the catalog.

        Every candidate block is scored against the whole query batch in a
        single vectorized kernel call (for the dot prefilter, one GEMM per
        block), so catalog traffic is paid once for the batch instead of
        once per query.  The batch may be heterogeneous: ``top_k`` accepts
        a per-query list and ``exclude`` a per-query list of collections
        (a flat tuple of indices/ids stays one shared exclusion set) —
        which is what lets the async gateway coalesce unrelated callers'
        requests into one flush.  Per-query results are bitwise-identical
        to calling :meth:`screen` one query at a time with that query's
        own ``top_k``/``exclude``.
        """
        if not len(queries):
            return []
        indices = [self._as_query_index(q) for q in queries]
        for index in indices:
            if not 0 <= index < self.num_drugs:
                raise IndexError(f"catalog index {index} out of range")
        self._ensure_fresh()
        base = self._normalize_exclude_arg(exclude, len(queries))
        per_query = [np.union1d(e, np.array([index], dtype=np.int64))
                     if e.size else np.array([index], dtype=np.int64)
                     for e, index in zip(base, indices)]
        query_embs = self._cache.embeddings[np.asarray(indices,
                                                       dtype=np.int64)]
        return self._screen_embeddings(query_embs, top_k, per_query,
                                       symmetric, approx, approx_oversample)

    def screen_smiles(self, smiles: str, top_k: int = 5,
                      symmetric: bool = False,
                      allow_unknown: bool = False,
                      approx: bool = False,
                      approx_oversample: int = 4) -> list[ScreenHit]:
        """Screen an *unregistered* SMILES against the catalog (transient).

        The query drug is embedded on the fly against the frozen context and
        discarded — nothing is added to the catalog, and the cached
        embedding table is never copied: the transient query rides the same
        blockwise engine as catalog queries.
        """
        return self.screen_smiles_batch(
            [smiles], top_k=top_k, symmetric=symmetric,
            allow_unknown=allow_unknown, approx=approx,
            approx_oversample=approx_oversample)[0]

    def screen_smiles_batch(self, smiles_list: list[str],
                            top_k: int | list[int] = 5,
                            symmetric: bool = False,
                            allow_unknown: bool = False,
                            approx: bool = False,
                            approx_oversample: int = 4
                            ) -> list[list[ScreenHit]]:
        """Micro-batched :meth:`screen_smiles`: one encode, one catalog pass.

        All transient queries are tokenized and embedded in a single
        :meth:`~repro.core.encoder.HyGNNEncoder.encode_edges_subset` call
        and screened as one engine batch; ``top_k`` may be per-query.  The
        batched encode matches one-at-a-time encoding only up to last-ulp
        differences (see :meth:`_encode_subset`), so a query's
        probabilities may differ from a serial :meth:`screen_smiles` call
        in the last bits.
        """
        if not len(smiles_list):
            return []
        node_lists = self._tokenize_batch(list(smiles_list), allow_unknown)
        self._ensure_fresh()
        query_embs = self._encode_subset(self._cache.context, node_lists)
        empty = np.zeros(0, dtype=np.int64)
        return self._screen_embeddings(query_embs, top_k,
                                       [empty] * len(node_lists), symmetric,
                                       approx, approx_oversample)
