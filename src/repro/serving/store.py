"""Memory-mapped shard store: the out-of-core tier of the screening engine.

A :class:`ShardStore` persists a sharded catalog — the embedding rows, the
precomputed candidate-side decoder projections and the ``[drug id,
smiles]`` records of each shard — as raw ``.npy`` files next to a JSON
manifest; it is the one on-disk record of the catalog:

    store_dir/
      manifest.json                     # the current committed version
      manifest.v000000.json             # retained snapshot of version 0
      manifest.v000001.json             # retained snapshot of version 1
      shard_00000.emb.npy               # shard 0's embedding rows
      shard_00000.proj.<name>.npy       # shard 0's rows of projection <name>
      shard_00000.drugs.npy             # shard 0's rows' drug records
      context.0.npy                     # encoder-context layer 0
      seg_v000001.emb.npy               # rows appended by version 1
      journal.json                      # write-ahead intent (only mid-commit)
      orphans/                          # quarantined debris from dead writers

The manifest records the contiguous row range of every shard, the weight
fingerprint and catalog digest the arrays were computed under (so a loader
can *prove* the store still matches the model and drug list it is about to
serve), the projection names — including which of them alias the
embedding matrix itself (the dot decoder's identity precompute), which are
never written twice — and a CRC32 for every file it references; a
manifest without one is refused.  The shard files hold the exact serving
rows, so one store serves exact screens, approximate screens (the MLP
sketch rows and factors are stored too), appends and cold boots (the
frozen encoder context and the corpus size are stored with version 0).

The store is a **versioned, crash-consistent, append-only catalog**:

- :meth:`save` writes version 0; :meth:`append` lands new drugs as
  segment files without touching a byte of any existing shard file;
  :meth:`compact` merges accumulated segments into full shards;
  :meth:`rollback` re-commits any retained version's content as a new
  version; :meth:`gc` drops old retained versions.  Saving into a
  directory that holds a store starts a fresh history: the old manifests
  go, and data files the new store does not reference are left for
  :meth:`gc`.
- Every write — version 0 included — is staged through a write-ahead
  intent journal (``journal.json``), then data files land via atomic
  temp+rename writes, then a retained ``manifest.v{N}.json`` snapshot, and
  finally one atomic ``os.replace`` of ``manifest.json`` **commits** the
  new version.  Catalog versions increase monotonically — a rollback is a
  new version whose content equals an old one, so readers never see
  version numbers reused.
- Opening with ``recover=True`` (what :meth:`DDIScreeningService.open_shards
  <repro.serving.service.DDIScreeningService.open_shards>` and
  ``from_store`` do) repairs any torn state a dead writer left behind:
  a completed-but-unacknowledged commit is tidied, a fully-staged commit is
  rolled forward, and anything else is rolled back with the dead writer's
  segment files quarantined under ``orphans/``.  Plain readers (shard
  workers) open with the default ``recover=False`` and only
  ever see ``manifest.json`` — always a complete committed state — so a
  live writer's in-flight journal is never disturbed by a concurrent open.
- Crash-consistency is *driven*, not hoped for: every journal/segment/
  manifest write is bracketed by a named crash point (``self.crash_policy``
  — a :class:`~repro.serving.faults.CrashPolicy`), and the chaos tests kill
  the writer at each point and assert recovery lands on a committed version
  whose screens are bitwise-identical to that version's engine.

Reopening goes through ``np.load(..., mmap_mode="r")``: shard arrays become
read-only ndarray views of memory maps, so a screening pass touches O(block)
file pages at a time and its heap allocations stay O(block + k) — a catalog
(projections included) far larger than RAM streams through the engine.  A
store's shards are the contiguous row ranges of the engine's shard plan
(:mod:`repro.serving.shards`), and every placement reads them the same way:
:meth:`ShardStore.catalog` wraps the mapped shards in the one
:class:`~repro.serving.shards.ShardedEmbeddingCatalog`, which runs the plan
inline, and shard workers and the remote client's local fallback
(:mod:`repro.serving.remote`) open single shards by manifest path and run
the one exact per-shard task — no catalog array ever crosses a process
boundary, and results are bitwise-identical to the in-memory engine for
every block size and shard count.
"""

from __future__ import annotations

import json
import re
import threading
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

from .faults import CrashPolicy
from .shards import CatalogShard, ShardedEmbeddingCatalog, shard_ranges

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.json"
ORPHAN_DIR = "orphans"
STORE_FORMAT = "repro.serving.shard-store/v1"
JOURNAL_FORMAT = "repro.serving.shard-journal/v1"
_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")
_RETAINED_RE = re.compile(r"^manifest\.v(\d{6})\.json$")
_CRC_CHUNK = 1 << 20  # 1 MB read chunks keep verification O(1) in heap
# numpy parses every .npy header with ast.literal_eval, and CPython 3.11
# keeps one process-wide AST recursion counter that two threads parsing at
# once can trip ("SystemError: AST constructor recursion depth mismatch").
# A worker's handler threads and a remote client's fallback threads open
# shards concurrently, so shard loads are serialised; each shard opens
# once per store, off the per-screen path.
_NPY_LOAD_LOCK = threading.Lock()


class ShardIntegrityError(ValueError):
    """A shard file's bytes no longer match its manifest CRC32 checksum.

    Raised instead of serving silently mis-scored results from a torn or
    corrupted ``.npy``; the offending shard index lands in
    :attr:`ShardStore.quarantined` so callers (the remote worker, the
    failover client) can route around it.
    """


def _crc32_file(path: Path) -> int:
    """CRC32 of a file's bytes, streamed in chunks (O(1) heap)."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CRC_CHUNK)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def _atomic_save(root: Path, name: str, array: np.ndarray) -> int:
    """Write ``root/name`` as ``.npy`` via temp file + ``os.replace``.

    Readers can never observe a half-written array: they see either the
    old file or the new one.  Returns the CRC32 of the written bytes for
    the manifest's integrity record.
    """
    tmp = root / (name + ".tmp")
    with open(tmp, "wb") as handle:
        np.save(handle, array)
    crc = _crc32_file(tmp)
    tmp.replace(root / name)
    return crc


def _atomic_write_text(root: Path, name: str, payload: str) -> None:
    """Write ``root/name`` via temp file + ``os.replace`` (all-or-nothing)."""
    tmp = root / (name + ".tmp")
    tmp.write_text(payload)
    tmp.replace(root / name)


def _retained_name(version: int) -> str:
    """File name of the retained manifest snapshot for ``version``."""
    return f"manifest.v{int(version):06d}.json"


def _manifest_files(manifest: dict) -> set[str]:
    """Every data file a manifest references (shards, drug records,
    encoder context and sketch factors)."""
    names: set[str] = set(manifest.get("context") or [])
    for spec in manifest.get("shards", []):
        names.update([spec["embeddings"], spec["drugs"]])
        names.update(spec["projections"].values())
    sketch = manifest.get("sketch_factors") or {}
    names.update(sketch.values())
    return names


def _spec_files(spec: dict) -> list[str]:
    """The files an open shard maps: its rows and their projections."""
    return [spec["embeddings"], *spec["projections"].values()]


def _cut_shard(stem: str, lo: int, hi: int, embeddings: np.ndarray,
               projections: dict[str, np.ndarray], names: list[str],
               drug_ids: list[str], smiles: list[str], offset: int = 0
               ) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    """Name and cut one shard's files: rows ``[lo, hi)`` of the embeddings,
    of each named projection and of the drugs, as ``{stem}.emb.npy``,
    ``{stem}.proj.{name}.npy`` and ``{stem}.drugs.npy`` (the ``[drug id,
    smiles]`` records as UTF-8 JSON in a ``uint8`` array: nothing is
    pickled).

    Returns the shard's manifest entry, covering global rows ``[offset +
    lo, offset + hi)``, and its ``(file name, rows)`` list for
    :func:`_commit`.
    """
    spec = {"start": offset + lo, "stop": offset + hi,
            "embeddings": f"{stem}.emb.npy", "drugs": f"{stem}.drugs.npy",
            "projections": {name: f"{stem}.proj.{name}.npy"
                            for name in names}}
    # A record at a time: thousands of per-row containers alive at once
    # would move the cyclic GC's next collections for the whole process.
    records = ",".join(json.dumps([drug_id, text]) for drug_id, text
                       in zip(drug_ids[lo:hi], smiles[lo:hi]))
    files = [(spec["embeddings"], embeddings[lo:hi]),
             (spec["drugs"], np.frombuffer(f"[{records}]".encode("utf-8"),
                                           dtype=np.uint8))]
    files += [(spec["projections"][name], np.asarray(projections[name])[lo:hi])
              for name in names]
    return spec, files


def _commit(root: Path, crash: Callable[[str], None], op: str,
            new_manifest: dict, data_files: list[tuple[str, np.ndarray]]
            ) -> None:
    """Stage and atomically commit ``new_manifest`` under ``root``.

    The write-ahead protocol, with a named ``crash`` point after every
    durable step (``{op}.begin`` fires before the first one):

    1. ``journal.json`` — the intent: target version, the retained
       manifest name, and every data file about to be written.  From
       here a dead writer is recoverable: either all listed files plus
       the retained manifest made it (roll forward) or they did not
       (roll back + quarantine).
    2. each data file, via atomic temp+rename, CRC recorded;
    3. the retained ``manifest.v{N}.json`` snapshot;
    4. **commit point** — one atomic ``os.replace`` of ``manifest.json``;
    5. journal deleted (a crash between 4 and 5 is already committed —
       recovery just tidies the journal).

    No store object is touched: callers adopt the new manifest only after
    this returns.
    """
    target_version = int(new_manifest["version"])
    retained_name = _retained_name(target_version)
    crash(f"{op}.begin")
    journal = {
        "format": JOURNAL_FORMAT,
        "op": op,
        "target_version": target_version,
        "manifest": retained_name,
        "files": [name for name, _ in data_files],
    }
    _atomic_write_text(root, JOURNAL_NAME,
                       json.dumps(journal, indent=2, sort_keys=True))
    crash(f"{op}.journal")
    checksums = dict(new_manifest.get("checksums") or {})
    for name, array in data_files:
        checksums[name] = _atomic_save(root, name, array)
        crash(f"{op}.file:{name}")
    new_manifest["checksums"] = checksums
    payload = json.dumps(new_manifest, indent=2, sort_keys=True)
    _atomic_write_text(root, retained_name, payload)
    crash(f"{op}.manifest")
    _atomic_write_text(root, MANIFEST_NAME, payload)
    crash(f"{op}.commit")
    (root / JOURNAL_NAME).unlink()
    crash(f"{op}.done")


class ShardStore:
    """Disk layout + lazy memory-mapped access for one persisted catalog.

    ``ShardStore(path)`` opens an existing store (``path`` may be the store
    directory or the manifest file itself); :meth:`save` writes one.  Shards
    open lazily and are memoized per store instance, so a reader that
    screens only shard *i* maps only shard *i*'s files.

    ``recover=True`` runs crash recovery before reading the manifest — only
    the catalog's *owner* (the serving process that mutates it) should pass
    it; concurrent readers must not, or they would roll back a live
    writer's in-flight journal.  The result of recovery, if any ran, is
    recorded in :attr:`recovered`.
    """

    def __init__(self, path: str | Path, recover: bool = False):
        path = Path(path)
        if path.is_dir():
            path = path / MANIFEST_NAME
        self.path = path
        self.root = path.parent
        # Crash-injection hook for the chaos tests: when set, every
        # journal/segment/manifest write inside a mutation passes through
        # CrashPolicy.check, which may raise CrashPoint to simulate the
        # writer dying exactly there.
        self.crash_policy: CrashPolicy | None = None
        self.recovered: dict | None = None
        self._mutate_lock = threading.Lock()
        # (file name, manifest CRC32) of every file checked so far.
        self._verified: set[tuple[str, int]] = set()
        self._opened: dict[int, CatalogShard] = {}
        if recover:
            self.recovered = self.recover_dir(self.root)
        manifest = json.loads(path.read_text())
        self._install(manifest)

    # ------------------------------------------------------------------
    def _install(self, manifest: dict, *,
                 keep_quarantine: bool = False) -> None:
        """Adopt ``manifest`` as this store's current in-memory state.

        Called from the constructor and after every successful disk commit
        — never before one, so a mutation that dies mid-commit (including
        a simulated :class:`~repro.serving.faults.CrashPoint`) leaves the
        in-memory store exactly as it was.  The verify memo keeps only the
        files this manifest still lists under the same CRC32: a mutation
        writes new files, and a file re-saved in place comes back with a
        new checksum unless its bytes are unchanged.  By the same rule an
        open shard stays open while its index keeps the same spec (rows
        and file names) and its files the same CRC32s, so an append, or a
        reload after one, maps only the new segment.
        """
        if not isinstance(manifest, dict):
            raise ValueError(f"{self.path} is not a shard-store manifest")
        if manifest.get("format") != STORE_FORMAT:
            raise ValueError(
                f"{self.path} is not a shard-store manifest "
                f"(format={manifest.get('format')!r})")
        if manifest.get("quantization") is not None:
            # Earlier releases could write int8 codes under a manifest
            # that still says float64; scored as rows they would be
            # silently wrong.
            raise ValueError(
                f"{self.path} is an int8 quantized store, which is no "
                f"longer supported; re-save the catalog with save_shards()")
        shards = manifest.get("shards")
        if isinstance(shards, list) and any(
                isinstance(spec, dict) and "drugs" not in spec
                for spec in shards):
            raise ValueError(
                f"{self.path} records no drug list (an earlier release wrote "
                f"it); re-save the catalog with save_shards()")
        missing = {"num_drugs", "embed_dim", "block_size", "projections",
                   "aliases", "shards", "checksums"} - manifest.keys()
        if missing:
            raise ValueError(f"{self.path} is missing manifest keys "
                             f"{sorted(missing)}")
        # Coerce the scalar fields eagerly so any malformed manifest —
        # whatever the corruption — fails here as a ValueError, which
        # best-effort openers (DDIScreeningService.open_shards) treat as
        # "no usable store" rather than crashing.
        try:
            num_drugs = int(manifest["num_drugs"])
            embed_dim = int(manifest["embed_dim"])
            block_size = int(manifest["block_size"])
            version = int(manifest.get("version", 0))
            if not isinstance(manifest["shards"], list):
                raise TypeError
            checksums = {str(name): int(crc)
                         for name, crc in manifest["checksums"].items()}
            unchecked = _manifest_files(manifest) - checksums.keys()
        except (AttributeError, TypeError, ValueError, KeyError) as error:
            raise ValueError(
                f"{self.path} has malformed manifest fields") from error
        if unchecked:
            raise ValueError(f"{self.path} records no CRC32 checksum for "
                             f"{sorted(unchecked)}; re-save the store")
        specs = manifest["shards"]
        self._opened = {
            index: shard for index, shard in self._opened.items()
            if index < len(specs)
            and specs[index] == self.manifest["shards"][index]
            and all(checksums[name] == self._checksums[name]
                    for name in _spec_files(specs[index]))}
        self.manifest = manifest
        self._num_drugs = num_drugs
        self._embed_dim = embed_dim
        self._block_size = block_size
        self.version = version
        self.fingerprint = manifest.get("fingerprint")
        self._checksums = checksums
        self.catalog_digest = manifest.get("catalog_digest")
        # Shard indices whose files failed CRC verification — detected
        # rather than served; callers route around them (failover) or
        # re-save the store.
        if not keep_quarantine:
            self.quarantined: set[int] = set()
        self._verified = {entry for entry in self._verified
                          if checksums.get(entry[0]) == entry[1]}

    def _crash(self, point: str) -> None:
        policy = self.crash_policy
        if policy is not None:
            policy.check(point)

    # ------------------------------------------------------------------
    @property
    def num_drugs(self) -> int:
        return self._num_drugs

    @property
    def embed_dim(self) -> int:
        return self._embed_dim

    @property
    def num_shards(self) -> int:
        return len(self.manifest["shards"])

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def projection_names(self) -> list[str]:
        return list(self.manifest["projections"])

    def _verify_file(self, name: str, shard: int | None = None) -> None:
        """CRC-check one store file (memoized); quarantine on mismatch.

        Every file the manifest references has a checksum (:meth:`_install`
        refuses one that does not).  The memo is keyed by file name and
        checksum, so a version that lists the file under another checksum
        re-reads its bytes.
        """
        expected = self._checksums[name]
        if (name, expected) in self._verified:
            return
        actual = _crc32_file(self.root / name)
        if actual != expected:
            if shard is not None:
                self.quarantined.add(shard)
            raise ShardIntegrityError(
                f"{self.root / name}: CRC32 {actual:#010x} does not match "
                f"manifest checksum {expected:#010x} — shard file is torn "
                f"or corrupt" + (f" (shard {shard} quarantined)"
                                 if shard is not None else ""))
        self._verified.add((name, expected))

    def verify(self, strict: bool = False) -> list[int]:
        """CRC-check every file of this version now; returns the bad shard
        indices.

        Every byte is read again, whatever the memo holds, so a file
        damaged since an earlier check is caught.  A shard whose rows or
        drug records fail is quarantined.  ``strict=True`` raises
        :class:`ShardIntegrityError` on the first mismatch instead of
        collecting; a torn encoder-context or sketch factor file always
        raises, as no shard can route around it.
        """
        self._verified = set()
        bad: list[int] = []
        for index, spec in enumerate(self.manifest["shards"]):
            try:
                for name in [*_spec_files(spec), spec["drugs"]]:
                    self._verify_file(name, shard=index)
            except ShardIntegrityError:
                if strict:
                    raise
                bad.append(index)
        sketch = self.manifest.get("sketch_factors") or {}
        for name in [*(self.manifest.get("context") or []), *sketch.values()]:
            self._verify_file(name)
        return bad

    def drugs(self) -> tuple[list[str], list[str]]:
        """The drug id and SMILES of every row, CRC-checked."""
        drug_ids, smiles = [], []
        for index, spec in enumerate(self.manifest["shards"]):
            self._verify_file(spec["drugs"], shard=index)
            payload = self._load(spec["drugs"], mmap_mode=None).tobytes()
            records = json.loads(payload.decode("utf-8"))
            drug_ids += [record[0] for record in records]
            smiles += [record[1] for record in records]
        return drug_ids, smiles

    def encoder_context(self) -> tuple[list[np.ndarray], int] | None:
        """The frozen encoder-context layers saved with version 0
        (CRC-checked) and the number of corpus drugs, or None."""
        names = self.manifest.get("context")
        if not names:
            return None
        for name in names:
            self._verify_file(name)
        return ([self._load(name, mmap_mode=None) for name in names],
                int(self.manifest["num_corpus"]))

    def sketch_factors(self) -> dict[str, np.ndarray] | None:
        """The prefilter sketch factors saved with the store, if any."""
        spec = self.manifest.get("sketch_factors")
        if not spec:
            return None
        if not {"mean", "std", "components"} <= spec.keys():
            raise ValueError(f"{self.path} has incomplete sketch factors "
                             f"{sorted(spec)}; re-save the store")
        for name in spec.values():
            self._verify_file(name)
        return {key: np.load(self.root / name) for key, name in spec.items()}

    def nbytes(self) -> int:
        """Total bytes of the shard files (embeddings + projections)."""
        spec_files = [self.root / spec["embeddings"]
                      for spec in self.manifest["shards"]]
        spec_files += [self.root / name
                       for spec in self.manifest["shards"]
                       for name in spec["projections"].values()]
        return sum(f.stat().st_size for f in spec_files)

    # ------------------------------------------------------------------
    def open_shard(self, index: int) -> CatalogShard:
        """Memory-map one shard's arrays (memoized per store instance)."""
        shard = self._opened.get(index)
        if shard is not None:
            return shard
        spec = self.manifest["shards"][index]
        start, stop = int(spec["start"]), int(spec["stop"])
        # Integrity first: a torn/corrupt file must be *detected* (and the
        # shard quarantined), never silently mis-scored.  The CRC pass
        # streams the file in chunks, so heap stays O(1) even for shards
        # far larger than RAM.
        for name in _spec_files(spec):
            self._verify_file(name, shard=index)
        embeddings = self._load(spec["embeddings"])
        if embeddings.shape != (stop - start, self.embed_dim):
            raise ValueError(
                f"shard {index}: {spec['embeddings']} has shape "
                f"{embeddings.shape}, manifest says "
                f"({stop - start}, {self.embed_dim})")
        aliases = set(self.manifest["aliases"])
        projections = {}
        for name in self.manifest["projections"]:
            if name in aliases:
                projections[name] = embeddings
            else:
                matrix = self._load(spec["projections"][name])
                if len(matrix) != stop - start:
                    raise ValueError(
                        f"shard {index}: projection {name!r} has "
                        f"{len(matrix)} rows for {stop - start} drugs")
                projections[name] = matrix
        shard = CatalogShard(
            indices=np.arange(start, stop, dtype=np.int64),
            embeddings=embeddings, projections=projections)
        self._opened[index] = shard
        return shard

    def _load(self, name: str, mmap_mode: str | None = "r") -> np.ndarray:
        # A plain read-only ndarray over the mapping: every slice of an
        # np.memmap runs its Python-level __getitem__/__array_finalize__.
        with _NPY_LOAD_LOCK:
            return np.asarray(np.load(self.root / name, mmap_mode=mmap_mode))

    def catalog(self, block_size: int | None = None
                ) -> ShardedEmbeddingCatalog:
        """A :class:`~repro.serving.shards.ShardedEmbeddingCatalog` over
        the memory-mapped shards of the current version.

        The catalog holds the shards it was built from, so it keeps
        screening this version after the store commits another.
        """
        return ShardedEmbeddingCatalog.from_shards(
            [self.open_shard(i) for i in range(self.num_shards)],
            block_size or self.block_size)

    # ------------------------------------------------------------------
    # Versioned mutation protocol
    # ------------------------------------------------------------------
    def _copy_manifest(self) -> dict:
        """A mutation-safe deep copy of the current manifest."""
        return json.loads(json.dumps(self.manifest))

    def append(self, embeddings: np.ndarray,
               projections: dict[str, np.ndarray] | None = None,
               catalog_digest: str | None = None, *,
               drug_ids: list[str], smiles: list[str]) -> int:
        """Append new catalog rows, with one drug id and SMILES each, as a
        segment; returns the new version.

        The segment lands as fresh ``seg_v{N}.*.npy`` files — no existing
        shard file is rewritten or even reopened, so the cost of an append
        is O(rows appended), independent of catalog size, and every byte
        of the old catalog stays bitwise-identical (retained versions keep
        referencing the same files).  Projections must cover every
        non-alias projection the manifest declares; alias entries (the dot
        decoder's identity precompute) are accepted and ignored.
        """
        with self._mutate_lock:
            embeddings = np.asarray(embeddings)
            if embeddings.ndim != 2 or not len(embeddings):
                raise ValueError("appended embeddings must be a non-empty "
                                 "(rows, dim) matrix")
            if not len(drug_ids) == len(smiles) == len(embeddings):
                raise ValueError(
                    f"{len(drug_ids)} drug ids and {len(smiles)} SMILES "
                    f"for {len(embeddings)} appended rows")
            if embeddings.shape[1] != self._embed_dim:
                raise ValueError(
                    f"appended rows have dim {embeddings.shape[1]}, store "
                    f"holds embed_dim {self._embed_dim}")
            dtype = self.manifest.get("dtype")
            if dtype is not None and str(embeddings.dtype) != dtype:
                raise ValueError(
                    f"appended rows have dtype {embeddings.dtype}, store "
                    f"holds {dtype}")
            projections = dict(projections or {})
            expected = set(self.manifest["projections"])
            aliases = set(self.manifest["aliases"])
            extra = set(projections) - expected
            if extra:
                raise ValueError(f"unknown projections {sorted(extra)}; "
                                 f"store declares {sorted(expected)}")
            missing = (expected - aliases) - set(projections)
            if missing:
                raise ValueError(f"append is missing projections "
                                 f"{sorted(missing)}")
            for name in sorted(expected - aliases):
                if len(projections[name]) != len(embeddings):
                    raise ValueError(
                        f"projection {name!r} has {len(projections[name])} "
                        f"rows for {len(embeddings)} appended drugs")
            new_version = self.version + 1
            spec, data_files = _cut_shard(
                f"seg_v{new_version:06d}", 0, len(embeddings), embeddings,
                projections, sorted(expected - aliases), drug_ids, smiles,
                offset=self._num_drugs)
            new_manifest = self._copy_manifest()
            new_manifest["version"] = new_version
            new_manifest["num_drugs"] = spec["stop"]
            if catalog_digest is not None:
                new_manifest["catalog_digest"] = catalog_digest
            new_manifest["shards"] = new_manifest["shards"] + [spec]
            _commit(self.root, self._crash, "append", new_manifest,
                    data_files)
            self._install(new_manifest, keep_quarantine=True)
            return new_version

    def compact(self, num_shards: int | None = None,
                catalog_digest: str | None = None) -> int:
        """Merge accumulated segments into full shards; returns new version.

        Rewrites the catalog's rows into ``num_shards`` contiguous shards
        (default: as many shards as needed so none exceeds the largest
        current shard's row count) under the same journal + atomic-commit
        protocol as :meth:`append`.  Old files are *not* deleted — retained
        versions still reference them; :meth:`gc` reclaims them once their
        versions are dropped.  Readers pinned to an old version keep
        serving from their existing memory maps.
        """
        with self._mutate_lock:
            if num_shards is None:
                largest = max(int(spec["stop"]) - int(spec["start"])
                              for spec in self.manifest["shards"])
                num_shards = max(1, -(-self._num_drugs // largest))
            ranges = shard_ranges(self._num_drugs, num_shards)
            aliases = set(self.manifest["aliases"])
            names = [name for name in self.manifest["projections"]
                     if name not in aliases]
            emb_parts, proj_parts = [], {name: [] for name in names}
            for index in range(self.num_shards):
                shard = self.open_shard(index)
                emb_parts.append(np.asarray(shard.embeddings))
                for name in names:
                    proj_parts[name].append(
                        np.asarray(shard.projections[name]))
            embeddings = np.concatenate(emb_parts, axis=0)
            merged = {name: np.concatenate(parts, axis=0)
                      for name, parts in proj_parts.items()}
            drug_ids, smiles = self.drugs()
            new_version = self.version + 1
            shard_specs, data_files = [], []
            for i, (lo, hi) in enumerate(ranges):
                spec, files = _cut_shard(f"seg_v{new_version:06d}_{i:05d}",
                                         lo, hi, embeddings, merged, names,
                                         drug_ids, smiles)
                shard_specs.append(spec)
                data_files += files
            new_manifest = self._copy_manifest()
            new_manifest["version"] = new_version
            new_manifest["shards"] = shard_specs
            if catalog_digest is not None:
                new_manifest["catalog_digest"] = catalog_digest
            _commit(self.root, self._crash, "compact", new_manifest,
                    data_files)
            self._install(new_manifest)
            return new_version

    def rollback(self, version: int) -> int:
        """Re-commit a retained version's content as a *new* version.

        Versions stay monotonic — a rollback never reuses a version
        number, it creates a fresh one whose manifest equals the target's
        (append-only data files are shared, nothing is copied).  The
        target must still be retained (see :meth:`versions`) and all its
        data files present (not :meth:`gc`-ed).
        """
        with self._mutate_lock:
            version = int(version)
            retained = self.root / _retained_name(version)
            if not retained.exists():
                raise ValueError(
                    f"version {version} is not retained (have "
                    f"{self.versions()}); cannot roll back")
            target = json.loads(retained.read_text())
            if not isinstance(target, dict) \
                    or target.get("format") != STORE_FORMAT:
                raise ValueError(f"{retained} is not a shard-store manifest")
            missing = [name for name in sorted(_manifest_files(target))
                       if not (self.root / name).exists()]
            if missing:
                raise ValueError(
                    f"version {version} references garbage-collected files "
                    f"{missing}; cannot roll back")
            new_version = self.version + 1
            new_manifest = json.loads(json.dumps(target))
            new_manifest["version"] = new_version
            _commit(self.root, self._crash, "rollback", new_manifest, [])
            self._install(new_manifest)
            return new_version

    def versions(self) -> list[int]:
        """Retained catalog versions, ascending (rollback targets)."""
        found = []
        for path in self.root.glob("manifest.v*.json"):
            match = _RETAINED_RE.match(path.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def manifest_for(self, version: int) -> dict:
        """The retained manifest snapshot of ``version``."""
        retained = self.root / _retained_name(int(version))
        if not retained.exists():
            raise ValueError(f"version {version} is not retained "
                             f"(have {self.versions()})")
        return json.loads(retained.read_text())

    def gc(self, keep: int = 2) -> list[str]:
        """Drop old retained versions and their unreferenced data files.

        Keeps the newest ``keep`` retained manifests (the current version
        is always kept), then deletes any ``.npy`` in the store root that
        no surviving manifest references.  Deliberately journal-free but
        crash-safe by *ordering*: manifests are deleted before data files,
        so a crash can only leak unreferenced files — which the next
        :meth:`gc` reclaims — never break a referenced version.  Readers
        pinned to a dropped version keep serving: their memory maps hold
        the deleted files open (POSIX unlink semantics).
        """
        with self._mutate_lock:
            if keep < 1:
                raise ValueError("keep must be >= 1")
            if (self.root / JOURNAL_NAME).exists():
                raise RuntimeError(
                    "store has an unresolved intent journal (crashed "
                    "writer?); recover before garbage-collecting")
            versions = self.versions()
            survivors = set(versions[-keep:]) | {self.version}
            deleted: list[str] = []
            for version in versions:
                if version in survivors:
                    continue
                path = self.root / _retained_name(version)
                path.unlink()
                deleted.append(path.name)
            referenced = _manifest_files(self.manifest)
            for version in sorted(survivors):
                path = self.root / _retained_name(version)
                if not path.exists():
                    continue
                try:
                    referenced |= _manifest_files(json.loads(
                        path.read_text()))
                except (ValueError, TypeError, KeyError):
                    continue
            for path in sorted(self.root.glob("*.npy")):
                if path.name not in referenced:
                    path.unlink()
                    deleted.append(path.name)
            self._verified = set()
            return deleted

    def reload(self) -> int:
        """Re-read ``manifest.json`` from disk; returns the version.

        What a remote worker does when a request names a newer committed
        version than it holds: the manifest may have moved on since this
        process opened it.  An open shard is kept while the new manifest
        gives its index the same spec and its files the same checksums,
        and so are the checks of every file still listed under the same
        checksum: after an append only the new segment's files are read
        and mapped again, while a compaction or a rollback re-opens the
        shard indices it changed.
        """
        with self._mutate_lock:
            manifest = json.loads((self.root / MANIFEST_NAME).read_text())
            self._install(manifest)
            return self.version

    # ------------------------------------------------------------------
    @staticmethod
    def recover_dir(root: str | Path) -> dict:
        """Repair a store directory a dead writer may have left torn.

        Returns a report ``{"action", "version", "orphans", "swept"}``:

        - ``action=None`` — no journal, nothing to do (``swept`` may still
          list deleted ``*.tmp`` debris from torn atomic writes);
        - ``"completed"`` — the commit finished before the crash, only the
          journal needed tidying;
        - ``"roll-forward"`` — every journaled file and the retained
          manifest landed intact (CRC-verified), so the interrupted commit
          is finished with the same atomic rename the writer would have
          done;
        - ``"roll-back"`` — the staged state is incomplete; the dead
          writer's files are quarantined under ``orphans/`` (named in
          ``orphans``), the partial retained manifest deleted, and the
          journal dropped, leaving the previous committed version current.

        Must only run in the catalog owner's process: a concurrent reader
        running this against a *live* writer's journal would roll back an
        in-flight commit.
        """
        root = Path(root)
        report: dict = {"action": None, "version": None, "orphans": [],
                        "swept": []}
        for tmp in sorted(root.glob("*.tmp")):
            tmp.unlink()
            report["swept"].append(tmp.name)
        journal_path = root / JOURNAL_NAME
        if not journal_path.exists():
            return report
        try:
            journal = json.loads(journal_path.read_text())
            target = int(journal["target_version"])
            retained_name = str(journal["manifest"])
            files = [str(name) for name in journal.get("files", [])]
        except (ValueError, TypeError, KeyError):
            # The journal is written atomically, so an unreadable one is
            # foreign damage; with no intent to interpret, dropping it is
            # the only safe move (manifest.json is still a committed
            # state).
            journal_path.unlink()
            report["action"] = "roll-back"
            return report
        current_version = -1
        manifest_path = root / MANIFEST_NAME
        if manifest_path.exists():
            try:
                current = json.loads(manifest_path.read_text())
                current_version = int(current.get("version", 0))
            except (ValueError, TypeError):
                pass
        if current_version >= target:
            # The atomic rename (the commit point) happened; the crash was
            # between commit and journal cleanup.
            journal_path.unlink()
            report.update(action="completed", version=current_version)
            return report
        retained = root / retained_name
        complete = False
        if retained.exists():
            try:
                staged = json.loads(retained.read_text())
                checksums = staged.get("checksums") or {}
                complete = (
                    isinstance(staged, dict)
                    and staged.get("format") == STORE_FORMAT
                    and int(staged.get("version", -1)) == target
                    and all((root / name).exists()
                            and _crc32_file(root / name)
                            == int(checksums.get(name, -1))
                            for name in files))
            except (ValueError, TypeError, KeyError, OSError):
                complete = False
        if complete:
            # Everything the journal promised is durable and CRC-clean;
            # finish the commit exactly as the writer would have.
            _atomic_write_text(root, MANIFEST_NAME, retained.read_text())
            journal_path.unlink()
            report.update(action="roll-forward", version=target)
            return report
        # Incomplete staging: quarantine the dead writer's debris so the
        # previous committed version serves untainted.
        orphan_dir = root / ORPHAN_DIR
        for name in files:
            src = root / name
            if src.exists():
                orphan_dir.mkdir(exist_ok=True)
                src.replace(orphan_dir / name)
                report["orphans"].append(name)
        if retained.exists():
            retained.unlink()
        journal_path.unlink()
        report.update(action="roll-back",
                      version=current_version if current_version >= 0
                      else None)
        return report

    # ------------------------------------------------------------------
    @classmethod
    def save(cls, path: str | Path, embeddings: np.ndarray,
             projections: dict[str, np.ndarray] | None = None,
             num_shards: int = 1, block_size: int = 1024,
             fingerprint: str | None = None,
             catalog_digest: str | None = None,
             sketch_factors: dict[str, np.ndarray] | None = None, *,
             drug_ids: list[str], smiles: list[str],
             context: list[np.ndarray] | None = None,
             num_corpus: int | None = None) -> Path:
        """Write a shard store under directory ``path``; returns the manifest.

        Rows are split at :func:`~repro.serving.shards.shard_ranges`, the
        boundaries the in-memory catalog uses, so a reopened store screens
        shard-for-shard identically.  Projections whose matrix *is* the
        embedding matrix (the dot decoder's identity precompute) are
        recorded as aliases, not written twice.  ``sketch_factors`` (the
        MLP prefilter's ``{"mean", "std", "components"}``) are written
        alongside the ``"sketch"`` projection rows, so the store serves
        approximate screens on a cold open without the original cache.
        ``drug_ids`` and ``smiles`` hold one entry per row;
        ``context`` (the frozen encoder-context layers) and ``num_corpus``
        (how many leading rows are the corpus) are what a cold boot
        encodes registrations against.

        Version 0 is committed through the same journal as every later
        version, every file with its CRC32, and its manifest is retained
        so :meth:`rollback` can restore the initial catalog.  A directory
        that already holds a store starts a fresh history: its manifests
        and any journal are removed first, and data files the new store
        does not reference are left for :meth:`gc`.
        """
        embeddings = np.asarray(embeddings)
        if embeddings.ndim != 2 or not len(embeddings):
            raise ValueError("embeddings must be a non-empty "
                             "(num_drugs, dim) matrix")
        if not len(drug_ids) == len(smiles) == len(embeddings):
            raise ValueError(f"{len(drug_ids)} drug ids and {len(smiles)} "
                             f"SMILES for {len(embeddings)} catalog rows")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        projections = dict(projections or {})
        for name, matrix in projections.items():
            if not _NAME_RE.match(name):
                raise ValueError(f"projection name {name!r} is not a valid "
                                 f"file-name component")
            if len(matrix) != len(embeddings):
                raise ValueError(
                    f"projection {name!r} has {len(matrix)} rows for "
                    f"{len(embeddings)} catalog drugs")
        aliases = sorted(name for name, matrix in projections.items()
                         if matrix is embeddings)
        names = sorted(set(projections) - set(aliases))
        shard_specs, data_files = [], []
        for i, (lo, hi) in enumerate(shard_ranges(len(embeddings),
                                                  num_shards)):
            spec, files = _cut_shard(f"shard_{i:05d}", lo, hi, embeddings,
                                     projections, names, drug_ids, smiles)
            shard_specs.append(spec)
            data_files += files
        sketch_spec = None
        if sketch_factors is not None:
            sketch_spec = {key: f"sketch.{key}.npy"
                           for key in ("mean", "std", "components")}
            data_files += [(name, sketch_factors[key])
                           for key, name in sketch_spec.items()]
        context_names = None
        if context is not None:
            context_names = [f"context.{i}.npy" for i in range(len(context))]
            data_files += list(zip(context_names, context))
        manifest = {
            "format": STORE_FORMAT,
            "version": 0,
            "fingerprint": fingerprint,
            "catalog_digest": catalog_digest,
            "num_drugs": len(embeddings),
            "embed_dim": int(embeddings.shape[1]),
            "dtype": str(embeddings.dtype),
            "block_size": block_size,
            "projections": sorted(projections),
            "aliases": aliases,
            "shards": shard_specs,
            "sketch_factors": sketch_spec,
            "context": context_names,
            "num_corpus": num_corpus,
        }
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        for stale in [root / MANIFEST_NAME, root / JOURNAL_NAME,
                      *root.glob("manifest.v*.json")]:
            stale.unlink(missing_ok=True)
        _commit(root, lambda _point: None, "save", manifest, data_files)
        return root / MANIFEST_NAME
