"""Living-catalog streaming benchmark (and regression gate).

Exercises the crash-safe living catalog: append-only shard segments under
the write-ahead-journal + atomic-manifest commit protocol, live drug
registration flowing through a serving gateway, and crash-point recovery.

Gates (exit non-zero on violation, so CI can run ``--quick`` as a guard):

1. **Append-only, O(new rows) commits**: a burst of appends never rewrites
   an existing shard byte — every pre-existing ``.npy`` in the store is
   identical by (mtime, CRC) afterwards (hard gate) — and the commit
   latency is governed by the appended rows, not the base catalog: the
   median append on a large store stays within ``--max-append-ratio`` of
   the same append on a store 1/16th the size, and far below rewriting
   the large store from scratch.
2. **Streaming registrations under load**: an async gateway serves
   closed-loop screen clients while drugs are registered live into the
   attached store.  Registration p50/p99 come from
   ``ServiceStats.registration_latency``.  Gated: every gateway response
   is bitwise-identical to a serial in-memory twin at *some* committed
   catalog size (a response pinned to an older version must match that
   version, never a torn hybrid); screens keep completing between
   registrations (progress — no full-catalog stall); and registration
   p99 stays below one full-catalog re-encode, the cost it would pay if
   registration were not incremental.  Afterwards compaction and
   rollback-to-v0 must preserve/restore screens bitwise.
3. **Crash sweep** (always on, including ``--quick``): kill a writer at
   every named crash point of an append; recovery must land on a
   committed version with bitwise screening parity, leave no journal or
   temp debris, quarantine orphaned segment files, and pass a full
   checksum verify.  Rollback and compaction parity are swept on the
   same synthetic store.

Measured numbers are written to a machine-readable ``BENCH_streaming.json``
(``BENCH_streaming_quick.json`` under ``--quick``) so the trajectory is
tracked across PRs.

    PYTHONPATH=src python benchmarks/bench_streaming.py
    PYTHONPATH=src python benchmarks/bench_streaming.py --quick
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import statistics
import sys
import tempfile
import time
import zlib
from collections import Counter
from pathlib import Path

import numpy as np

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig
from repro.core.decoder import MLPDecoder, make_screen_kernel
from repro.serving import (CrashPoint, CrashPolicy, DDIScreeningService,
                           ScreeningGateway, ShardedEmbeddingCatalog,
                           ShardStore, exact_score_fn)
from repro.serving.store import JOURNAL_NAME


def _crc(path: Path) -> int:
    return zlib.crc32(path.read_bytes()) & 0xFFFFFFFF


def _file_states(root: Path) -> dict:
    """(mtime_ns, CRC) of every data file — the byte-identity witness."""
    return {p.name: (p.stat().st_mtime_ns, _crc(p))
            for p in root.glob("*.npy")}


def _hits(results) -> list[list[tuple[int, float]]]:
    return [[(h.index, h.probability) for h in hits] for hits in results]


# ---------------------------------------------------------------------------
# Gate 1: append cost independent of base catalog size; bytes untouched
# ---------------------------------------------------------------------------
def _drugs(count: int, start: int = 0) -> dict[str, list[str]]:
    """Drug ids and SMILES for ``count`` synthetic rows."""
    return {"drug_ids": [f"drug_{i}" for i in range(start, start + count)],
            "smiles": ["C"] * count}


def _build_store(path: Path, num_rows: int, dim: int, num_shards: int,
                 seed: int) -> tuple[ShardStore, float]:
    rng = np.random.default_rng(seed)
    embeddings = rng.standard_normal((num_rows, dim))
    drugs = _drugs(num_rows)
    start = time.perf_counter()
    manifest = ShardStore.save(path, embeddings, num_shards=num_shards,
                               block_size=1024, **drugs)
    return ShardStore(manifest), time.perf_counter() - start


def _median_append(store: ShardStore, rows_per_append: int, dim: int,
                   repeats: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(repeats):
        rows = rng.standard_normal((rows_per_append, dim))
        drugs = _drugs(rows_per_append, store.num_drugs)
        start = time.perf_counter()
        store.append(rows, **drugs)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def gate_append(base_small: int, base_large: int, rows_per_append: int,
                repeats: int, max_ratio: float, seed: int,
                failures: list[str]) -> dict:
    dim, num_shards = 64, 8
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        small, _ = _build_store(tmp / "small", base_small, dim,
                                num_shards, seed)
        large, rewrite_s = _build_store(tmp / "large", base_large, dim,
                                        num_shards, seed + 1)
        before = {"small": _file_states(small.root),
                  "large": _file_states(large.root)}
        small_s = _median_append(small, rows_per_append, dim, repeats, seed)
        large_s = _median_append(large, rows_per_append, dim, repeats, seed)
        for label, store in (("small", small), ("large", large)):
            after = _file_states(store.root)
            touched = [name for name, state in before[label].items()
                       if after.get(name) != state]
            if touched:
                failures.append(f"append rewrote existing bytes in the "
                                f"{label} store: {sorted(touched)}")
            if len(after) <= len(before[label]):
                failures.append(f"append added no data files to the "
                                f"{label} store")
        ratio = large_s / small_s if small_s else float("inf")
        if ratio > max_ratio:
            failures.append(
                f"append on the {base_large}-row store is {ratio:.1f}x the "
                f"{base_small}-row store (max {max_ratio:g}x) — commit "
                f"latency scales with the base catalog")
        if large_s >= rewrite_s / 3:
            failures.append(
                f"append ({large_s * 1e3:.1f} ms) not well under a full "
                f"rewrite of the large store ({rewrite_s * 1e3:.1f} ms)")
    return {"base_small": base_small, "base_large": base_large,
            "rows_per_append": rows_per_append,
            "append_small_ms": small_s * 1e3,
            "append_large_ms": large_s * 1e3,
            "latency_ratio": ratio,
            "full_rewrite_large_ms": rewrite_s * 1e3}


# ---------------------------------------------------------------------------
# Gate 2: live registration under concurrent gateway load
# ---------------------------------------------------------------------------
def build_services(num_drugs: int, hidden_dim: int, seed: int,
                   store_dir: Path):
    corpus = [r.smiles for r in
              MoleculeGenerator(seed=seed).generate_corpus(num_drugs)]
    config = HyGNNConfig(parameter=4, embed_dim=hidden_dim,
                         hidden_dim=hidden_dim, seed=seed)
    model, _, builder = HyGNN.for_corpus(corpus, config)
    model.eval()
    service = DDIScreeningService(model, builder, corpus)
    twin = DDIScreeningService(model, builder, corpus)  # serial reference
    service.save_shards(store_dir, num_shards=4)
    if not service.open_shards(store_dir):
        raise RuntimeError("freshly saved shard store failed to attach")
    return corpus, service, twin


def _fresh_smiles(corpus: list[str], count: int, seed: int) -> list[str]:
    known, out = set(corpus), []
    for record in MoleculeGenerator(seed=seed).generate_corpus(4 * count):
        if record.smiles not in known:
            known.add(record.smiles)
            out.append(record.smiles)
        if len(out) == count:
            return out
    raise RuntimeError("could not generate enough unseen molecules")


async def _streaming_phase(service, twin, extras, queries, top_k, clients):
    """Closed-loop screen clients racing a live registrar.

    Returns every ``(query, hits)`` response, the per-version serial
    references, and the screens completed after each registration.
    """
    valid = {q: [] for q in queries}

    def snapshot_refs():
        for q in queries:
            valid[q].append(_hits([twin.screen(q, top_k=top_k)])[0])

    snapshot_refs()
    responses, progress, done, stop = [], [], [0], [False]
    async with ScreeningGateway(service, max_batch=16) as gateway:
        async def client(cid):
            i = 0
            while not stop[0]:
                q = queries[(cid * 7 + i * 3) % len(queries)]
                hits = await gateway.screen(q, top_k=top_k)
                responses.append((q, _hits([hits])[0]))
                done[0] += 1
                i += 1

        async def registrar():
            await asyncio.sleep(0.01)  # let the clients spin up
            for j, smiles in enumerate(extras):
                before = done[0]
                service.register_drug(smiles, drug_id=f"new-{j}",
                                      allow_unknown=True)
                twin.register_drug(smiles, drug_id=f"new-{j}",
                                   allow_unknown=True)
                snapshot_refs()
                await asyncio.sleep(0.01)  # the inter-arrival gap
                progress.append(done[0] - before)
            stop[0] = True

        tasks = [asyncio.create_task(client(c)) for c in range(clients)]
        await registrar()
        await asyncio.gather(*tasks)
    return responses, valid, progress


def gate_streaming(num_drugs: int, hidden_dim: int, clients: int,
                   registrations: int, top_k: int, seed: int,
                   failures: list[str]) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        print(f"building {num_drugs}-drug catalog "
              f"(hidden_dim={hidden_dim}) ...", flush=True)
        corpus, service, twin = build_services(
            num_drugs, hidden_dim, seed, Path(tmp) / "store")
        extras = _fresh_smiles(corpus, registrations, seed + 1000)
        rng = np.random.default_rng(seed)
        queries = [int(q) for q in
                   rng.choice(num_drugs, size=8, replace=False)]
        before_hits = _hits([service.screen(q, top_k=top_k)
                             for q in queries])

        # The stall unit: what one full-catalog re-encode costs.  An
        # incremental registration must stay under it.
        twin.refresh()
        start = time.perf_counter()
        twin.refresh(force=True)
        refresh_s = time.perf_counter() - start

        print(f"streaming: {clients} clients screening while "
              f"{registrations} drugs register ...", flush=True)
        responses, valid, progress = asyncio.run(_streaming_phase(
            service, twin, extras, queries, top_k, clients))

        for q, hits in responses:
            if hits not in valid[q]:
                failures.append(
                    f"gateway response for query={q} matches no committed "
                    f"catalog version — torn read under live registration")
                break
        if sum(progress) < registrations:
            failures.append(
                f"only {sum(progress)} screens completed across "
                f"{registrations} registrations — the gateway stalls "
                f"while the catalog grows")

        stats = service.stats
        window = stats.registration_latency.summary()
        if window["p50_ms"] >= refresh_s * 1e3:
            failures.append(
                f"registration p50 {window['p50_ms']:.1f} ms >= one "
                f"full-catalog re-encode ({refresh_s * 1e3:.1f} ms) — "
                f"registration is not incremental")
        # The tail pays a fixed execution-plan invalidation on top (the
        # worker pool serving the old version is torn down so the next
        # screen reopens the new one) — bounded, not catalog-shaped.
        p99_bound_ms = 2 * refresh_s * 1e3 + 50.0
        if window["p99_ms"] >= p99_bound_ms:
            failures.append(
                f"registration p99 {window['p99_ms']:.1f} ms exceeds "
                f"{p99_bound_ms:.1f} ms (2x re-encode + invalidation "
                f"slack) — registration stalls on the catalog")
        if stats.registrations != registrations:
            failures.append(f"registrations counter {stats.registrations} "
                            f"!= {registrations}")
        if stats.appends_committed != registrations:
            failures.append(
                f"only {stats.appends_committed}/{registrations} "
                f"registrations appended through to the store")
        if service.catalog_version != registrations:
            failures.append(f"store version {service.catalog_version} != "
                            f"{registrations} after {registrations} appends")
        if stats.gateway_epoch_swaps < 1:
            failures.append("gateway never observed a catalog epoch swap "
                            "during live registration")

        # Post-stream lifecycle: compaction keeps answers, rollback
        # restores the pre-registration screens bitwise.
        service.compact_shards()
        keys = queries + [f"new-{j}" for j in range(registrations)]
        if _hits([service.screen(k, top_k=top_k) for k in keys]) != \
                _hits([twin.screen(k, top_k=top_k) for k in keys]):
            failures.append("screens diverge from the serial twin after "
                            "compaction")
        service.rollback_catalog(0)
        if _hits([service.screen(q, top_k=top_k)
                  for q in queries]) != before_hits:
            failures.append("rollback to v0 does not restore the "
                            "pre-registration screens bitwise")
        return {"num_drugs": num_drugs, "hidden_dim": hidden_dim,
                "clients": clients, "registrations": registrations,
                "registration_p50_ms": window["p50_ms"],
                "registration_p99_ms": window["p99_ms"],
                "full_refresh_ms": refresh_s * 1e3,
                "screens_completed": len(responses),
                "screens_during_registration": sum(progress),
                "gateway_epoch_swaps": stats.gateway_epoch_swaps,
                "compactions": stats.compactions,
                "rollbacks": stats.rollbacks}


# ---------------------------------------------------------------------------
# Gate 3: crash-point sweep + rollback/compaction parity (synthetic store)
# ---------------------------------------------------------------------------
def _store_projections(store, decoder, rows):
    projections = decoder.candidate_projections(rows)
    return {name: projections[name] for name in store.projection_names
            if name in projections}


def _screen_store(store, decoder, queries, top_k=6):
    kernel = make_screen_kernel(decoder)
    query_proj = decoder.project_queries(queries, sides=("as_left",))
    return store.catalog().screen(exact_score_fn(kernel, query_proj),
                                  len(queries), top_k)


def _screen_memory(decoder, embeddings, queries, top_k=6):
    kernel = make_screen_kernel(decoder)
    query_proj = decoder.project_queries(queries, sides=("as_left",))
    catalog = ShardedEmbeddingCatalog(
        embeddings, decoder.candidate_projections(embeddings),
        num_shards=3, block_size=16)
    return catalog.screen(exact_score_fn(kernel, query_proj),
                          len(queries), top_k)


def _same_screens(a, b) -> bool:
    return all(np.array_equal(ia, ib) and np.array_equal(pa, pb)
               for (ia, pa), (ib, pb) in zip(a, b))


def gate_crash_sweep(seed: int, failures: list[str]) -> dict:
    rng = np.random.default_rng(seed)
    dim = 16
    decoder = MLPDecoder(dim, dim, np.random.default_rng(seed))
    embeddings = rng.standard_normal((48, dim))
    extra = rng.standard_normal((6, dim))
    combined = np.concatenate([embeddings, extra])
    queries = embeddings[[0, 5]]
    references = {0: _screen_memory(decoder, embeddings, queries),
                  1: _screen_memory(decoder, combined, queries)}

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        ShardStore.save(base, embeddings,
                        decoder.candidate_projections(embeddings),
                        num_shards=3, block_size=16, catalog_digest="v0",
                        **_drugs(len(embeddings)))

        def append(store):
            store.append(extra, _store_projections(store, decoder, extra),
                         **_drugs(len(extra), len(embeddings)))

        # Recorder pass enumerates the complete crash surface.
        recorder_dir = tmp / "recorder"
        shutil.copytree(base, recorder_dir)
        recorder_store = ShardStore(recorder_dir)
        recorder = CrashPolicy()
        recorder_store.crash_policy = recorder
        append(recorder_store)
        points = list(recorder.seen)

        actions: Counter = Counter()
        for i, point in enumerate(points):
            work = tmp / f"crash-{i}"
            shutil.copytree(base, work)
            victim = ShardStore(work)
            victim.crash_policy = CrashPolicy(point)
            try:
                append(victim)
            except CrashPoint:
                pass
            else:
                failures.append(f"crash point {point} never fired")
                continue
            survivor = ShardStore(work, recover=True)
            actions[str(survivor.recovered["action"])] += 1
            if (work / JOURNAL_NAME).exists() or list(work.glob("*.tmp")):
                failures.append(f"crash at {point}: recovery left journal "
                                f"or temp debris behind")
            if survivor.version not in references:
                failures.append(f"crash at {point}: recovered to "
                                f"uncommitted version {survivor.version}")
                continue
            if not _same_screens(_screen_store(survivor, decoder, queries),
                                 references[survivor.version]):
                failures.append(f"crash at {point}: screens diverge from "
                                f"committed version {survivor.version}")
            if survivor.verify(strict=False):
                failures.append(f"crash at {point}: recovered store fails "
                                f"checksum verify")
        if actions.get("roll-back", 0) < 1 or actions.get("completed", 0) < 1:
            failures.append(f"crash sweep exercised only {dict(actions)} — "
                            f"missing roll-back or completed recoveries")

        # Rollback + compaction parity on a surviving store.
        life = tmp / "lifecycle"
        shutil.copytree(base, life)
        store = ShardStore(life)
        append(store)
        if not _same_screens(_screen_store(store, decoder, queries),
                             references[1]):
            failures.append("appended store screens diverge from the "
                            "in-memory reference")
        store.compact()
        if not _same_screens(_screen_store(store, decoder, queries),
                             references[1]):
            failures.append("compaction changed screening results")
        store.rollback(0)
        if not _same_screens(_screen_store(store, decoder, queries),
                             references[0]):
            failures.append("rollback to v0 does not restore its screens "
                            "bitwise")
        versions = [0, 1, 2, 3]
        if store.version != 3 or store.versions() != versions:
            failures.append(f"versions not monotonic: current "
                            f"{store.version}, retained {store.versions()}")
    return {"points_swept": len(points), "actions": dict(actions)}


# ---------------------------------------------------------------------------
def run(args, output: str) -> int:
    failures: list[str] = []

    print(f"append gate: {args.base_small} vs {args.base_large} base rows, "
          f"{args.append_repeats} appends of {args.append_rows} ...",
          flush=True)
    append_results = gate_append(args.base_small, args.base_large,
                                 args.append_rows, args.append_repeats,
                                 args.max_append_ratio, args.seed, failures)
    streaming_results = gate_streaming(args.drugs, args.hidden_dim,
                                       args.clients, args.registrations,
                                       args.top_k, args.seed, failures)
    print("crash sweep: every append crash point ...", flush=True)
    sweep_results = gate_crash_sweep(args.seed, failures)

    width = 56
    print()
    print(f"{'benchmark':{width}s} {'value':>14s}")
    print("-" * (width + 15))
    rows = [
        (f"append commit, {args.base_small}-row base (median)",
         f"{append_results['append_small_ms']:9.2f} ms"),
        (f"append commit, {args.base_large}-row base (median)",
         f"{append_results['append_large_ms']:9.2f} ms"),
        ("  ... latency ratio (large/small)",
         f"{append_results['latency_ratio']:9.2f} x"),
        ("  ... full rewrite of the large store",
         f"{append_results['full_rewrite_large_ms']:9.2f} ms"),
        ("registration p50 / p99 under gateway load",
         f"{streaming_results['registration_p50_ms']:5.1f} / "
         f"{streaming_results['registration_p99_ms']:5.1f} ms"),
        ("  ... full-catalog re-encode (the stall unit)",
         f"{streaming_results['full_refresh_ms']:9.1f} ms"),
        ("gateway screens completed (during registration)",
         f"{streaming_results['screens_completed']:5d} "
         f"({streaming_results['screens_during_registration']:d})"),
        ("gateway catalog-epoch swaps observed",
         f"{streaming_results['gateway_epoch_swaps']:9d}"),
        ("crash points swept (append)",
         f"{sweep_results['points_swept']:9d}"),
        ("  ... recovery actions", str(sweep_results["actions"])),
    ]
    for label, value in rows:
        print(f"{label:{width}s} {value:>14s}")
    print("-" * (width + 15))

    results = {
        "config": {"quick": args.quick, "seed": args.seed,
                   "max_append_ratio": args.max_append_ratio},
        "append": append_results,
        "streaming": streaming_results,
        "crash_sweep": sweep_results,
        "failures": failures,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI-sized run")
    parser.add_argument("--base-small", type=int, default=None,
                        help="small base store rows (default: 2000, "
                             "quick: 500)")
    parser.add_argument("--base-large", type=int, default=None,
                        help="large base store rows (default: 32000, "
                             "quick: 8000)")
    parser.add_argument("--append-rows", type=int, default=16,
                        help="rows per append commit (default: 16)")
    parser.add_argument("--append-repeats", type=int, default=None,
                        help="timed appends per store (default: 25, "
                             "quick: 10)")
    parser.add_argument("--max-append-ratio", type=float, default=5.0,
                        help="large/small append latency ceiling "
                             "(default: 5.0)")
    parser.add_argument("--drugs", type=int, default=None,
                        help="serving catalog size (default: 100, quick: 50)")
    parser.add_argument("--hidden-dim", type=int, default=None,
                        help="embedding width (default: 128, quick: 64)")
    parser.add_argument("--clients", type=int, default=None,
                        help="closed-loop screen clients (default: 8, "
                             "quick: 4)")
    parser.add_argument("--registrations", type=int, default=None,
                        help="drugs registered live (default: 12, quick: 6)")
    parser.add_argument("--top-k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    # --quick writes to a separate file by default so a smoke run never
    # clobbers the committed full-gate record.
    parser.add_argument("--output", default=None,
                        help="JSON results path (default: "
                             "BENCH_streaming.json, quick: "
                             "BENCH_streaming_quick.json)")
    args = parser.parse_args()

    def default(value, quick, full):
        return (quick if args.quick else full) if value is None else value

    args.base_small = default(args.base_small, 500, 2000)
    args.base_large = default(args.base_large, 8000, 32000)
    args.append_repeats = default(args.append_repeats, 10, 25)
    args.drugs = default(args.drugs, 50, 100)
    args.hidden_dim = default(args.hidden_dim, 64, 128)
    args.clients = default(args.clients, 4, 8)
    args.registrations = default(args.registrations, 6, 12)
    if args.base_small < 2 or args.base_large <= args.base_small:
        parser.error("--base-large must exceed --base-small (>= 2)")
    if min(args.append_rows, args.append_repeats, args.drugs,
           args.clients, args.registrations, args.top_k) < 1:
        parser.error("sizes and counts must be >= 1")
    output = args.output or ("BENCH_streaming_quick.json" if args.quick
                             else "BENCH_streaming.json")
    return run(args, output)


if __name__ == "__main__":
    sys.exit(main())
