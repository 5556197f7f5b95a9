"""The four benchmark workloads.

All four are closed loops driven from this one process through the public
API of ``repro.serving`` and ``repro.core``; request sequences are drawn
from the workload seed before set-up.  The three serving workloads share
one baseline catalog, the same in every run: 2,000 ``MoleculeGenerator``
drugs, k-mer k=4, hidden 128, MLP decoder, untrained weights seeded with
``CATALOG_SEED``, ``ScreeningGateway`` defaults.

* ``catalog-screen`` - 8 clients, in-memory service, 60 % exact screens,
  20 % approximate screens, 20 % 66-pair checks; timed for ``seconds``.
* ``new-drugs`` - 2 clients over the catalog saved as 2 shards: 80 %
  ``screen_smiles`` of unregistered SMILES, 20 % screens of drugs
  registered earlier in the run; a registration after every 10th read and
  ``compact_shards(2)`` after every 25th registration.  A fixed number of
  reads (``NEW_DRUG_READS_PER_S * seconds``), so every run ends on the same
  catalog version.
* ``remote-screen`` - 4 clients sending exact screens routed to two
  ``ShardWorker`` processes on localhost; timed for ``seconds``.
* ``train-epoch`` - compiled full-batch ``Trainer.fit`` on DrugBank at
  scale 0.5 for a fixed ``TRAIN_EPOCHS`` epochs.

Every response is checked after the timed window against a reference
built from the model's own dense scoring (``HyGNN.screen_probs`` plus a
stable sort), never against the serving stack itself.  That scoring
shares its kernel with the served screens, so the reference is itself
anchored to the training-path forward (``predict_proba_from_embeddings``
and the full-corpus encode) before it is trusted.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import resource
import select
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.chem import MoleculeGenerator, kmerize
from repro.core import HyGNN, HyGNNConfig, Trainer
from repro.data import balanced_pairs_and_labels, load_dataset, random_split
from repro.metrics import roc_auc_score
from repro.serving import DDIScreeningService, ScreeningGateway

from .spans import Span, Tracer, clock, load_spans
from .stats import Tally

HERE = Path(__file__).resolve().parent

BASE_DRUGS = 2000
KMER = 4
HIDDEN = 128
TOP_KS = (5, 10, 20)
EXCLUDE_SIZE = 3
PAIR_DRUGS = 12
REF_DEPTH = max(TOP_KS) + EXCLUDE_SIZE + 1  # top-k + excludes + the query
SETUPS = 3                   # set-ups per run; setup_s is their median
PLAN_PER_CLIENT = 2048       # pre-drawn requests per client (cycled)
NUM_SHARDS = 2
NEW_DRUG_READS_PER_S = 100
REGISTER_EVERY = 10
COMPACT_EVERY = 25
WARM_REGISTRATIONS = 2
SMILES_POOL = 400
# 40 epoch intervals: epoch times drift with the host inside one run, and
# the median of the 20 that fit in 15 s spread by a quarter across runs.
TRAIN_EPOCHS = 41
# One catalog, one set of serving weights and one DrugBank corpus for every
# run; --seed draws only the traffic (and train-epoch's negatives, split
# and initial weights), so runs of different seeds measure the same model.
CATALOG_SEED = 0
DATASET_SEED = 0
ENCODE_ANCHOR_DRUGS = 64     # corpus drugs re-encoded alone by the anchor
# Correctness floors fixed from the seed code, about six run-to-run
# standard deviations below its median over twenty seeds: mean recall@k
# 0.880-0.893 (median 0.888, sd 0.003), test ROC-AUC after 41 epochs
# 0.854-0.876 (median 0.868, sd 0.005).
APPROX_RECALL_FLOOR = 0.87
TEST_AUC_FLOOR = 0.83

WORKLOAD_IDS = {"catalog-screen": 1, "new-drugs": 2, "remote-screen": 3,
                "train-epoch": 4}


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    work: Path
    tracer: Tracer | None = None

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def tracing(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.enabled = on


@dataclass
class Outcome:
    """What one workload run measured; ``run.py`` turns it into metrics."""

    setup_s: list[float] = field(default_factory=list)
    setup_windows: list[tuple[float, float]] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)
    # (answered at, latency s) per read / epoch, (completed at, operations)
    # per completion; run.py reduces them per sub-window of the window,
    # or per sample when each sample is its own sub-window (an epoch).
    samples: list[tuple[float, float]] = field(default_factory=list)
    completions: list[tuple[float, int]] = field(default_factory=list)
    per_sample_subwindows: bool = False
    tally: Tally = field(default_factory=Tally)
    checks: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    requests: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    worker_spans: list[Span] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def window_s(self) -> float:
        return self.window[1] - self.window[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def compact(result):
    """A screen's hits as ``(indices, probabilities, drug ids)``.

    Responses are kept until the checks after the window; holding them as
    two arrays and a tuple keeps the window's own bookkeeping from growing
    the resident set the run measures.
    """
    if not isinstance(result, list):
        return result
    return (np.fromiter((h.index for h in result), np.int64, len(result)),
            np.fromiter((h.probability for h in result), np.float64,
                        len(result)),
            tuple(h.drug_id for h in result))


@contextmanager
def timed_window():
    """Settle the disk and the heap before a timed window.

    ``os.sync`` flushes what set-up wrote, so the window's own store writes
    do not queue behind it.  GC stays on: set-up objects (model, plans,
    references) are collected once and frozen, so full collections inside
    the window do not rescan them.
    """
    os.sync()
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


# ---------------------------------------------------------------------------
# Inputs (a fixed catalog, traffic drawn from the seed; not set-up)
# ---------------------------------------------------------------------------
def serving_config() -> HyGNNConfig:
    return HyGNNConfig(parameter=KMER, embed_dim=HIDDEN, hidden_dim=HIDDEN,
                       decoder="mlp", seed=CATALOG_SEED)


def draw_smiles(extra: int) -> tuple[list[str], list[str]]:
    """The 2,000-drug corpus plus ``extra`` distinct SMILES that share at
    least one k-mer with it (so none is rejected as all-unknown).  The
    generator is sequential, so the corpus does not depend on ``extra``."""
    records = MoleculeGenerator(seed=CATALOG_SEED).generate_corpus(
        BASE_DRUGS + 2 * extra)
    smiles = [r.smiles for r in records]
    corpus = smiles[:BASE_DRUGS]
    known = {t for s in corpus for t in kmerize(s, KMER)}
    others = [s for s in smiles[BASE_DRUGS:]
              if any(t in known for t in kmerize(s, KMER))]
    if len(others) < extra:
        raise RuntimeError("not enough SMILES with known substructures")
    return corpus, others[:extra]


def screen_plan(rng: np.random.Generator, count: int,
                mix: tuple[tuple[str, float], ...]) -> list[tuple]:
    """``count`` requests ``(kind, query, top_k, exclude, pairs)``."""
    kinds = rng.choice(len(mix), size=count, p=[w for _, w in mix])
    plan = []
    for choice in kinds:
        kind = mix[choice][0]
        if kind == "pairs":
            drugs = np.sort(rng.choice(BASE_DRUGS, PAIR_DRUGS, replace=False))
            pairs = np.array(list(itertools.combinations(drugs.tolist(), 2)),
                             dtype=np.int64)
            plan.append(("pairs", -1, 0, (), pairs))
            continue
        query = int(rng.integers(BASE_DRUGS))
        top_k = int(rng.choice(TOP_KS))
        exclude: tuple = ()
        if kind == "screen" and rng.random() < 0.2:
            others = rng.choice(BASE_DRUGS - 1, EXCLUDE_SIZE, replace=False)
            exclude = tuple(int(o + (o >= query)) for o in others)
        plan.append((kind, query, top_k, exclude, None))
    return plan


# ---------------------------------------------------------------------------
# Serving set-up: model, service, optional store and workers, gateway
# ---------------------------------------------------------------------------
@dataclass
class Stack:
    model: HyGNN
    hypergraph: object
    builder: object
    service: DDIScreeningService
    gateway: ScreeningGateway
    workers: list = field(default_factory=list)
    worker_traces: list = field(default_factory=list)

    async def close(self) -> None:
        # Store directories stay until run.py removes the whole work
        # directory after the run: deleting them here would put the
        # file system's freeing of their blocks inside the next window.
        await self.gateway.close()
        self.service.close()
        for proc in self.workers:
            stop_worker(proc)
        self.workers = []


def start_worker(ctx: Context, manifest: Path,
                 trace_path: Path | None) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "shard_worker.py"), str(manifest)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    return subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, cwd=ctx.root)


def read_port(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline().decode() if ready else ""
    if not line.startswith("PORT "):
        raise RuntimeError(f"shard worker did not report a port: {line!r}")
    return int(line.split()[1])


def stop_worker(proc: subprocess.Popen) -> None:
    try:
        proc.stdin.close()
    except OSError:
        pass
    try:
        proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def wait_ready(remote, timeout: float = 60.0) -> int:
    """Poll ``probe_health`` until every worker answers; returns polls."""
    deadline = clock() + timeout
    polls = 0
    while True:
        polls += 1
        if all(h is not None for h in remote.probe_health().values()):
            return polls
        if clock() > deadline:
            raise RuntimeError("shard workers did not become healthy")
        time.sleep(0.002)


async def build_stack(ctx: Context, corpus: list[str], tag: str,
                      store: bool = False, workers: int = 0) -> Stack:
    model, hypergraph, builder = HyGNN.for_corpus(corpus, serving_config())
    model.eval()
    service = DDIScreeningService(model, builder, corpus)
    service.refresh()
    stack = Stack(model, hypergraph, builder, service,
                  ScreeningGateway(service))
    if not store:
        return stack
    try:
        store_dir = ctx.work / f"store-{tag}"
        manifest = service.save_shards(store_dir, num_shards=NUM_SHARDS)
        service.open_shards(store_dir, strict=True)
        if workers:
            traced = ctx.tracer is not None
            stack.worker_traces = [
                ctx.work / f"worker-{tag}-{i}.json" if traced else None
                for i in range(workers)]
            for path in stack.worker_traces:
                stack.workers.append(start_worker(ctx, manifest, path))
            ports = [read_port(proc) for proc in stack.workers]
            service.connect_workers([("127.0.0.1", p) for p in ports])
            wait_ready(service.remote)
    except BaseException:
        await stack.close()
        raise
    return stack


async def issue(gateway: ScreeningGateway, request: tuple):
    kind, query, top_k, exclude, pairs = request
    if kind == "pairs":
        return await gateway.score_pairs(pairs)
    return await gateway.screen(query, top_k=top_k, exclude=exclude,
                                approx=kind == "approx")


def request_key(request: tuple) -> tuple:
    kind = request[0]
    if kind == "pairs":
        return ("pairs", False)
    return ("screen", kind == "approx")


async def set_up(ctx: Context, out: Outcome, build, warm) -> Stack:
    """Set up ``SETUPS`` times (median reported); keep the last stack."""
    stack = None
    for index in range(SETUPS):
        if stack is not None:
            await stack.close()
            stack = None  # one stack alive at a time, for peak_rss_mb
        gc.collect()
        start = clock()
        stack = await build(index)
        try:
            await warm(stack)
        except BaseException:
            await stack.close()
            raise
        end = clock()
        out.setup_s.append(end - start)
        out.setup_windows.append((start, end))
    return stack


async def closed_loop(ctx: Context, gateway, plans, out: Outcome) -> list:
    """Clients issue requests back to back until ``seconds`` elapse."""
    records: list = []

    async def client(plan, deadline):
        i = 0
        while clock() < deadline:
            request = plan[i % len(plan)]
            i += 1
            submitted = clock()
            try:
                result = compact(await issue(gateway, request))
            except Exception as error:  # noqa: BLE001 - counted as failed
                result = error
            answered = clock()
            records.append((request, result, submitted, answered))

    with timed_window():
        start = clock()
        await asyncio.gather(*(client(plan, start + ctx.seconds)
                               for plan in plans))
        out.window = (start, clock())
    return records


# ---------------------------------------------------------------------------
# References and output checks
# ---------------------------------------------------------------------------
def anchored(model: HyGNN, candidates: np.ndarray, queries: np.ndarray,
             indices: np.ndarray, probs: np.ndarray) -> bool:
    """True when ``probs[r, c]``, the kernel's probability of query row
    ``r`` against candidate ``indices[r, c]``, matches the training-path
    forward (``predict_proba_from_embeddings``) to ``rtol=1e-12``.

    The references and the served screens share the screening kernel
    (``project_queries`` / ``score_block``), so a change to its arithmetic
    would move both alike and the bitwise checks would still pass; the
    decoder's own forward scores the same pairs a different way.
    """
    rows = np.repeat(np.arange(len(queries)) + len(candidates),
                     indices.shape[1])
    pairs = np.stack([rows, indices.ravel()], axis=1)
    want = model.predict_proba_from_embeddings(
        np.concatenate([candidates, queries]), pairs)
    return bool(np.allclose(probs.ravel(), want, rtol=1e-12, atol=0.0))


class Reference:
    """Dense ``screen_probs`` + stable-sort answers for the base catalog."""

    def __init__(self, model: HyGNN, hypergraph):
        self.model = model
        self.embeddings = np.array(model.embed_drugs(hypergraph).data)
        self.projections = model.candidate_projections(self.embeddings)
        self.top: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def build_top(self, queries, chunk: int = 128) -> bool:
        """Reference answers for ``queries``; False when any query's top
        ``REF_DEPTH`` probabilities disagree with the training path."""
        queries = sorted(set(queries))
        agree = True
        for lo in range(0, len(queries), chunk):
            part = queries[lo:lo + chunk]
            probs = self.model.screen_probs(self.embeddings[part],
                                            self.projections)
            order = np.argsort(-probs, axis=1, kind="stable")[:, :REF_DEPTH]
            top_p = np.take_along_axis(probs, order, axis=1)
            agree &= anchored(self.model, self.embeddings,
                              self.embeddings[part], order, top_p)
            for row, query in enumerate(part):
                self.top[query] = (order[row], top_p[row])
        return agree

    def exact(self, query: int, top_k: int, exclude=()):
        indices, probs = self.top[query]
        banned = set(exclude) | {query}
        keep = [i for i, j in enumerate(indices) if int(j) not in banned]
        keep = keep[:top_k]
        return indices[keep], probs[keep]

    def probs_of(self, query: int, indices: np.ndarray) -> np.ndarray:
        rows = {name: value[indices]
                for name, value in self.projections.items()}
        return self.model.screen_probs(self.embeddings[query:query + 1],
                                       rows)[0]


def check_exact(reference: Reference, request, result, tally: Tally) -> None:
    _, query, top_k, exclude, _ = request
    indices, probs, ids = result
    want_idx, want_p = reference.exact(query, top_k, exclude)
    tally.check(np.array_equal(indices, want_idx)
                and np.array_equal(probs, want_p)
                and ids == tuple(f"drug_{j}" for j in indices),
                "exact mismatch")


def check_approx(reference: Reference, request, result, tally: Tally,
                 recalls: list[float]) -> None:
    _, query, top_k, _, _ = request
    indices, probs, _ = result
    valid = (len(indices) == top_k
             and len(set(indices.tolist())) == len(indices)
             and query not in indices.tolist()
             and bool(np.all((indices >= 0) & (indices < BASE_DRUGS))))
    if valid:
        exact_p = reference.probs_of(query, indices)
        ordered = np.array_equal(np.lexsort((indices, -probs)),
                                 np.arange(len(indices)))
        valid = np.array_equal(probs, exact_p) and ordered
        truth, _ = reference.exact(query, top_k)
        recalls.append(len(set(indices.tolist()) & set(truth.tolist()))
                       / top_k)
    tally.check(valid, "approx mismatch")


def check_screen_records(reference: Reference, records, out: Outcome
                         ) -> None:
    recalls: list[float] = []
    pair_jobs = []
    for request, result, _, _ in records:
        if isinstance(result, Exception):
            out.tally.fail(f"error: {type(result).__name__}")
            continue
        kind = request[0]
        if kind == "screen":
            check_exact(reference, request, result, out.tally)
        elif kind == "approx":
            check_approx(reference, request, result, out.tally, recalls)
        else:
            pair_jobs.append((request[4], result))
    if pair_jobs:
        expected = reference.model.predict_proba_from_embeddings(
            reference.embeddings,
            np.concatenate([pairs for pairs, _ in pair_jobs]))
        offset = 0
        for pairs, result in pair_jobs:
            want = expected[offset:offset + len(pairs)]
            offset += len(pairs)
            out.tally.check(
                np.shape(result) == want.shape
                and np.allclose(result, want, rtol=1e-12, atol=0.0),
                "pair mismatch")
    if recalls:
        recall = float(np.mean(recalls))
        out.checks["approx_recall"] = {"value": recall,
                                       "floor": APPROX_RECALL_FLOOR,
                                       "passed": recall
                                       >= APPROX_RECALL_FLOOR}


def read_samples(records) -> list[tuple[float, float]]:
    return [(answered, answered - submitted) for _, result, submitted,
            answered in records if not isinstance(result, Exception)]


# ---------------------------------------------------------------------------
# catalog-screen and remote-screen
# ---------------------------------------------------------------------------
CATALOG_MIX = (("screen", 0.6), ("approx", 0.2), ("pairs", 0.2))
REMOTE_MIX = (("screen", 1.0),)


async def _screen_workload(ctx: Context, name: str, clients: int, mix,
                           store: bool, workers: int) -> Outcome:
    out = Outcome()
    wid = WORKLOAD_IDS[name]
    corpus, _ = draw_smiles(0)
    plans = [screen_plan(ctx.rng(wid, c), PLAN_PER_CLIENT, mix)
             for c in range(clients)]
    # Warm-up: every client sends one request of every kind, concurrently.
    warmups = [[screen_plan(ctx.rng(wid, 1000 + c, k), 1, ((kind, 1.0),))[0]
                for k, (kind, _) in enumerate(mix)] for c in range(clients)]

    async def build(index):
        return await build_stack(ctx, corpus, f"{name}-{index}",
                                 store=store, workers=workers)

    async def warm(stack):
        for round_ in range(len(mix)):
            await asyncio.gather(*(issue(stack.gateway, plan[round_])
                                   for plan in warmups))

    ctx.tracing(True)
    stack = await set_up(ctx, out, build, warm)
    ctx.tracing(False)
    try:
        reference = Reference(stack.model, stack.hypergraph)
        agree = reference.build_top(q for plan in plans
                                    for kind, q, *_ in plan
                                    if kind != "pairs")
        out.checks["reference_anchor"] = {"passed": agree}
        stats = stack.service.stats
        refused = stats.gateway_rejections
        remote = stack.service.remote
        before = dict(remote.stats) if remote is not None else {}
        ctx.tracing(True)
        records = await closed_loop(ctx, stack.gateway, plans, out)
        ctx.tracing(False)
        out.peak_rss_mb = peak_rss_mb()
        out.facts["refused"] = stats.gateway_rejections - refused
        if remote is not None:
            retries = remote.stats["retries"] - before["retries"]
            fallbacks = (remote.stats["local_fallbacks"]
                         - before["local_fallbacks"])
            out.facts.update(remote_retries=retries,
                             remote_fallbacks=fallbacks)
            out.checks["remote_clean"] = {
                "value": retries + fallbacks,
                "passed": retries == 0 and fallbacks == 0}
    finally:
        await stack.close()  # workers write their spans as they stop
    out.worker_spans, out.facts["worker_peak_rss_mb"] = \
        _worker_spans(stack.worker_traces, out.window)

    out.samples = read_samples(records)
    out.completions = [(answered, 1) for answered, _ in out.samples]
    out.requests = [(request_key(r), s, a) for r, res, s, a in records
                    if not isinstance(res, Exception)]
    check_screen_records(reference, records, out)
    out.detail["requests_by_kind"] = {
        kind: sum(1 for r in records if r[0][0] == kind)
        for kind, _ in mix}
    return out


def _worker_spans(paths, window) -> tuple[list[Span], float]:
    spans: list[Span] = []
    peak = 0.0
    for path in paths:
        if path is None or not Path(path).exists():
            continue
        with open(path) as source:
            dump = json.load(source)
        peak = max(peak, float(dump["peak_rss_mb"]))
        spans += [s for s in load_spans(dump["spans"], pid=dump["pid"])
                  if window[0] <= s.start < window[1]]
    return spans, peak


def catalog_screen(ctx: Context) -> Outcome:
    return asyncio.run(_screen_workload(ctx, "catalog-screen", 8,
                                        CATALOG_MIX, store=False, workers=0))


def remote_screen(ctx: Context) -> Outcome:
    return asyncio.run(_screen_workload(ctx, "remote-screen", 4,
                                        REMOTE_MIX, store=True, workers=2))


# ---------------------------------------------------------------------------
# new-drugs
# ---------------------------------------------------------------------------
@dataclass
class Read:
    kind: str          # "smiles" or "screen"
    smiles: str
    pick: float        # which registered drug a "screen" read addresses
    top_k: int


async def _new_drugs(ctx: Context) -> Outcome:
    out = Outcome()
    wid = WORKLOAD_IDS["new-drugs"]
    num_reads = max(int(round(NEW_DRUG_READS_PER_S * ctx.seconds)),
                    REGISTER_EVERY)
    num_writes = WARM_REGISTRATIONS + num_reads // REGISTER_EVERY
    corpus, extra = draw_smiles(num_writes + SMILES_POOL)
    to_register, pool = extra[:num_writes], extra[num_writes:]
    rng = ctx.rng(wid, 0)
    reads = [Read("smiles" if rng.random() < 0.8 else "screen",
                  pool[int(rng.integers(len(pool)))], float(rng.random()),
                  int(rng.choice(TOP_KS))) for _ in range(num_reads)]
    registered: list[str] = []

    def register(stack: Stack, writes: list | None = None) -> None:
        number = len(registered)
        drug_id = f"new_{number}"
        before = stack.service.num_drugs
        start = clock()
        try:
            got = stack.service.register_drugs([to_register[number]],
                                               drug_ids=[drug_id])
        except Exception as error:  # noqa: BLE001 - counted as failed
            got = error
        end = clock()
        if writes is not None:
            writes.append((before, got, end - start, end))
        registered.append(drug_id)
        if len(registered) % COMPACT_EVERY == 0:
            stack.service.compact_shards(NUM_SHARDS)

    async def build(index):
        registered.clear()
        return await build_stack(ctx, corpus, f"new-drugs-{index}",
                                 store=True)

    async def warm(stack):
        for _ in range(WARM_REGISTRATIONS):
            register(stack)
        await asyncio.gather(
            stack.gateway.screen_smiles(pool[0], top_k=TOP_KS[0]),
            stack.gateway.screen(registered[0], top_k=TOP_KS[0]))

    ctx.tracing(True)
    stack = await set_up(ctx, out, build, warm)
    ctx.tracing(False)
    try:
        service = stack.service
        version_before = service.catalog_version
        refused = service.stats.gateway_rejections
        records: list = []
        writes: list = []
        state = {"issued": 0, "completed": 0}

        async def client(cid: int):
            while state["issued"] < num_reads:
                read = reads[state["issued"]]
                state["issued"] += 1
                if read.kind == "smiles":
                    query = read.smiles
                    call = stack.gateway.screen_smiles(query, top_k=read.top_k)
                else:
                    query = registered[int(read.pick * len(registered))]
                    call = stack.gateway.screen(query, top_k=read.top_k)
                size_before = service.num_drugs
                submitted = clock()
                try:
                    result = compact(await call)
                except Exception as error:  # noqa: BLE001 - counted as failed
                    result = error
                answered = clock()
                records.append((read, query, size_before, service.num_drugs,
                                result, submitted, answered, cid))
                state["completed"] += 1
                if state["completed"] % REGISTER_EVERY == 0:
                    register(stack, writes)

        ctx.tracing(True)
        with timed_window():
            start = clock()
            await asyncio.gather(client(0), client(1))
            out.window = (start, clock())
        ctx.tracing(False)
        out.peak_rss_mb = peak_rss_mb()
        window_registrations = len(writes)
        out.facts["refused"] = service.stats.gateway_rejections - refused

        ok_reads = [r for r in records if not isinstance(r[4], Exception)]
        ok_writes = [w for w in writes if not isinstance(w[1], Exception)]
        out.samples = [(r[6], r[6] - r[5]) for r in ok_reads]
        out.completions = ([(r[6], 1) for r in ok_reads]
                           + [(w[3], 1) for w in ok_writes])
        out.requests = [(("smiles", False) if r[0].kind == "smiles"
                         else ("screen", False), r[5], r[6]) for r in ok_reads]
        write_ms = [w[2] * 1e3 for w in ok_writes]
        out.detail["write_ms_p50_p90"] = (
            np.percentile(write_ms, [50, 90]).tolist() if write_ms else [])
        out.detail["writes"] = len(writes)
        out.detail["compactions"] = len(registered) // COMPACT_EVERY

        _check_new_drugs(stack, corpus, to_register[:len(registered)],
                         records, writes, out, ctx.rng(wid, 1))
        compactions = (len(registered) // COMPACT_EVERY
                       - WARM_REGISTRATIONS // COMPACT_EVERY)
        expected_version = version_before + window_registrations + compactions
        out.checks["catalog_version"] = {
            "value": service.catalog_version, "expected": expected_version,
            "passed": service.catalog_version == expected_version}
        out.detail["segments_at_end"] = service.shard_store.num_shards
    finally:
        await stack.close()
    return out


def _check_new_drugs(stack: Stack, corpus: list[str],
                     registered_smiles: list[str], records, writes,
                     out: Outcome, rng: np.random.Generator) -> None:
    """Each read must equal the dense reference at some catalog size that
    was committed between its submission and its answer.

    A ``screen_smiles`` query is embedded in one encode with whatever
    other SMILES shared its flush, and the encoder only matches a lone
    encode up to batch-shape rounding (about 1 ulp).  So the reference
    embeds the query alone and, failing that, together with each
    ``screen_smiles`` read of the other client that was in flight at the
    same time, in submission order; the scores must then match bitwise.

    The reference encodes through ``encode_edges_subset`` and scores
    through the screening kernel, as the service does, so both are
    anchored: corpus drugs re-encoded alone must match the full-corpus
    encode, and every reference row's top probabilities must match
    ``predict_proba_from_embeddings``.
    """
    model, builder = stack.model, stack.builder
    vocab = builder.vocabulary
    hg = stack.hypergraph
    corpus_emb, context = model.encoder.encode_with_context(
        hg.node_ids, hg.edge_ids, hg.num_edges,
        partitions=(hg.node_partition, hg.edge_partition))
    corpus_emb = np.array(corpus_emb.data)

    def encode(batch: tuple[str, ...]) -> np.ndarray:
        nodes = [np.array(sorted(vocab[t] for t in tokens), dtype=np.int64)
                 for tokens in builder.drug_token_sets(list(batch))]
        edges = np.repeat(np.arange(len(nodes), dtype=np.int64),
                          [len(n) for n in nodes])
        return model.encoder.encode_edges_subset(
            context, np.concatenate(nodes), edges, len(nodes)).numpy()

    sample = rng.choice(BASE_DRUGS, ENCODE_ANCHOR_DRUGS, replace=False)
    alone = np.concatenate([encode((corpus[i],)) for i in sample])
    out.checks["encode_anchor"] = {"passed": bool(np.allclose(
        alone, corpus_emb[sample], rtol=1e-12, atol=1e-15))}

    # Registered rows are embedded and projected one drug at a time, the
    # way a registration produces them.
    rows = [encode((s,)) for s in registered_smiles]
    embeddings = np.concatenate([corpus_emb] + rows, axis=0)
    parts = [model.candidate_projections(corpus_emb)]
    parts += [model.candidate_projections(row) for row in rows]
    projections = {name: np.concatenate([p[name] for p in parts], axis=0)
                   for name in parts[0]}
    index = {f"new_{i}": BASE_DRUGS + i for i in range(len(rows))}
    served = stack.service.embeddings
    for before, got, _, _ in writes:
        if isinstance(got, Exception):
            out.tally.fail(f"error: {type(got).__name__}")
            continue
        out.tally.check(got == [before]
                        and before - BASE_DRUGS < len(rows)
                        and np.array_equal(served[before],
                                           embeddings[before]),
                        "write mismatch")

    scores: dict[tuple, np.ndarray] = {}
    anchor_rows: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def screen(emb: np.ndarray) -> np.ndarray:
        probs = model.screen_probs(emb, projections)[0]
        order = np.argsort(-probs, kind="stable")[:REF_DEPTH]
        anchor_rows.append((emb[0], order, probs[order]))
        return probs

    def probs_for(batch: tuple[str, ...], position: int) -> np.ndarray:
        key = (batch, position)
        if key not in scores:
            scores[key] = screen(encode(batch)[position:position + 1])
        return scores[key]

    def answered_at_some_size(probs, read, self_index, size_before,
                              size_after, indices, got_p) -> bool:
        for size in range(size_before, size_after + 1):
            order = np.argsort(-probs[:size], kind="stable")
            if self_index is not None:
                order = order[order != self_index]
            order = order[:read.top_k]
            if (np.array_equal(indices, order)
                    and np.array_equal(got_p, probs[order])):
                return True
        return False

    smiles_reads = [r for r in records if r[0].kind == "smiles"]
    for record in records:
        read, query, size_before, size_after, result, sub, ans, cid = record
        if isinstance(result, Exception):
            out.tally.fail(f"error: {type(result).__name__}")
            continue
        indices, got_p, _ = result
        if read.kind == "screen":
            self_index = index[query]
            probs = screen(embeddings[self_index][None, :])
            out.tally.check(answered_at_some_size(
                probs, read, self_index, size_before, size_after, indices,
                got_p), "read mismatch")
            continue
        batches = [((query,), 0)]
        for other in smiles_reads:
            if other[7] != cid and other[5] < ans and other[6] > sub:
                first = other[5] < sub
                pair = (other[1], query) if first else (query, other[1])
                batches.append((pair, 1 if first else 0))
        out.tally.check(any(
            answered_at_some_size(probs_for(batch, position), read, None,
                                  size_before, size_after, indices, got_p)
            for batch, position in batches), "read mismatch")
    if anchor_rows:
        queries, indices, top_p = (np.stack(column)
                                   for column in zip(*anchor_rows))
        out.checks["reference_anchor"] = {"passed": anchored(
            model, embeddings, queries, indices, top_p)}


def new_drugs(ctx: Context) -> Outcome:
    return asyncio.run(_new_drugs(ctx))


# ---------------------------------------------------------------------------
# train-epoch
# ---------------------------------------------------------------------------
class _SetupDone(Exception):
    """Raised from the first optimizer step of a discarded set-up."""


def train_epoch(ctx: Context) -> Outcome:
    out = Outcome()
    dataset = load_dataset("drugbank", scale=0.5, seed=DATASET_SEED)
    pairs, labels = balanced_pairs_and_labels(dataset, seed=ctx.seed)
    split = random_split(len(pairs), seed=ctx.seed)
    config = HyGNNConfig(epochs=TRAIN_EPOCHS, patience=TRAIN_EPOCHS + 1,
                         seed=ctx.seed)
    smiles = dataset.smiles
    fitted = None
    for index in range(SETUPS):
        # The measured fit is the middle set-up, so the discarded ones run
        # both before and after the window and setup_s does not rest on
        # one stretch of host speed.
        measured = index == SETUPS // 2
        model = hypergraph = trainer = step = None  # one set-up alive
        gc.collect()
        steps: list[float] = []
        ctx.tracing(True)
        start = clock()
        model, hypergraph, _ = HyGNN.for_corpus(smiles, config)
        trainer = Trainer(model, config)
        step = trainer.optimizer.step

        def timed_step(step=step, steps=steps, measured=measured):
            steps.append(clock())
            if not measured:
                raise _SetupDone
            step()

        trainer.optimizer.step = timed_step
        try:
            history = trainer.fit(hypergraph, pairs, labels, split)
        except _SetupDone:
            pass
        ctx.tracing(False)
        out.setup_s.append(steps[0] - start)
        out.setup_windows.append((start, steps[0]))
        if measured:
            out.peak_rss_mb = peak_rss_mb()
            fitted = (model, hypergraph, history, steps)
    model, hypergraph, history, steps = fitted
    out.window = (steps[0], steps[-1])
    out.per_sample_subwindows = True
    out.samples = [(end, end - begin) for begin, end in zip(steps, steps[1:])]
    out.completions = [(end, len(split.train)) for end, _ in out.samples]
    out.facts["epochs"] = len(out.samples)
    for train_loss, val_loss in zip(history.train_loss, history.val_loss):
        out.tally.check(bool(np.isfinite(train_loss)
                             and np.isfinite(val_loss)), "non-finite loss")
    probs = model.predict_proba(hypergraph, pairs[split.test])
    auc = float(roc_auc_score(labels[split.test], probs))
    out.checks["test_auc"] = {"value": auc, "floor": TEST_AUC_FLOOR,
                              "passed": auc >= TEST_AUC_FLOOR}
    out.checks["epochs_run"] = {"value": history.epochs_run,
                                "passed": history.epochs_run == TRAIN_EPOCHS}
    out.detail["train_pairs"] = int(len(split.train))
    return out


# The order is the order in BENCHMARK.json, which says why each exists.
WORKLOADS = {"catalog-screen": catalog_screen, "new-drugs": new_drugs,
             "remote-screen": remote_screen, "train-epoch": train_epoch}
