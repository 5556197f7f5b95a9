"""HyGNN decoders (paper Sec. III-C2, Eqs. 10-12).

Both decoders map a pair of drug embeddings to a raw interaction score
(logit); the sigmoid lives in the loss / prediction step, matching the
paper's ``σ(γ(q_x, q_y))`` formulation.

Besides the autograd ``forward`` used in training, each decoder exposes a
numpy-only *screening kernel* for the serving engine, built around a weight
split of the first MLP layer:

    f1(x ∥ y) = x @ W_q + y @ W_c + b

so the candidate-side projection ``E @ W_c`` (and, for symmetric screening,
``E @ W_q``) can be computed **once** per (weights, catalog) version and
reused by every query.  The second layer is folded into the precompute as
well, via two exact identities (multiplication by a constant is monotone,
so it commutes with max/min even after rounding):

    γ(q, c) = Σ_j w_j·relu(qˡ_j + C_j) + b₂
            = (qˡ·w + b₂) + Σ_j w_j·max(C_j, -qˡ_j)
            = const(q)    + Σ_j [ max(D_j, g_j)  if w_j >= 0
                                  min(D_j, g_j)  otherwise ]

with ``D = C·w`` precomputed per catalog (columns reordered so the
``w_j >= 0`` block is contiguous) and ``g = -(qˡ·w)`` per query.  Per
candidate block that is **one** elementwise max/min pass plus one row-sum
— down from GEMM + bias + ReLU + weighted sum in the naive path.

The kernel is deliberately composed only of *blocking-invariant* numpy
operations (elementwise broadcast add / ReLU / multiply, and per-row
pairwise-sum reductions): every output element depends solely on its own
row's inputs, computed identically for any block size, shard layout, or
query-batch size.  That is what lets the engine guarantee bitwise-identical
exact-mode scores across all execution plans.  (A ``(B, h) @ (h, 1)`` GEMV
is *not* row-blocking-invariant under this BLAS, so ``f2`` is applied as
``(hidden * w2).sum(-1)`` instead of a matmul; query projections are
likewise computed one row at a time so batched and single-query screening
agree bitwise.)

Block-sized scratch buffers are cached per decoder and reused across
blocks (half-MB allocations are mmap-backed and page-fault on every reuse
otherwise), which makes ``score_block`` non-reentrant: one screening call
at a time per decoder instance, like every other module here.
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, Module, Tensor
from ..nn import functional as F

_SCRATCH_CACHE_LIMIT = 8
# Scoring kernels tile candidate rows so per-tile scratch stays ~256 KB
# (L2-resident); the tile size adapts to query-batch width.
_KERNEL_TILE_ELEMENTS = 32768
# The float32 BLAS-reduction path amortises its GEMV dispatch over much
# larger tiles (~4 MB of float32 scratch) — the ones-vector product streams
# rather than re-reads, so L2 residency matters less than loop overhead.
_KERNEL_TILE_ELEMENTS_BLAS = 1048576


class _ScratchMixin:
    """Reusable per-(shape, dtype) numpy scratch buffers for the kernels."""

    def _scratch(self, shape: tuple[int, ...],
                 dtype: np.dtype = np.float64) -> np.ndarray:
        cache = self.__dict__.setdefault("_scratch_bufs", {})
        key = (shape, np.dtype(dtype))
        buffer = cache.get(key)
        if buffer is None:
            if len(cache) >= _SCRATCH_CACHE_LIMIT:
                cache.clear()
            buffer = np.empty(shape, dtype=dtype)
            cache[key] = buffer
        return buffer


def _serving_dtype(array: np.ndarray) -> np.dtype:
    """The screening dtype an operand implies: its own if floating, else f64."""
    if np.issubdtype(array.dtype, np.floating):
        return array.dtype
    return np.dtype(np.float64)


class MLPDecoder(_ScratchMixin, Module):
    """Eq. (11): ``γ(q_x, q_y) = f2(f1(q_x ∥ q_y))``.

    Two affine layers with a ReLU between them (the paper uses ReLU on the
    decoder side, Sec. IV-B); output is a scalar logit per pair.
    """

    # Screening-engine traits: γ(x, y) != γ(y, x).  No *exact* inner-product
    # form exists for the MLP scorer, but a low-rank sketch of the candidate
    # projections (see sketch_factors) gives an approximate prefilter whose
    # shortlist the engine exact-reranks; the sketch must be materialised
    # per (weights, catalog) version before approx screening works.
    is_symmetric = False
    supports_prefilter = True
    needs_sketch = True

    def __init__(self, embed_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.f1 = Linear(2 * embed_dim, hidden_dim, rng)
        self.f2 = Linear(hidden_dim, 1, rng)

    def forward(self, left: Tensor, right: Tensor) -> Tensor:
        pair = F.concat([left, right], axis=1)
        hidden = F.relu(self.f1(pair))
        return self.f2(hidden).reshape(len(left))

    # ------------------------------------------------------------------
    # Serving fast path (numpy-only, no autograd)
    # ------------------------------------------------------------------
    def split_f1(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(W_q, W_c, b)`` such that ``f1(x ∥ y) = x@W_q + y@W_c + b``."""
        weight = self.f1.weight.data
        embed_dim = self.f1.in_features // 2
        return weight[:embed_dim], weight[embed_dim:], self.f1.bias.data

    def _column_order(self) -> tuple[np.ndarray, int]:
        """Column permutation putting ``w2_j >= 0`` first, and the split point.

        Derived from the live weights on every call so it can never go
        stale; the candidate projections and query projections both apply
        it, keeping max/min branch membership consistent.
        """
        w2 = self.f2.weight.data[:, 0]
        nonneg = w2 >= 0
        order = np.argsort(~nonneg, kind="stable")
        return order, int(nonneg.sum())

    def candidate_projections(self, embeddings: np.ndarray
                              ) -> dict[str, np.ndarray]:
        """Per-catalog precompute: ``D = (E @ W)·w2``, split by sign of w2.

        The ``w2_j >= 0`` columns (scored with ``max``) and ``w2_j < 0``
        columns (scored with ``min``) are stored as two *contiguous*
        matrices — numpy's elementwise loops are ~2x faster on contiguous
        blocks than on column-sliced views.  ``as_right`` serves the usual
        query-left orientation γ(query, cand); ``as_left`` serves the
        reversed orientation γ(cand, query) that symmetric screening
        averages in.
        """
        embeddings = np.asarray(embeddings)
        dtype = _serving_dtype(embeddings)
        w_query, w_cand, _ = self.split_f1()
        # Weights are cast to the embeddings' dtype (a no-op for float64)
        # so a float32 catalog yields float32 projections instead of the
        # GEMM silently promoting to float64.
        w2 = self.f2.weight.data[:, 0].astype(dtype, copy=False)
        order, split = self._column_order()

        def sides(weight):
            scaled = embeddings @ weight.astype(dtype, copy=False) * w2
            return (np.ascontiguousarray(scaled[:, order[:split]]),
                    np.ascontiguousarray(scaled[:, order[split:]]))

        left_max, left_min = sides(w_query)
        right_max, right_min = sides(w_cand)
        return {"as_left_max": left_max, "as_left_min": left_min,
                "as_right_max": right_max, "as_right_min": right_min}

    def project_queries(self, queries: np.ndarray,
                        sides: tuple[str, ...] = ("as_left", "as_right")
                        ) -> dict[str, dict[str, np.ndarray]]:
        """Query-side operands per orientation: ``g = -(qˡ·w2)`` + ``const``.

        Rows are projected individually so a query scored inside a batch
        gets bitwise the same projection as the same query screened alone
        (this BLAS dispatches 1-row and n-row GEMMs differently).
        ``sides`` limits the work to the orientations a caller will score
        (forward-only screens never need ``as_right``).
        """
        queries = np.atleast_2d(np.asarray(queries))
        dtype = _serving_dtype(queries)
        w_query, w_cand, bias = self.split_f1()
        w2 = self.f2.weight.data[:, 0].astype(dtype, copy=False)
        bias = bias.astype(dtype, copy=False)
        bias2 = dtype.type(self.f2.bias.data[0])
        order, split = self._column_order()
        weights = {"as_left": w_query.astype(dtype, copy=False),
                   "as_right": w_cand.astype(dtype, copy=False)}

        def side(weight):
            if len(queries) == 1:
                hidden = queries @ weight + bias
            else:
                hidden = np.concatenate([row[None, :] @ weight
                                         for row in queries], axis=0) + bias
            scaled = hidden * w2
            flipped = -scaled
            return {"const": scaled.sum(axis=1) + bias2,
                    "g_max": np.ascontiguousarray(flipped[:, order[:split]]),
                    "g_min": np.ascontiguousarray(flipped[:, order[split:]])}

        return {name: side(weights[name]) for name in sides}

    def score_block(self, query_proj: dict[str, dict[str, np.ndarray]],
                    cand_proj: dict[str, np.ndarray],
                    reverse: bool = False) -> np.ndarray:
        """``(num_queries, block)`` logits from precomputed projections.

        One max/min pass + one row-sum per block (see the module docstring
        for the exact w2-folding identity).  ``reverse=True`` scores
        γ(candidate, query) — the other argument order — for symmetric
        screening.
        """
        orient = "as_right" if reverse else "as_left"
        cand_orient = "as_left" if reverse else "as_right"
        query = query_proj[orient]
        cand_max = cand_proj[f"{cand_orient}_max"]
        cand_min = cand_proj[f"{cand_orient}_min"]
        g_max, g_min, const = query["g_max"], query["g_min"], query["const"]
        num_queries, num_cands = len(const), len(cand_max)
        dtype = np.result_type(_serving_dtype(const), _serving_dtype(cand_max))
        out = np.empty((num_queries, num_cands), dtype=dtype)
        out[:] = const[:, None]
        # Row-tile so the folded scratch stays cache-resident, then fold
        # each sign block with one contiguous max/min pass and reduce it
        # immediately.  Tiling is invisible to the result — every op is
        # per-element / per-row.
        #
        # The reduction is dtype-gated: float64 keeps numpy's pairwise
        # ``sum`` (bitwise-stable with the training path and every prior
        # release), while float32 — the low-precision serving tier, which
        # only promises rank agreement, not bit equality with float64 —
        # reduces via a BLAS ones-GEMV over much larger tiles.  sgemv runs
        # ~2x faster than the pairwise reduce at these widths, which is
        # where most of the float32 tier's speedup comes from.
        blas_reduce = dtype == np.dtype(np.float32)
        budget = (_KERNEL_TILE_ELEMENTS_BLAS if blas_reduce
                  else _KERNEL_TILE_ELEMENTS)
        for cand_part, g_part, ufunc in ((cand_max, g_max, np.maximum),
                                         (cand_min, g_min, np.minimum)):
            width = cand_part.shape[1]
            if not width:
                continue
            ones = np.ones(width, dtype=dtype) if blas_reduce else None
            tile = max(16, budget // max(num_queries * width, 1))
            rows = min(tile, num_cands) or 1
            if num_queries == 1:
                # 2D tiles: numpy's elementwise loops are markedly faster
                # on 2D arrays than on broadcast 3D ones; bitwise equal.
                g_row = g_part[0]
                scratch = self._scratch((rows, width), dtype)
                for start in range(0, num_cands, tile):
                    block = cand_part[start:start + tile]
                    folded = scratch[:len(block)]
                    ufunc(block, g_row, out=folded)
                    if blas_reduce:
                        out[0, start:start + len(block)] += folded @ ones
                    else:
                        out[0, start:start + len(block)] += \
                            folded.sum(axis=-1)
            else:
                scratch = self._scratch((num_queries, rows, width), dtype)
                for start in range(0, num_cands, tile):
                    block = cand_part[start:start + tile]
                    folded = scratch[:, :len(block)]
                    ufunc(block[None, :, :], g_part[:, None, :], out=folded)
                    if blas_reduce:
                        out[:, start:start + len(block)] += folded @ ones
                    else:
                        out[:, start:start + len(block)] += \
                            folded.sum(axis=-1)
        return out

    def score_rows(self, query_proj: dict[str, dict[str, np.ndarray]],
                   cand_rows: dict[str, np.ndarray],
                   reverse: bool = False) -> np.ndarray:
        """``(Q, K)`` logits where query ``qi`` scores its own ``K`` rows.

        The gather-rerank kernel for approximate screening: ``cand_rows``
        holds per-query candidate operands of shape ``(Q, K, width)``
        gathered from the per-query shortlists, so one vectorised pass
        replaces ``Q`` single-query :meth:`score_block` calls.  Every
        dtype reduces with the pairwise row ``sum``, so a row's logit never
        depends on how many rows share its gather (shortlists are padded
        to a common length); for float64 that is ``score_block``'s own
        reduction, so reranked probabilities are bitwise what exact mode
        reports for the same pairs.
        """
        orient = "as_right" if reverse else "as_left"
        cand_orient = "as_left" if reverse else "as_right"
        query = query_proj[orient]
        cand_max = cand_rows[f"{cand_orient}_max"]
        cand_min = cand_rows[f"{cand_orient}_min"]
        g_max, g_min, const = query["g_max"], query["g_min"], query["const"]
        dtype = np.result_type(_serving_dtype(const),
                               _serving_dtype(cand_max))
        num_queries, num_rows = cand_max.shape[:2]
        out = np.empty((num_queries, num_rows), dtype=dtype)
        out[:] = const[:, None]
        for cand_part, g_part, ufunc in ((cand_max, g_max, np.maximum),
                                         (cand_min, g_min, np.minimum)):
            if cand_part.shape[2]:
                out += ufunc(cand_part, g_part[:, None, :]).sum(axis=-1)
        return out

    # ------------------------------------------------------------------
    # Approximate prefilter: low-rank sketch of the candidate projections
    # ------------------------------------------------------------------
    #
    # The exact kernel's candidate-dependent term is
    #     Σ_j max(D_j, g_j)  +  Σ_j min(D_j, g_j)
    # over the sign-split columns of D = (E @ W_c)·w2.  Linearising each
    # max/min in D around the catalog column statistics gives the surrogate
    #     Σ_j s_j(q)·(D_j − μ_j) + terms independent of the candidate,
    # where s_j(q) ∈ [0, 1] is the smoothed probability that the
    # candidate-dependent branch is live — the max branch (D_j > g_j) for
    # max columns, the min branch (D_j < g_j) for min columns — estimated
    # from the column mean μ_j and spread σ_j via a logistic CDF.  (A hard
    # 0/1 indicator at μ loses several recall points at the shortlist
    # boundary; the soft slope costs the same single GEMM.)  Ranking
    # candidates per query only needs the candidate-dependent part, and
    # projecting (D − μ) onto the top principal components V turns it
    # into one rank-r GEMM:
    #     scorẽ(q, c) = (Vᵀ s(q)) · sketch(c),   sketch(c) = (D_c − μ) @ V.
    # The sketch is a *ranking* surrogate only — approx mode always
    # exact-reranks the oversampled shortlist with score_block.

    def sketch_factors(self, projections: dict[str, np.ndarray]
                       ) -> dict[str, np.ndarray]:
        """``{"mean", "std", "components"}`` from catalog candidate projections.

        Computed once per (weights, catalog) version via an eigendecomposition
        of the h×h covariance of ``D = [as_right_max ∥ as_right_min]`` —
        O(N·h²) BLAS + O(h³), independent of catalog size beyond the GEMM.
        """
        cand = np.concatenate([projections["as_right_max"],
                               projections["as_right_min"]], axis=1)
        width = cand.shape[1]
        # Half the operand width keeps ~all of the skewed real-catalog
        # spectrum (raising it further adds noisy directions and costs
        # recall); the prefilter GEMM stays 2x slimmer than exact.
        rank = min(max(8, width // 2), width)
        mean = cand.mean(axis=0)
        centered = cand - mean
        std = centered.std(axis=0)
        std[std == 0.0] = 1.0  # constant columns: any slope scale works
        cov = (centered.T @ centered).astype(np.float64, copy=False)
        _, eigvecs = np.linalg.eigh(cov)
        components = np.ascontiguousarray(eigvecs[:, ::-1][:, :rank])
        return {"mean": mean, "std": std,
                "components": components.astype(cand.dtype, copy=False)}

    def sketch_candidates(self, projections: dict[str, np.ndarray],
                          factors: dict[str, np.ndarray]) -> np.ndarray:
        """``(N, rank)`` sketch rows: ``(D − μ) @ V``, one GEMM."""
        cand = np.concatenate([projections["as_right_max"],
                               projections["as_right_min"]], axis=1)
        return (cand - factors["mean"]) @ factors["components"]

    def sketch_queries(self, query_proj: dict[str, dict[str, np.ndarray]],
                       factors: dict[str, np.ndarray]) -> np.ndarray:
        """``(num_queries, rank)`` query operands ``Vᵀ s(q)`` for the sketch GEMM.

        ``s`` follows the same contiguous [max block ∥ min block] column
        layout as the candidate sketch; each entry is the smoothed
        live-branch probability ``Φ((±(μ_j − g_j)) / σ_j)`` from the
        catalog statistics carried in ``factors`` (logistic approximation
        of the normal CDF, computed via the numerically safe ``tanh``).
        """
        side = query_proj["as_left"]
        g_max, g_min = side["g_max"], side["g_min"]
        mean, std = factors["mean"], factors["std"]
        components = factors["components"]
        split = g_max.shape[1]
        live = np.empty((len(g_max), mean.shape[0]), dtype=components.dtype)
        live[:, :split] = (mean[:split] - g_max) / std[:split]
        live[:, split:] = (g_min - mean[split:]) / std[split:]
        # logistic(1.702·z) ≈ Φ(z), written as tanh so extreme z are
        # exact 0/1 instead of overflowing an exp.
        np.multiply(live, 0.851, out=live)
        np.tanh(live, out=live)
        np.add(live, 1.0, out=live)
        np.multiply(live, 0.5, out=live)
        return live @ components

    def prefilter_block(self, query_proj: dict[str, dict[str, np.ndarray]],
                        cand_proj: dict[str, np.ndarray]) -> np.ndarray:
        """Approximate-mode scores: one ``(B, r) @ (r, nq)`` GEMM per block.

        Requires the ``"sketch"`` candidate rows (ride the projections
        dict) and the query-side operand stashed by the service under
        ``query_proj["sketch"]`` via :meth:`sketch_queries`.
        """
        return (cand_proj["sketch"] @ query_proj["sketch"].T).T


class DotDecoder(_ScratchMixin, Module):
    """Eq. (12): element-wise dot product ``q_x · q_y`` (no parameters)."""

    is_symmetric = True
    supports_prefilter = True
    needs_sketch = False

    def __init__(self):
        super().__init__()

    def forward(self, left: Tensor, right: Tensor) -> Tensor:
        return (left * right).sum(axis=1)

    # ------------------------------------------------------------------
    # Serving fast path
    # ------------------------------------------------------------------
    def candidate_projections(self, embeddings: np.ndarray
                              ) -> dict[str, np.ndarray]:
        """The raw embedding matrix is already the candidate-side operand."""
        return {"emb": np.asarray(embeddings)}

    def project_queries(self, queries: np.ndarray,
                        sides: tuple[str, ...] = ()) -> dict[str, np.ndarray]:
        return {"emb": np.atleast_2d(np.asarray(queries))}

    def score_block(self, query_proj: dict[str, np.ndarray],
                    cand_proj: dict[str, np.ndarray],
                    reverse: bool = False) -> np.ndarray:
        """Exact per-row products + pairwise row sums (blocking-invariant).

        Bitwise-identical to the training path's ``(left * right).sum(1)``
        — a GEMV would reorder the reduction.  ``reverse`` is accepted for
        interface parity; the dot product is symmetric.
        """
        queries = query_proj["emb"]
        cand = cand_proj["emb"]
        num_cands, width = cand.shape
        dtype = np.result_type(_serving_dtype(queries), _serving_dtype(cand))
        out = np.empty((len(queries), num_cands), dtype=dtype)
        # Same cache-tiling rationale as the MLP kernel: multiply into an
        # L2-resident scratch tile and reduce it immediately.
        tile = max(16, _KERNEL_TILE_ELEMENTS // max(width, 1))
        scratch = self._scratch((min(tile, num_cands) or 1, width), dtype)
        for qi, row in enumerate(queries):
            for start in range(0, num_cands, tile):
                block = cand[start:start + tile]
                np.multiply(block, row, out=scratch[:len(block)])
                out[qi, start:start + len(block)] = \
                    scratch[:len(block)].sum(axis=1)
        return out

    def score_rows(self, query_proj: dict[str, np.ndarray],
                   cand_rows: dict[str, np.ndarray],
                   reverse: bool = False) -> np.ndarray:
        """``(Q, K)`` products where query ``qi`` scores its own ``K`` rows.

        The gather-rerank kernel (see :meth:`MLPDecoder.score_rows`):
        ``cand_rows["emb"]`` is ``(Q, K, d)``.  Same per-row products and
        pairwise row sums as :meth:`score_block`, so the results are
        bitwise what it reports for the same pairs.
        """
        queries = query_proj["emb"]
        cand = cand_rows["emb"]
        dtype = np.result_type(_serving_dtype(queries), _serving_dtype(cand))
        return np.multiply(cand, queries[:, None, :], dtype=dtype).sum(axis=-1)

    def prefilter_block(self, query_proj: dict[str, np.ndarray],
                        cand_proj: dict[str, np.ndarray]) -> np.ndarray:
        """Approximate-mode scores: one ``(B, d) @ (d, nq)`` GEMM per block.

        Mathematically the same inner products as :meth:`score_block`, but
        BLAS-reduced — ULP-level differences can reorder near-ties, which is
        why approximate mode exact-reranks its survivors.
        """
        return (cand_proj["emb"] @ query_proj["emb"].T).T


class _ScreenKernel(_ScratchMixin):
    """Weight-free screening kernel, rebuilt by shard workers from its kind.

    ``score_block`` / ``prefilter_block`` read **only** the precomputed
    query- and candidate-side projections handed to them — never live
    decoder weights — so a kernel owns no state beyond reusable scratch
    buffers, and a worker builds its own from the registry name
    (:func:`make_kernel`).

    The ``score_block`` implementations are the *same function objects*
    as the decoders' (assigned, not reimplemented), so a worker scoring a
    memory-mapped shard is bitwise-identical to the in-process engine.
    """


class MLPScreenKernel(_ScreenKernel):
    is_symmetric = MLPDecoder.is_symmetric
    supports_prefilter = MLPDecoder.supports_prefilter
    needs_sketch = MLPDecoder.needs_sketch
    score_block = MLPDecoder.score_block
    score_rows = MLPDecoder.score_rows
    sketch_queries = MLPDecoder.sketch_queries
    prefilter_block = MLPDecoder.prefilter_block


class DotScreenKernel(_ScreenKernel):
    is_symmetric = DotDecoder.is_symmetric
    supports_prefilter = DotDecoder.supports_prefilter
    needs_sketch = DotDecoder.needs_sketch
    score_block = DotDecoder.score_block
    score_rows = DotDecoder.score_rows
    prefilter_block = DotDecoder.prefilter_block


def make_screen_kernel(decoder: Module) -> _ScreenKernel:
    """The weight-free screening kernel matching ``decoder``'s scoring math."""
    if isinstance(decoder, MLPDecoder):
        return MLPScreenKernel()
    if isinstance(decoder, DotDecoder):
        return DotScreenKernel()
    raise TypeError(f"no screening kernel for {type(decoder).__name__}")


# Wire-level kernel registry: the remote screening transport ships a *kind
# string*, never a pickled object — a worker reconstructs the weight-free
# kernel from the name, so no code object crosses a host boundary.
KERNEL_KINDS: dict[str, type[_ScreenKernel]] = {
    "mlp": MLPScreenKernel,
    "dot": DotScreenKernel,
}


def kernel_kind(kernel: _ScreenKernel) -> str:
    """The registry name of a screening kernel instance."""
    for name, cls in KERNEL_KINDS.items():
        if type(kernel) is cls:
            return name
    raise TypeError(f"{type(kernel).__name__} is not a registered "
                    f"screening kernel")


def make_kernel(kind: str) -> _ScreenKernel:
    """Instantiate a screening kernel from its registry name."""
    try:
        return KERNEL_KINDS[kind]()
    except KeyError:
        raise ValueError(f"unknown screening kernel kind {kind!r}; "
                         f"expected one of {sorted(KERNEL_KINDS)}") from None


def make_decoder(kind: str, embed_dim: int, hidden_dim: int,
                 rng: np.random.Generator) -> Module:
    """Factory for the two decoder types compared throughout Sec. IV."""
    kind = kind.lower()
    if kind == "mlp":
        return MLPDecoder(embed_dim, hidden_dim, rng)
    if kind == "dot":
        return DotDecoder()
    raise ValueError(f"unknown decoder {kind!r}; expected 'mlp' or 'dot'")
