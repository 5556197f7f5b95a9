"""Precision-tier helpers: dtype resolution and accuracy gates.

The serving stack exposes two independent speed/accuracy dials
(:class:`~repro.serving.service.DDIScreeningService` composes them):

- ``precision="float32"`` — the whole blockwise screen (projections,
  score blocks, top-k state) runs in float32, halving memory bandwidth
  on the GEMM-bound hot loop.  Rankings are validated against the
  float64 reference with :func:`rank_agreement`.
- ``approx=True`` — sketch-GEMM shortlist + exact rerank, over the
  in-memory catalog or an attached shard store alike; validated with
  :func:`recall_at_k`.
"""

from __future__ import annotations

import numpy as np

SERVING_PRECISIONS = ("float64", "float32")


def resolve_precision(precision: str) -> np.dtype:
    """Validate a service ``precision=`` knob and return its numpy dtype."""
    if precision not in SERVING_PRECISIONS:
        raise ValueError(f"precision must be one of {SERVING_PRECISIONS}, "
                         f"got {precision!r}")
    return np.dtype(precision)


def rank_agreement(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Fraction of the reference top-k set the candidate ranking kept.

    Order-insensitive set overlap — the gate for the float32 tier, where
    ULP-level score shifts may swap near-ties but must not change which
    candidates surface.  Returns 1.0 for two empty rankings.
    """
    reference = np.asarray(reference).reshape(-1)
    candidate = np.asarray(candidate).reshape(-1)
    if not reference.size:
        return 1.0
    overlap = np.intersect1d(reference, candidate).size
    return overlap / reference.size


def recall_at_k(reference: np.ndarray, candidate: np.ndarray,
                k: int | None = None) -> float:
    """Recall of the exact top-k inside an approximate ranking.

    ``k`` defaults to the reference length; both rankings are truncated
    to ``k`` before the overlap is measured.
    """
    reference = np.asarray(reference).reshape(-1)
    candidate = np.asarray(candidate).reshape(-1)
    if k is None:
        k = reference.size
    return rank_agreement(reference[:k], candidate[:k])

