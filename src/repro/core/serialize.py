"""Model persistence: save/load a trained HyGNN with its vocabulary.

A deployed DDI screener needs three things to reproduce predictions: the
trained weights, the model configuration, and the substructure vocabulary
the hypergraph builder was fitted with.  This module bundles all three into
a single ``.npz`` archive: the weights as arrays, everything else as JSON.
Nothing is pickled, and loading never unpickles.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..hypergraph import DrugHypergraphBuilder
from .config import HyGNNConfig
from .model import HyGNN

_FORMAT_VERSION = 2


def save_model(path, model: HyGNN,
               builder: DrugHypergraphBuilder) -> None:
    """Serialise ``model`` + ``builder`` vocabulary to ``path`` (.npz).

    ``path`` may also be an open binary file object (``np.savez``
    supports both).
    """
    if isinstance(path, (str, Path)):
        path = Path(path)
    meta = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(model.config),
        "builder": {"method": builder.method, "parameter": builder.parameter},
        "num_substructures": model.encoder.num_substructures,
        "vocab": builder.vocabulary,
        "espf_merges": (builder._espf.merges if builder.method == "espf"
                        else []),
    }
    arrays = {f"param:{name}": value
              for name, value in model.state_dict().items()}
    np.savez(path, __meta__=np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)


def load_model(path) -> tuple[HyGNN, DrugHypergraphBuilder]:
    """Restore a (model, builder) pair saved by :func:`save_model`.

    ``path`` may be a filesystem path or an open binary file object.
    Format-1 archives (vocabulary as pickled object arrays) are refused;
    the README's upgrade notes convert one.
    """
    if isinstance(path, (str, Path)):
        path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if "__meta__" not in archive.files:
            raise ValueError(f"{path} is not a save_model archive")
        meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        if meta["format_version"] != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported model format {meta['format_version']} (this "
                f"release reads {_FORMAT_VERSION}; the README's upgrade "
                f"notes convert a format-1 archive)")
        config = HyGNNConfig(**meta["config"])
        model = HyGNN(num_substructures=meta["num_substructures"],
                      config=config)
        state = {name[len("param:"):]: archive[name]
                 for name in archive.files if name.startswith("param:")}
        model.load_state_dict(state)
        model.eval()

        builder = DrugHypergraphBuilder(
            method=meta["builder"]["method"],
            parameter=meta["builder"]["parameter"])
        builder._vocab = {token: int(index)
                          for token, index in meta["vocab"].items()}
        if builder.method == "espf":
            from ..chem.espf import ESPF
            espf = ESPF(frequency_threshold=builder.parameter)
            espf.merges = [tuple(pair) for pair in meta["espf_merges"]]
            espf._fitted = True
            builder._espf = espf
        builder._fitted = True
    return model, builder
