"""Compiled, replayable autograd graphs.

HyGNN's hypergraph topology is *fixed* across training: every epoch runs the
identical op sequence over the identical incidence arrays — only the
parameter values change.  The closure-based eager engine nevertheless pays
per epoch for re-tracing (fresh ``Tensor`` objects and closures), a fresh
topological sort, and — dominating on large graphs — re-allocating every
intermediate activation and every gradient buffer from scratch.

:class:`Tape` removes all of that.  ``Tape.record(fn)`` runs ``fn`` once
eagerly while capturing, in execution order, every differentiable node it
creates: output tensor, parent tensors, the op's module-level forward
function, and its mutable ``ctx`` (static metadata such as segment ids plus
saved activations).  Because ops follow the registry contract of
:func:`repro.nn.tensor.apply_op` — forward/backward read *current* values at
call time — the captured graph can then be re-executed at will:

- :meth:`Tape.forward` re-runs the forward functions over the recorded
  nodes, writing results into each node's existing output buffer in place
  (stochastic ops such as dropout resample from their generator exactly as
  the eager loop would);
- :meth:`Tape.backward` seeds the root gradient and runs the recorded
  backward functions in the same topological order :meth:`Tensor.backward`
  uses.  A tensor's first gradient is written, never added into zeros:
  only the few tensors that two or more gradient edges reach keep a
  persistent buffer to sum into, and every other tensor's ``.grad`` is the
  array its one consumer returned (often that op's reused scratch);
- :meth:`Tape.replay` does both.

Replay is arithmetically *identical* to the eager loop — same functions,
same operand values, same accumulation order — so loss trajectories and
final weights match the closure path bitwise.  It is merely faster: no
tracing, no sorting, and no allocation, zero-fill or copy churn in the hot
loop.  New leaf values flow in either implicitly (optimizers update
parameter tensors in place) or explicitly via ``replay(new_leaf_values)``.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .tensor import Tensor, _TAPE_STACK, _as_array, topological_order


class TapeNode:
    """One recorded op application: output, parents, op functions, ctx."""

    __slots__ = ("out", "parents", "forward_fn", "backward_fn", "ctx",
                 "buffer")

    def __init__(self, out: Tensor, parents: Sequence[Tensor],
                 forward_fn: Callable, backward_fn: Callable, ctx: dict):
        self.out = out
        self.parents = parents
        self.forward_fn = forward_fn
        self.backward_fn = backward_fn
        self.ctx = ctx
        # The node's output array doubles as the replay destination buffer
        # whenever it owns its memory; view-producing ops (reshape,
        # transpose) rebuild their cheap views on every replay instead.
        # Transient ops (the recompute-in-backward checkpoint) opt out: a
        # pinned buffer would defeat the memory they exist to release.
        data = out.data
        if ctx.get("tape_transient"):
            self.buffer = None
        else:
            self.buffer = (data if data.base is None and data.flags.owndata
                           else None)


class Tape:
    """A recorded op graph that replays forward+backward without re-tracing."""

    def __init__(self):
        self.root: Tensor | None = None
        self.nodes: list[TapeNode] = []
        self.leaves: list[Tensor] = []
        self._order: list[Tensor] = []
        self._steps: list[TapeNode] = []
        self._grad_tensors: list[Tensor] = []
        self._meeting: set[int] = set()
        self._buffers: dict[int, np.ndarray] = {}
        self._transient_ids: set[int] = set()
        self._leaf_consumers: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @classmethod
    def record(cls, fn: Callable[[], Tensor]) -> "Tape":
        """Run ``fn`` once eagerly, capturing its op graph.

        ``fn`` must return the root :class:`Tensor` (typically a scalar
        loss, or an embedding matrix for encoder-only tapes) and must
        require grad — a constant graph has nothing to replay.  Recording
        does not nest.
        """
        if _TAPE_STACK:
            raise RuntimeError("Tape.record calls cannot be nested")
        tape = cls()
        _TAPE_STACK.append(tape)
        try:
            root = fn()
        finally:
            _TAPE_STACK.pop()
        if not isinstance(root, Tensor):
            raise TypeError(f"record() expects fn to return a Tensor, "
                            f"got {type(root).__name__}")
        if not root.requires_grad:
            raise ValueError("record() root does not require grad; "
                             "there is no graph to replay")
        tape._finalize(root)
        return tape

    def _note(self, out: Tensor, parents: Sequence[Tensor],
              forward_fn: Callable, backward_fn: Callable,
              ctx: dict) -> None:
        """Called by ``apply_op`` for every differentiable node created."""
        self.nodes.append(TapeNode(out, parents, forward_fn, backward_fn,
                                   ctx))

    def _finalize(self, root: Tensor) -> None:
        self.root = root
        self._order = topological_order(root)
        recorded = {id(node.out) for node in self.nodes}
        for tensor in self._order:
            if tensor._backward is not None and id(tensor) not in recorded:
                raise RuntimeError(
                    f"graph contains an op ({tensor.op or 'custom'}) that "
                    f"was not routed through apply_op; it cannot be replayed")
        self.leaves = [t for t in self._order
                       if not t._parents and t.requires_grad]
        self._grad_tensors = [t for t in self._order if t.requires_grad]
        # The backward pass runs the recorded nodes of the root's graph in
        # reverse topological order.  Counting the gradient edges they (and
        # the seed) send to each tensor tells where gradients meet: an op
        # that takes the same tensor twice sends it two edges.
        nodes = {id(node.out): node for node in self.nodes}
        self._steps = [nodes[id(t)] for t in reversed(self._order)
                       if id(t) in nodes]
        edges = {id(root): 1}
        for node in self._steps:
            for parent in node.parents:
                if parent.requires_grad:
                    edges[id(parent)] = edges.get(id(parent), 0) + 1
        self._meeting = {key for key, count in edges.items() if count > 1}
        # Transient outputs (recompute-in-backward checkpoints) have no
        # persistent activation or gradient storage: replay frees both as
        # soon as the backward pass is done with them.
        self._transient_ids = {id(node.out) for node in self.nodes
                               if node.ctx.get("tape_transient")}
        # Remember which op first consumes each leaf so shape errors on
        # rebinding can name the kernel that would have received the value.
        self._leaf_consumers = {}
        for node in self.nodes:
            for parent in node.parents:
                self._leaf_consumers.setdefault(id(parent), node.out.op)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_ops(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        root = "unset" if self.root is None else (self.root.op or "leaf")
        return (f"Tape(ops={self.num_ops}, leaves={len(self.leaves)}, "
                f"root={root})")

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _bind_leaves(self, leaf_values: Mapping[Tensor, np.ndarray]) -> None:
        known = {id(t) for t in self.leaves}
        for tensor, value in leaf_values.items():
            if id(tensor) not in known:
                raise KeyError(f"{tensor!r} is not a leaf of this tape")
            value = _as_array(value)
            if value.shape != tensor.data.shape:
                consumer = self._leaf_consumers.get(id(tensor), "<root>")
                raise ValueError(
                    f"leaf value shape {value.shape} != recorded shape "
                    f"{tensor.data.shape} for the leaf feeding op "
                    f"{consumer!r}; tape topology is static")
            tensor.data = value

    def forward(self, leaf_values: Mapping[Tensor, np.ndarray] | None = None
                ) -> Tensor:
        """Re-execute the recorded forward pass; returns the root tensor.

        ``leaf_values`` optionally rebinds leaf tensors (shape-checked —
        the recorded topology is static) before re-execution.  Parameter
        updates applied in place by an optimizer are picked up
        automatically, since forward functions read ``parent.data`` at call
        time.
        """
        if leaf_values:
            self._bind_leaves(leaf_values)
        for node in self.nodes:
            datas = [p.data for p in node.parents]
            if node.buffer is not None:
                node.out.data = node.forward_fn(node.ctx, *datas,
                                                out=node.buffer)
            else:
                node.out.data = node.forward_fn(node.ctx, *datas)
        return self.root

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run the recorded backward pass from the root.

        Afterwards ``tensor.grad`` holds exactly what the eager
        ``root.backward(grad)`` would have produced, bit for bit, for every
        tensor of the graph; one that no gradient reaches holds zeros, and
        a checkpoint output, which the pass releases, holds ``None``.
        A tensor's first gradient is written, not added into zeros.  Only
        the tensors that two or more gradient edges reach keep a buffer,
        allocated once, that later edges add into; every other tensor's
        ``.grad`` is the array its one consumer returned — that op's
        reused scratch, a view of its own gradient, or ``grad`` itself for
        the root.  Treat these arrays as read-only: they stay valid until
        the next ``backward()``, which writes them again.  ``grad`` is
        never written into.
        """
        root = self.root
        if grad is None:
            if root.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    "scalar root")
            grad = np.ones_like(root.data)
        else:
            grad = _as_array(grad)
            if grad.shape != root.data.shape:
                raise ValueError(f"gradient shape {grad.shape} != root "
                                 f"shape {root.data.shape}")
        for tensor in self._grad_tensors:
            tensor.grad = None
        self._receive(root, grad)
        transient_ids = self._transient_ids
        for node in self._steps:
            out = node.out
            if out.grad is None:
                continue
            grads = node.backward_fn(node.ctx, out, *node.parents)
            for parent, parent_grad in zip(node.parents, grads):
                if parent_grad is not None:
                    self._receive(parent, parent_grad)
            if id(out) in transient_ids:
                # Nothing upstream reads a transient activation or its
                # gradient once its backward has run (the checkpoint op
                # restored its parents' data itself); release both so
                # peak memory stays O(1) in the chain length.
                out.grad = None
                out.data = np.empty(0, dtype=out.data.dtype)
        for tensor in self._grad_tensors:
            if tensor.grad is None and id(tensor) not in transient_ids:
                tensor.grad = np.zeros_like(tensor.data)

    def _receive(self, tensor: Tensor, grad: np.ndarray) -> None:
        """Deliver one gradient edge to ``tensor``.

        The buffers are this tape's own: a checkpoint's nested eager
        backward, which runs inside this pass, never sees them and
        accumulates into fresh arrays of its own.
        """
        if not tensor.requires_grad:
            return
        if tensor.grad is not None:
            tensor.grad += grad       # a later edge of a meeting tensor
            return
        key = id(tensor)
        if key not in self._meeting:
            tensor.grad = grad
            return
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty_like(tensor.data)
            # A transient's buffer would pin the memory its checkpoint
            # releases; it gets a fresh one on every pass instead.
            if key not in self._transient_ids:
                self._buffers[key] = buf
        np.copyto(buf, grad)
        tensor.grad = buf

    def replay(self, leaf_values: Mapping[Tensor, np.ndarray] | None = None,
               grad: np.ndarray | None = None) -> Tensor:
        """Forward + backward in one call; returns the root tensor."""
        self.forward(leaf_values)
        self.backward(grad)
        return self.root
