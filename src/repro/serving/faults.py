"""Deterministic fault injection for the multi-host screening stack.

Fault tolerance is only trustworthy if every failure mode is *driven*, not
hoped for.  This module is the shared harness: a :class:`FaultPolicy` is a
list of :class:`FaultRule` entries keyed by ``(op, shard, attempt)`` that
decide — deterministically, from call order alone — when a request is
delayed, dropped, errored, or corrupted.  The policy plugs into the worker
end of the transport (:class:`~repro.serving.remote.ShardWorker` takes a
``fault_policy``), so every fault travels the wire the way a real one
does and reaches the client
(:class:`~repro.serving.remote.RemoteShardExecutor`) on its own path:

- ``delay`` sleeps before answering — past the client's ``timeout_s``, a
  timeout;
- ``drop`` severs the connection without a reply — an EOF;
- ``error`` returns a structured error response — a ``RemoteShardError``;
- ``corrupt`` flips bytes in the reply payload *after* the checksum was
  computed — exactly what a torn frame looks like on the wire, a
  ``FrameError``.

Determinism comes from *attempt counting*: the policy keeps one counter
per ``(op, shard)`` key, incremented on every :meth:`FaultPolicy.decide`
call, and a rule with ``attempt=n`` fires exactly when that counter reads
``n``.  Two runs issuing the same sequence of requests see the same
faults, which is what lets the tests assert **bitwise-identical** merged
top-k results under any fault schedule.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

FAULT_ACTIONS = ("delay", "drop", "error", "corrupt")


class CrashPoint(BaseException):
    """A simulated process death at a named point inside a store mutation.

    Deliberately a ``BaseException``: production code that catches
    ``Exception`` to degrade gracefully (the service detaching a failing
    store, a worker replying with a structured error) must *not* be able
    to swallow a simulated crash — a real ``kill -9`` cannot be caught
    either.  Chaos tests catch it explicitly, then re-open the store in a
    "fresh process" (a new :class:`~repro.serving.store.ShardStore`) and
    assert recovery lands on a committed catalog version.
    """

    @property
    def point(self) -> str:
        return self.args[0] if self.args else ""


class CrashPolicy:
    """Deterministic crash injection for the store's commit protocol.

    Every journal/segment/manifest write inside a
    :class:`~repro.serving.store.ShardStore` mutation is bracketed by a
    named *crash point* (``"append.journal"``, ``"append.file:..."``,
    ``"compact.precommit"``, ...).  A mutation with a ``CrashPolicy``
    attached calls :meth:`check` at each point; the policy raises
    :class:`CrashPoint` the first time the named point is reached —
    simulating the writer dying exactly there — and records every point
    it visits in :attr:`seen`, so a recorder pass (``CrashPolicy()``,
    no target) enumerates the complete crash surface of a mutation for
    an exhaustive sweep::

        recorder = CrashPolicy()
        store.crash_policy = recorder
        store.append(rows, proj)            # visits every point, no crash
        for point in recorder.seen:         # now kill a writer at each one
            ...

    Thread-safe, single-shot per policy instance (a crashed writer is
    dead; the test builds a new policy for the next victim).
    """

    def __init__(self, point: str | None = None):
        self.point = point
        self.seen: list[str] = []
        self.fired = False
        self._lock = threading.Lock()

    def check(self, name: str) -> None:
        """Record the visit; die here when this is the targeted point."""
        with self._lock:
            self.seen.append(name)
            if self.fired or self.point is None or name != self.point:
                return
            self.fired = True
        raise CrashPoint(name)


@dataclass(frozen=True)
class FaultRule:
    """One injectable fault: what to do, and exactly when to do it.

    ``shard``/``attempt``/``op`` are match filters; ``None`` matches
    anything.  ``attempt`` counts per ``(op, shard)`` key starting at 0 —
    "the first time shard 2 is screened", "the third retry", and so on.
    ``times`` bounds how often the rule fires (``None`` = every match),
    so a single-shot fault and a permanently black-holed shard are both
    one rule.
    """

    action: str                     # one of FAULT_ACTIONS
    shard: int | None = None        # None = any shard
    attempt: int | None = None      # None = every attempt
    op: str | None = None           # None = any operation
    delay_s: float = 0.0            # sleep length for "delay"
    times: int | None = 1           # firings before the rule retires

    def __post_init__(self):
        if self.action not in FAULT_ACTIONS:
            raise ValueError(f"action must be one of {FAULT_ACTIONS}, "
                             f"got {self.action!r}")
        if self.action == "delay" and self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 or None")

    def matches(self, op: str, shard: int | None, attempt: int) -> bool:
        return ((self.op is None or self.op == op)
                and (self.shard is None or self.shard == shard)
                and (self.attempt is None or self.attempt == attempt))


@dataclass
class _Firing:
    """One recorded fault firing, for test assertions."""

    op: str
    shard: int | None
    attempt: int
    action: str


class FaultPolicy:
    """Deterministic schedule of injected faults for shard workers.

    Thread-safe: the handler threads of every worker sharing the policy
    hit the same counters.  :attr:`fired` records every firing in decision
    order, so a test can assert not just the outcome but that the schedule
    it wrote actually executed.
    """

    def __init__(self, rules: list[FaultRule] | tuple[FaultRule, ...] = ()):
        self._rules: list[FaultRule] = list(rules)
        self._remaining: list[int | None] = [r.times for r in self._rules]
        self._counters: dict[tuple[str, int | None], int] = {}
        self._lock = threading.Lock()
        self.fired: list[_Firing] = []

    # ------------------------------------------------------------------
    @classmethod
    def single(cls, action: str, shard: int | None = None,
               attempt: int | None = 0, op: str | None = None,
               delay_s: float = 0.0, times: int | None = 1) -> "FaultPolicy":
        """One-rule policy — the common shape for fault-schedule sweeps."""
        return cls([FaultRule(action=action, shard=shard, attempt=attempt,
                              op=op, delay_s=delay_s, times=times)])

    # ------------------------------------------------------------------
    def decide(self, op: str, shard: int | None = None) -> FaultRule | None:
        """The fault (if any) to inject for this request, consuming a turn.

        Every call advances the ``(op, shard)`` attempt counter exactly
        once, whether or not a rule fires — attempt indices always mean
        "the n-th time this request shape was seen".
        """
        with self._lock:
            key = (op, shard)
            attempt = self._counters.get(key, 0)
            self._counters[key] = attempt + 1
            for index, rule in enumerate(self._rules):
                remaining = self._remaining[index]
                if remaining == 0:
                    continue
                if not rule.matches(op, shard, attempt):
                    continue
                if remaining is not None:
                    self._remaining[index] = remaining - 1
                self.fired.append(_Firing(op=op, shard=shard,
                                          attempt=attempt,
                                          action=rule.action))
                return rule
            return None

    def attempts(self, op: str, shard: int | None = None) -> int:
        """How many times ``(op, shard)`` has been decided so far."""
        with self._lock:
            return self._counters.get((op, shard), 0)

    def reset(self) -> None:
        """Rewind counters, rule budgets, and the firing log."""
        with self._lock:
            self._counters.clear()
            self._remaining = [r.times for r in self._rules]
            self.fired = []


def corrupt_payload(payload: bytes | bytearray) -> bytes:
    """Flip bytes so any checksum over ``payload`` fails (empty stays empty).

    Used by the worker's ``corrupt`` action and by store-corruption tests;
    XOR keeps the length identical, so the damage is invisible to framing
    and only an integrity check can catch it — the failure mode a torn
    page or a bad NIC actually produces.
    """
    if not payload:
        return bytes(payload)
    damaged = bytearray(payload)
    for offset in range(0, min(len(damaged), 16)):
        damaged[offset] ^= 0xFF
    return bytes(damaged)
