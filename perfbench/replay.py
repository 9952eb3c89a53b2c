"""Deadlines, work budgets, spans and the outside replay of find_kite.

Everything here calls the library's public functions only.  The replay
runs the same steps as ``constructor._pipeline`` in the same order, one
span per layer call, so the per-layer split is measured at the layer
boundaries without touching the library.  The caller compares the
replay's stage and kite with what ``find_kite`` returned.
"""

from __future__ import annotations

import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

from kitelink import (
    AssemblyFailed,
    Cycle,
    KiteSubdivision,
    NoSevenFan,
    Path,
    SearchBudget,
    StageFailure,
    apex_fan,
    build_flower,
    claim1_assembly,
    claim2_assembly,
    claim3_assembly,
    compute_landmarks,
    find_kite_exhaustive,
    resolve_flower,
    terminal_fan,
    two_linkage,
    verify_kite,
)
from kitelink.constructor import crossing_assembly

FIND_KITE = "constructor.find_kite"
# Assemblies that may decline (return None); their hit_frac is reported.
DECLINING = (
    "constructor.crossing_assembly",
    "constructor.claim2_assembly",
    "constructor.claim3_assembly",
)
STAGES = ("direct", "claim1", "crossing", "claim2", "claim3", "flower", "fallback")


class DeadlineMissed(Exception):
    """Raised inside a call that ran past its per-call deadline."""


def _on_alarm(signum, frame):
    raise DeadlineMissed()


def install_deadline_handler() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


@contextmanager
def deadline(seconds: float | None):
    """Interrupt the enclosed call with DeadlineMissed after `seconds`.

    The library is pure Python and keeps no state between calls, so the
    alarm may land anywhere in it; nothing outlives the interrupted call.
    """
    if seconds is None:
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class _OverBudget(BaseException):
    """Stops a counted call; BaseException, so no library handler takes it."""


def within_call_budget(budget: int, fn, *args) -> bool:
    """Whether fn(*args) returns after at most `budget` Python function calls.

    The count is exact and the library is deterministic, so the answer is
    the same on every run and every machine.  sys.setprofile slows the
    call about 3.7x; the call is stopped as soon as it is over budget.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
            if calls > budget:
                raise _OverBudget()

    sys.setprofile(count)
    try:
        fn(*args)
    except _OverBudget:
        return False
    finally:
        sys.setprofile(None)
    return True


@dataclass(frozen=True)
class Span:
    op: int  # spans of one replayed operation share this identifier
    layer: str
    parent: str | None  # the enclosing span's layer
    seconds: float
    timed_out: bool
    exact: bool  # recorded in the part of the run whose counts must repeat


class Tracer:
    """Spans kept in memory, one per call into a layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_seconds: list[float] = []  # wall time of each replayed operation
        self.declined: list[str] = []  # layers that returned None, exact part only
        self.exact = True
        self._stack: list[str] = []

    @contextmanager
    def op(self):
        """One replayed end-to-end operation; its spans share an op id."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.op_seconds.append(time.perf_counter() - start)

    def call(self, layer: str, fn, *args):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(layer)
        timed_out = False
        start = time.perf_counter()
        try:
            out = fn(*args)
        except DeadlineMissed:
            timed_out = True
            raise
        finally:
            seconds = time.perf_counter() - start
            self._stack.pop()
            op = len(self.op_seconds)
            self.spans.append(Span(op, layer, parent, seconds, timed_out, self.exact))
        if out is None and layer in DECLINING and self.exact:
            self.declined.append(layer)
        return out


def _direct_kite(g, roots):
    x1, x2, x3, x4 = roots.as_tuple()
    if g.has_edge(x1, x2) and g.has_edge(x2, x3) and g.has_edge(x3, x1) and g.has_edge(x2, x4):
        return KiteSubdivision.from_parts(Cycle((x1, x2, x3)), Path((x2, x4)))
    return None


def _pipeline(tr: Tracer, g, roots, flower_budget: int):
    tf = tr.call("fans.terminal_fan", terminal_fan, g, roots)
    if tf is None:
        raise NoSevenFan("no 7-fan from x2 splitting 3/3/1 over x1, x3, x4")
    af = tr.call("constructor.apex_fan", apex_fan, g, tf)
    link = tr.call(
        "linkage.two_linkage", two_linkage, g, roots.x1, roots.x3, roots.x2, roots.x4
    )
    if link is None:
        raise AssemblyFailed("no disjoint linkage for (x1-x3, x2-x4)")
    l = link.l
    if not (set(l.vertices) & set(af.p.vertices)):
        return "claim1", tr.call("constructor.claim1_assembly", claim1_assembly, g, tf, af.p, l)
    kite = tr.call("constructor.crossing_assembly", crossing_assembly, g, tf, af, l)
    if kite is not None:
        return "crossing", kite
    lm = tr.call("constructor.compute_landmarks", compute_landmarks, l, tf, af)
    kite = tr.call("constructor.claim2_assembly", claim2_assembly, g, tf, af, lm)
    if kite is not None:
        return "claim2", kite
    kite = tr.call("constructor.claim3_assembly", claim3_assembly, g, tf, af, lm)
    if kite is not None:
        return "claim3", kite
    flower = tr.call("constructor.build_flower", build_flower, g, tf, af, lm)
    return "flower", tr.call(
        "constructor.resolve_flower", resolve_flower, g, flower, flower_budget
    )


def _replay(tr: Tracer, g, roots, try_direct: bool, budget: int):
    if try_direct:
        kite = _direct_kite(g, roots)
        if kite is not None:
            return "direct", kite
    try:
        stage, kite = _pipeline(tr, g, roots, budget)
        if not tr.call("structures.verify_kite", verify_kite, g, roots, kite):
            raise AssemblyFailed("pipeline kite rejected")
        return stage, kite
    except StageFailure:
        pass
    kite = tr.call(
        "oracle.find_kite_exhaustive", find_kite_exhaustive, g, roots, SearchBudget(budget)
    )
    if kite is not None:
        tr.call("structures.verify_kite", verify_kite, g, roots, kite)
    return "fallback", kite


def replay_find_kite(tr: Tracer, g, roots, try_direct: bool, budget: int = 10_000_000):
    """(stage, kite) as find_kite would give them, with `crossing` kept
    apart from `claim1`; the whole replay is one constructor.find_kite span."""
    return tr.call(FIND_KITE, _replay, tr, g, roots, try_direct, budget)


def public_stage(stage: str) -> str:
    """The label find_kite reports: crossing_assembly kites say claim1."""
    return "claim1" if stage == "crossing" else stage
