"""Layer tracing for the benchmark's traced run (``--trace 1``).

The program has no stage timers of its own, so layers are timed from
outside: `Tracer.install` replaces public functions with timing wrappers at
the names their callers look them up.  `sampler` binds ``u01``, ``mix``,
``u01_from_word``, ``u01_array``, ``decrement_cycle_values`` and
``solve_tuning`` with ``from ... import`` at import time, and `building`
binds ``poly_remainder`` and ``interval_enclosure`` the same way, so those
are patched on the importing module, not on `streams`, `perm` or `tpoly`.

Two kinds of record are kept, both in memory:

* spans, for calls at pipeline or check level: name, start, end, the span
  that caused it and the operation it belongs to;
* aggregates, for calls made once per site, block or word: a count, a total
  time and optional work units per (caller, callee) pair.

Each traced call credits its duration to the traced call that encloses it,
so a span's self time is its duration minus the time of its direct traced
children.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

_clock = time.perf_counter


@dataclasses.dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    child: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class _Frame:
    """Stack entry of an aggregated call; collects its children's time."""

    __slots__ = ("name", "child")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0


class Tracer:
    """Spans and aggregates of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span | _Frame] = []
        self.op = 0
        # (caller, callee) -> [calls, seconds, work units]
        self.agg: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0])
        # Work counts the caller reads off outputs.
        self.counts: dict[str, int] = defaultdict(int)
        # (owner, attribute, original) of every installed wrapper
        self.patched: list[tuple] = []

    def reset(self) -> None:
        """Forget every record; installed wrappers keep recording."""
        self.spans.clear()
        self.stack.clear()
        self.agg.clear()
        self.counts.clear()
        self.op = 0

    # -- recording ---------------------------------------------------------

    def new_op(self) -> None:
        """Start a new operation; later top-level spans share its id."""
        self.op += 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span called `name`."""
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), getattr(parent, "sid", None), self.op,
                    name, _clock())
        self.spans.append(span)
        self.stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = _clock()
            self.stack.pop()
            if parent is not None:
                parent.child += span.duration

    def _aggregate(self, name: str, fn: Callable, work: Callable | None):
        stack = self.stack
        agg = self.agg

        def wrapper(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = _Frame(name)
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                if caller is not None:
                    caller.child += dt
                rec = agg[(caller.name if caller else "-", name)]
                rec[0] += 1
                rec[1] += dt
                if work is not None:
                    rec[2] += work(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, name: str, *, aggregate: bool = False,
              work: Callable | None = None) -> None:
        fn = getattr(owner, attr)
        self.patched.append((owner, attr, fn))
        if aggregate:
            wrapper = self._aggregate(name, fn, work)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        setattr(owner, attr, wrapper)

    def install(self, mc) -> None:
        """Wrap the layer functions of the loaded program `mc`; the CLI's
        list of exact checks is wrapped too, so each check gets a span."""
        sampler = mc.sampler
        for attr in ("u01", "mix", "u01_from_word"):
            self.patch(sampler, attr, f"streams.{attr}", aggregate=True)
        self.patch(sampler, "u01_array", "streams.u01_array", aggregate=True,
                   work=lambda seed, words, stream: len(words))
        self.patch(sampler, "decrement_cycle_values", "perm.decrement",
                   aggregate=True, work=_decrement_work)
        self.patch(sampler.ColoringSample, "__post_init__", "sampler.validate",
                   aggregate=True)
        for owner in (sampler, mc.tpoly):
            self.patch(owner, "solve_tuning", "tpoly.solve_tuning")
        for owner in (mc.building, mc.tpoly):
            self.patch(owner, "poly_remainder", "tpoly.poly_remainder",
                       aggregate=True)
        self.patch(mc.building, "interval_enclosure", "tpoly.interval_enclosure",
                   aggregate=True)
        self.patch(mc.building, "building_number", "building.number",
                   aggregate=True)
        self.patch(mc.building, "building_number_brute", "building.brute",
                   aggregate=True)
        for attr in ("k_dependence_defect", "z_closed_form_defect"):
            self.patch(mc.building, attr, "building.defect", aggregate=True)
        self.patch(mc.building, "defect_vanishes", "building.certify",
                   aggregate=True)
        self.patch(mc.building.CylinderProb, "equals_fraction",
                   "building.certify", aggregate=True)
        self.patch(mc.dist, "dominance_check", "dist.dominance_check")
        self.patch(mc.perm, "color_count", "perm.color_count", aggregate=True)
        checks = mc.cli._exact_checks
        self.patched.append((mc.cli, "_exact_checks", checks))

        def traced_checks(level):
            for name, fn in checks(level):
                yield name, (lambda fn=fn, name=name:
                             self.call(f"cli.check.{name}", fn))

        mc.cli._exact_checks = traced_checks

    def uninstall(self) -> None:
        """Put back every function `install` wrapped."""
        while self.patched:
            owner, attr, fn = self.patched.pop()
            setattr(owner, attr, fn)

    # -- reading -----------------------------------------------------------

    def calls(self, callee: str) -> int:
        """Number of calls to `callee`, spans and aggregates together."""
        agg = sum(r[0] for (_, c), r in self.agg.items() if c == callee)
        return agg + sum(1 for s in self.spans if s.name == callee)

    def seconds(self, callee: str) -> float:
        """Total time in calls to `callee`, spans and aggregates together."""
        agg = sum(r[1] for (_, c), r in self.agg.items() if c == callee)
        return agg + sum(s.duration for s in self.spans if s.name == callee)

    def work(self, callee: str) -> int:
        return sum(r[2] for (_, c), r in self.agg.items() if c == callee)

    def self_seconds(self, prefix: str) -> float:
        return sum(s.self_time for s in self.spans if s.name.startswith(prefix))

    def write(self, path: Path) -> None:
        """Spans and aggregates as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"span": s.name, "id": s.sid,
                                     "parent": s.parent, "op": s.op,
                                     "start": s.start, "end": s.end,
                                     "self": s.self_time}) + "\n")
            for (caller, callee), (n, secs, work) in sorted(self.agg.items()):
                fh.write(json.dumps({"caller": caller, "callee": callee,
                                     "calls": n, "seconds": secs,
                                     "work": work}) + "\n")


def _decrement_work(entries, start, kind="lehmer") -> int:
    """Block length squared: decrement_cycle_values is quadratic in it."""
    return len(entries) ** 2
