"""In-memory span tracer for the traced benchmark run.

``Tracer.installed(fc)`` wraps the public function at each module boundary of
the package, in every ``fcone`` namespace that holds it (so a call through
``fcone.logfano.f_curve_value`` or ``fcone.cli.verify_witness`` is seen as
well as one through the defining module), and restores the originals on exit.
A span records its name, start, end, busy time, parent span and job id;
generator spans are busy only while the generator runs and count what they
yield. The per-call F-value kernel is too hot for one record per call, so it
is aggregated per parent span instead.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    job: int | None
    parent: int | None
    start: float
    end: float = 0.0
    busy: float = 0.0
    child: float = 0.0
    calls: int = 1
    counts: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.busy - self.child


def _count(key, value):
    return lambda span, args, kwargs, result, before: {key: value(args, kwargs, result)}


def _positivity(span, args, kwargs, result, before):
    witness = getattr(result, "witness", None)
    all_witnesses = bool(kwargs.get("all_witnesses"))
    return {
        "enumerated": before["enumerated_after"] - before["enumerated"],
        "early_exits": int(witness is not None and not all_witnesses),
        # (m, first violation or None when every F-curve had to be looked at)
        "scan": (args[0].m, None if witness is None or all_witnesses else str(witness)),
    }


def _feasibility(span, args, kwargs, result, before):
    return {
        "forms_in": len(result.forms),
        "infeasible": int(not result.feasible),
        "multipliers_nonzero": sum(1 for x in (result.multipliers or ()) if x),
    }


def _cli_main(span, args, kwargs, result, before):
    out = sys.stdout.getvalue() if hasattr(sys.stdout, "getvalue") else ""
    return {"bytes_out": len(out.encode()), "usage_errors": int(result == 3)}


# layer name -> (module, attribute, kind, count hook); kind is "call",
# "generator", "leaf" (aggregated per parent) or "method" (attribute of a class)
LAYERS = {
    "combinat.enumerate_four_partitions": ("fcone.combinat", "enumerate_four_partitions", "generator", None),
    "combinat.enumerate_shapes": ("fcone.combinat", "enumerate_shapes", "call", _count("shapes", lambda a, k, r: len(r))),
    "mcurves.f_positivity": ("fcone.mcurves", "f_positivity", "call", _positivity),
    "mcurves.f_curve_value": ("fcone.mcurves", "f_curve_value", "leaf", None),
    "kmaps.pullback_alpha": ("fcone.kmaps", "pullback_alpha", "call", None),
    "kmaps.pullback_beta": ("fcone.kmaps", "pullback_beta", "call", None),
    "kmaps.chs_ample": ("fcone.kmaps", "chs_ample", "call", None),
    "logfano.generate_constraints": ("fcone.logfano", "generate_constraints", "call", _count("forms", lambda a, k, r: len(r))),
    "logfano.solve_feasibility": ("fcone.logfano", "solve_feasibility", "call", _feasibility),
    "logfano.check": ("fcone.logfano", "FeasibilityResult.check", "method", _count("failed", lambda a, k, r: int(not r))),
    "logfano.verify_witness": ("fcone.logfano", "verify_witness", "call", None),
    "logfano.search_witness": ("fcone.logfano", "search_witness", "call", None),
    "cli.main": ("fcone.cli", "main", "call", _cli_main),
    "strata.phi_divisor_map": ("fcone.strata", "phi_divisor_map", "call", _count("pairs", lambda a, k, r: len(r.pairs))),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.leaves: dict[tuple[int | None, str], Span] = {}
        self.job: int | None = None
        self.yielded = 0  # partitions yielded so far, for per-scan ratios

    def _open(self, name: str, push: bool = True) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, self.job, parent, perf_counter())
        self.spans.append(span)
        if push:
            self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        span.busy = span.end - span.start
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += span.busy

    def _wrap_call(self, name, orig, hook):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            before = {"enumerated": tracer.yielded}
            span = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                before["enumerated_after"] = tracer.yielded
                span.counts.update(hook(span, args, kwargs, result, before))
            return result

        return wrapper

    def _wrap_leaf(self, name, orig):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                parent = tracer.stack[-1] if tracer.stack else None
                key = (parent.id if parent else None, name)
                agg = tracer.leaves.get(key)
                if agg is None:
                    agg = tracer.leaves[key] = Span(-1, name, tracer.job, key[0], t0, calls=0)
                agg.calls += 1
                agg.busy += dt
                agg.end = t0 + dt
                if parent is not None:
                    parent.child += dt

        return wrapper

    def _wrap_generator(self, name, orig):
        tracer = self

        def run(span, gen):
            try:
                while True:
                    tracer.stack.append(span)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        tracer.stack.pop()
                        span.busy += dt
                        if tracer.stack:
                            tracer.stack[-1].child += dt
                    span.counts["partitions"] = span.counts.get("partitions", 0) + 1
                    tracer.yielded += 1
                    yield item
            finally:
                gen.close()
                span.end = perf_counter()

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return run(tracer._open(name, push=False), orig(*args, **kwargs))

        return wrapper

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every layer in every namespace of ``modules`` (name -> module)."""
        restore = []
        try:
            for name, (mod_name, attr, kind, hook) in LAYERS.items():
                home = modules.get(mod_name)
                if home is None:
                    continue
                if kind == "method":
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name, None)
                    orig = getattr(cls, meth, None)
                    if orig is None:
                        continue
                    restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap_call(name, orig, hook))
                    continue
                orig = getattr(home, attr, None)
                if orig is None:
                    continue
                if kind == "generator":
                    wrapper = self._wrap_generator(name, orig)
                elif kind == "leaf":
                    wrapper = self._wrap_leaf(name, orig)
                else:
                    wrapper = self._wrap_call(name, orig, hook)
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            restore.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for target, key, orig in reversed(restore):
                setattr(target, key, orig)

    def records(self) -> list[Span]:
        return self.spans + list(self.leaves.values())


def as_row(s: Span, pass_index: int) -> dict:
    return {
        "pass": pass_index, "name": s.name, "id": s.id, "parent": s.parent,
        "job": s.job, "start": s.start, "end": s.end, "busy": s.busy,
        "self": s.self_time, "calls": s.calls, "counts": s.counts,
    }


# counts each layer reports besides calls and self time
LAYER_COUNTS = {
    "combinat.enumerate_four_partitions": ("partitions",),
    "combinat.enumerate_shapes": ("shapes",),
    "mcurves.f_positivity": ("early_exits",),
    "logfano.generate_constraints": ("forms",),
    "logfano.solve_feasibility": ("forms_in", "infeasible", "multipliers_nonzero"),
    "logfano.check": ("failed",),
    "cli.main": ("bytes_out", "usage_errors"),
    "strata.phi_divisor_map": ("pairs",),
}


def layer_totals(records: list[Span]) -> dict[str, dict]:
    """Per-layer calls, self time and summed counts over the given spans."""
    out = {name: {"calls": 0, "self_s": 0.0, "counts": {}, "spans": []} for name in LAYERS}
    for s in records:
        agg = out[s.name]
        agg["calls"] += s.calls
        agg["self_s"] += s.self_time
        agg["spans"].append(s)
        for k, v in s.counts.items():
            if isinstance(v, int):
                agg["counts"][k] = agg["counts"].get(k, 0) + v
    return out
