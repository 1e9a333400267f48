"""Per-layer spans around wmrline's public functions, recorded from outside.

``Tracer.install`` replaces each traced function in every wmrline module
that holds it (``wmr`` imports ``irreducible_components`` by name, for
example), so nested calls are seen wherever they are looked up. Spans stay
in memory and are reduced to per-layer metrics at the end of the run.
A span's self time is its duration minus that of the traced spans it
directly contains.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (module, function) -> span name
TRACED = {
    ("measures", "convex_order_leq"): "order",
    ("measures", "irreducible_components"): "irreducible",
    ("measures", "potential_at"): "potential",
    ("qp", "solve_qp"): "qp",
    ("wmr", "solve_weak_transport"): "solve",
    ("wmr", "transport_polyhedron"): "polyhedron",
    ("wmr", "verify_admissible"): "verify",
    ("wmr", "verify_slope1_characterization"): "verify",
    ("martingale", "build_martingale_coupling"): "build",
    ("martingale", "compose_with_map"): "compose",
    ("martingale", "optimality_certificate"): "certificate",
    ("martingale", "decompose_martingale"): "decompose",
    ("reverse", "reverse_optimizer"): "reverse",
    ("stability", "run_stability_experiment"): "stability",
}

CLI_SUBCOMMANDS = (
    "potential",
    "check-order",
    "irreducible",
    "wmr",
    "value",
    "reverse",
    "compose",
    "plot",
    "stability",
)

# per-layer metric -> unit, in the order they are reported
UNITS = {
    "measures.order_calls": "count",
    "measures.order_s": "s",
    "measures.irreducible_s": "s",
    "measures.components": "count",
    "measures.potential_s": "s",
    "qp.calls": "count",
    "qp.busy_s": "s",
    "qp.iterations": "count",
    "wmr.solves": "count",
    "wmr.identity_solves": "count",
    "wmr.solve_self_s": "s",
    "wmr.polyhedron_s": "s",
    "wmr.verify_s": "s",
    "martingale.build_s": "s",
    "martingale.entries": "count",
    "martingale.compose_s": "s",
    "martingale.certificate_self_s": "s",
    "martingale.decompose_self_s": "s",
    "reverse.calls": "count",
    "reverse.failed": "count",
    "reverse.self_s": "s",
    "stability.rungs": "count",
    "stability.self_s": "s",
    "cli.import_ms": "ms",
    **{f"cli.{sub}_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "bench.check_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    op: int  # index of the operation that caused it
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    child_s: float = 0.0
    failed: bool = False
    count: int = 0  # iterations, components, entries or rungs returned
    nested_qp: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _count(name, result) -> int:
    if name == "qp":
        return int(result.iterations)
    if name == "irreducible":
        return len(result)
    if name == "build":
        return int(result.mass.size)
    if name == "stability":
        return len(result.rungs)
    return 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    op: int = 0
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def install(self) -> None:
        import wmrline

        mods = [m for k, m in sys.modules.items() if k == "wmrline" or k.startswith("wmrline.")]
        for (mod, fn), name in TRACED.items():
            orig = getattr(getattr(wmrline, mod), fn)
            wrapper = self._wrap(name, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(self.op, name, time.perf_counter(), parent=parent)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span.count = _count(name, result)
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                    parent.nested_qp |= name == "qp" or span.nested_qp
                self.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self) -> dict:
        """Totals over all recorded spans, keyed by per-layer metric name."""
        m = dict.fromkeys(UNITS, 0.0)

        def outermost(span):
            p = span.parent
            while p is not None:
                if p.name == span.name:
                    return False
                p = p.parent
            return True

        for s in self.spans:
            top = outermost(s)
            if s.name == "order":
                m["measures.order_calls"] += 1
                m["measures.order_s"] += s.duration if top else 0.0
            elif s.name == "irreducible":
                m["measures.irreducible_s"] += s.duration if top else 0.0
                m["measures.components"] += s.count
            elif s.name == "potential":
                m["measures.potential_s"] += s.duration if top else 0.0
            elif s.name == "qp":
                m["qp.calls"] += 1
                m["qp.busy_s"] += s.duration
                m["qp.iterations"] += s.count
            elif s.name == "solve":
                m["wmr.solves"] += 1
                m["wmr.identity_solves"] += 0 if (s.nested_qp or s.failed) else 1
                m["wmr.solve_self_s"] += s.self_s
            elif s.name == "polyhedron":
                m["wmr.polyhedron_s"] += s.duration
            elif s.name == "verify":
                m["wmr.verify_s"] += s.duration if top else 0.0
            elif s.name == "build":
                m["martingale.build_s"] += s.duration
                m["martingale.entries"] += s.count
            elif s.name == "compose":
                m["martingale.compose_s"] += s.duration
            elif s.name == "certificate":
                m["martingale.certificate_self_s"] += s.self_s
            elif s.name == "decompose":
                m["martingale.decompose_self_s"] += s.self_s
            elif s.name == "reverse":
                m["reverse.calls"] += 1
                m["reverse.failed"] += 1 if s.failed else 0
                m["reverse.self_s"] += s.self_s
            elif s.name == "stability":
                m["stability.rungs"] += s.count
                m["stability.self_s"] += s.self_s
        return m
