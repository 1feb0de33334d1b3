"""Span tracer for the benchmark's traced runs.

Spans are recorded by wrappers placed, from outside the package, at every
attribute through which the package's callers resolve a public function:
``geomphase.evolve`` as well as ``fock.evolve``, because geomphase imported
the name. A span is ``[id, parent_id, name, start, end, attrs]``; the
parent is the innermost open span of the same thread, or the benchmark's
root span for work started on a worker thread. Spans stay in memory and
are handed to the parent process when the child exits.

Self time of a span is its duration minus the part of it that its child
spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import statistics
import sys
import threading
import time

# (span name, module holding the definition, attribute path, describe).
# describe(args, kwargs, result) returns the attrs kept on the span.
TARGETS = (
    ("geomphase.reconcile", "geomphase", "method_reconciliation", None),
    ("fock.invariant", "geomphase", "PhaseScenario.fock_invariant",
     lambda a, k, r: {"evolved": a[0].is_evolved}),
    ("fock.evolve", "fock", "evolve", None),
    ("fock.triple_product_trace", "fock", "triple_product_trace", None),
    ("fock.polarizer_unitary", "fock", "polarizer_unitary",
     lambda a, k, r: {"key": [float(a[0]), a[1].n_max]}),
    ("fock.single_mode_displacement", "fock", "single_mode_displacement",
     lambda a, k, r: {"key": [complex(a[0]).real, complex(a[0]).imag, a[1]]}),
    ("geomphase.pairing", "geomphase", "PhaseScenario.pairing_invariant",
     lambda a, k, r: {"occ": "".join(map(str, a[0].occupation)), "evolved": a[0].is_evolved}),
    ("geomphase.printed", "geomphase", "PhaseScenario.printed_invariant", None),
    ("coherent.closed_form", "coherent", "bargmann_triple_coherent", None),
    ("pdistribution.mehta_p_function", "pdistribution", "mehta_p_function",
     lambda a, k, r: {"terms": len(r.terms)}),
    ("io.sweep_row", "io", "sweep_row", None),
    ("io.write_sweep_csv", "io", "write_sweep_csv", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """A span opened by the benchmark itself; the first one is the root."""
        sid, parent, stack = self._open()
        is_root = self._root is None
        if is_root:
            self._root = sid
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            if is_root:
                self._root = None
            self.spans.append([sid, parent, name, start, end, attrs])

    def wrap(self, name: str, fn, describe=None):
        # A call that raises leaves no span; the benchmark counts its row
        # as a failed operation.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, stack = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = describe(args, kwargs, result) if describe is not None else None
            self.spans.append([sid, parent, name, start, end, attrs])
            return result

        return traced

    def install(self, package):
        """Wrap every target at each attribute of a loaded package module that resolves to it."""
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is package or name.startswith(prefix)]
        for name, home, path, describe in TARGETS:
            owner = getattr(package, home, None)
            *cls, attr = path.split(".")
            if owner is not None and cls:
                owner = getattr(owner, cls[0], None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, describe)
            owners = [owner] if cls else [m for m in modules if getattr(m, attr, None) is original]
            for where in owners:
                setattr(where, attr, wrapper)
                self._restore.append((where, attr, original))

    def uninstall(self):
        for where, attr, original in reversed(self._restore):
            setattr(where, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one or more child processes


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _p50_ms(durations) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def layer_metrics(children: list, absent: list) -> dict:
    """Per-layer metrics over the span lists of several child processes.

    Caches live per process, so reuse ratios and computed bytes are
    counted per child and then summed. A metric whose function does not
    exist in the package is left out; one whose function exists but was
    never called reads 0.
    """
    by_name: dict = {}
    for spans in children:
        for span in spans:
            by_name.setdefault(span[2], []).append(span)

    def busy(name):
        return sum(s[4] - s[3] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def reuse(name):
        distinct = sum(
            len({tuple(s[5]["key"]) for s in spans if s[2] == name}) for spans in children
        )
        n = calls(name)
        return 1.0 - distinct / n if n else 0.0

    def durations(name, keep=lambda attrs: True):
        return [s[4] - s[3] for s in by_name.get(name, ()) if keep(s[5])]

    out = {}

    def put(metric, span_name, unit, value):
        if span_name not in absent:
            out[metric] = {"value": value, "unit": unit}

    inv = "fock.invariant"
    put("fock.invariant.evolved.ms_p50", inv, "ms", _p50_ms(durations(inv, lambda a: a["evolved"])))
    put("fock.invariant.independent.ms_p50", inv, "ms",
        _p50_ms(durations(inv, lambda a: not a["evolved"])))
    put("fock.invariant.busy_s", inv, "s", busy(inv))
    put("fock.evolve.busy_s", "fock.evolve", "s", busy("fock.evolve"))
    put("fock.evolve.calls", "fock.evolve", "count", calls("fock.evolve"))
    put("fock.triple_product_trace.busy_s", "fock.triple_product_trace", "s",
        busy("fock.triple_product_trace"))

    pol = "fock.polarizer_unitary"
    firsts = [min(s[3:5] for s in spans if s[2] == pol) for spans in children
              if any(s[2] == pol for s in spans)]
    computed = 0
    for spans in children:
        for theta, n_max in {tuple(s[5]["key"]) for s in spans if s[2] == pol}:
            computed += 16 * (n_max + 1) ** 4
    put(f"{pol}.busy_s", pol, "s", busy(pol))
    put(f"{pol}.calls", pol, "count", calls(pol))
    put(f"{pol}.reuse_ratio", pol, "ratio", reuse(pol))
    put(f"{pol}.first_call_ms", pol, "ms",
        statistics.median((end - start) * 1e3 for start, end in firsts) if firsts else 0.0)
    put(f"{pol}.cache_bytes_computed", pol, "B", computed)

    disp = "fock.single_mode_displacement"
    put(f"{disp}.busy_s", disp, "s", busy(disp))
    put(f"{disp}.calls", disp, "count", calls(disp))
    put(f"{disp}.reuse_ratio", disp, "ratio", reuse(disp))

    pairing = "geomphase.pairing"
    for label, occs in (("occ00", ("00",)), ("occ10", ("10", "01")), ("occ11", ("11",))):
        put(f"{pairing}.{label}.ms_p50", pairing, "ms",
            _p50_ms(durations(pairing, lambda a, occs=occs: a["occ"] in occs)))
    put(f"{pairing}.busy_s", pairing, "s", busy(pairing))
    put(f"{pairing}.term_triples", pairing, "count", _term_triples(children))
    put("geomphase.printed.busy_s", "geomphase.printed", "s", busy("geomphase.printed"))
    put("geomphase.reconcile.self_s", "geomphase.reconcile", "s", _self_time(children, "geomphase.reconcile"))
    put("coherent.closed_form.busy_s", "coherent.closed_form", "s", busy("coherent.closed_form"))
    mehta = "pdistribution.mehta_p_function"
    put(f"{mehta}.busy_s", mehta, "s", busy(mehta))
    put(f"{mehta}.calls", mehta, "count", calls(mehta))
    put("io.sweep_row.busy_s", "io.sweep_row", "s", busy("io.sweep_row"))
    put("io.write_sweep_csv.busy_s", "io.write_sweep_csv", "s", busy("io.write_sweep_csv"))
    sweeps = by_name.get("cli.sweep", ())
    put("cli.sweep.wall_s", "cli.sweep", "s", busy("cli.sweep"))
    put("cli.sweep.cpu_s", "cli.sweep", "s", sum(s[5]["cpu_s"] for s in sweeps))
    return out


def _children_of(spans) -> dict:
    kids: dict = {}
    for span in spans:
        kids.setdefault(span[1], []).append(span)
    return kids


def _self_time(children, name) -> float:
    total = 0.0
    for spans in children:
        kids = _children_of(spans)
        for span in spans:
            if span[2] == name:
                inner = [(max(k[3], span[3]), min(k[4], span[4])) for k in kids.get(span[0], ())]
                total += (span[4] - span[3]) - _covered(inner)
    return total


def _term_triples(children) -> int:
    """Sum over pairing calls of the product of the three P objects' term counts.

    A polarizer chain builds one P object and reuses it in all three slots.
    """
    total = 0
    for spans in children:
        kids = _children_of(spans)
        for span in spans:
            if span[2] != "geomphase.pairing":
                continue
            counts = [k[5]["terms"] for k in kids.get(span[0], ())
                      if k[2] == "pdistribution.mehta_p_function"]
            if span[5]["evolved"]:
                counts = counts * 3
            product = 1
            for c in counts:
                product *= c
            total += product
    return total
