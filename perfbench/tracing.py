"""Spans and counters recorded around the library's public entry points.

The benchmark wraps module attributes from the outside; the library is not
changed.  Each wrapped call records one span (name, start, end, parent
span, unit id) in memory and bumps named counters.  Span names are
"<module>.<function>" for the module that defines the function, whatever
module the call went through: cdvcore imports rank, kernel_basis and
inertia_symmetric by name, so those are wrapped in both places.

A public name missing from the library is reported as absent rather than
failing the run, so the benchmark keeps working when a later change
removes or renames an entry point.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # [span id, name, start, end, parent span id, unit id]
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.unit = None
        self.absent: list = []
        self._undo: list = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, name, self.clock(), None, parent, self.unit])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = self.clock()
        self.stack.pop()

    def note_max(self, key: str, value) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def wrap(self, fn, name: str, before=None, after=None):
        """Span-recording stand-in for fn.  `before(tracer, args, kwargs)`
        may edit kwargs and returns state handed to
        `after(tracer, args, kwargs, result, state)`."""
        calls = name + ".calls"

        # Observers run in their own spans, so their cost lands in
        # BOOKKEEPING instead of the caller's self time.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[calls] += 1
            state = None
            if before:
                sid = self.begin(BOOKKEEPING)
                state = before(self, args, kwargs)
                self.end(sid)
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after:
                sid = self.begin(BOOKKEEPING)
                after(self, args, kwargs, result, state)
                self.end(sid)
            return result

        return traced

    def install(self, package: str = "cdvcert") -> None:
        """Wrap every entry point in HOOKS with a span and a call counter."""
        wrapped: dict = {}
        for hook in HOOKS:
            module = importlib.import_module(f"{package}.{hook.module}")
            original = _resolve(module, hook.attribute)
            if original is None:
                self.absent.append(hook.name)
                continue
            for alias in (hook.module,) + hook.aliases:
                target_module = importlib.import_module(f"{package}.{alias}")
                current = _resolve(target_module, hook.attribute)
                if current is None:
                    continue
                if id(current) not in wrapped:
                    before = hook.make_before(current) if hook.make_before else None
                    wrapped[id(current)] = self.wrap(
                        current, hook.name, before, hook.after
                    )
                self._patch(target_module, hook.attribute, wrapped[id(current)])

    def count_constructors(self, package: str = "cdvcert") -> None:
        """Count QuadScalar and stdlib Fraction constructions.  This costs
        about as much as the arithmetic itself, so it runs apart from the
        spans, whose self times it would otherwise inflate."""
        exactfield = importlib.import_module(f"{package}.exactfield")
        self._count_calls(
            exactfield.QuadScalar, "__init__", "exactfield.quadscalar.constructed"
        )
        self._count_calls(
            fractions.Fraction, "__new__", "exactfield.fraction.constructed"
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, previous = self._undo.pop()
            setattr(owner, attribute, previous)

    def _patch(self, module, attribute: str, value) -> None:
        owner = module
        *path, last = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        self._undo.append((owner, last, owner.__dict__[last]))
        setattr(owner, last, value)

    def _count_calls(self, cls, attribute: str, key: str) -> None:
        raw = cls.__dict__.get(attribute)
        if raw is None:
            self.absent.append(key)
            return
        counts = self.counts
        counts[key] += 0
        if isinstance(raw, staticmethod):
            fn = raw.__func__

            def counted_new(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            replacement = staticmethod(counted_new)
        else:

            def counted(*args, **kwargs):
                counts[key] += 1
                return raw(*args, **kwargs)

            replacement = counted
        self._undo.append((cls, attribute, raw))
        setattr(cls, attribute, replacement)


def _resolve(module, attribute: str):
    obj = module
    for part in attribute.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def self_times(spans) -> Counter:
    """Total self time per span name: each span's duration minus the part
    of its interval covered by its direct children."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append(span)
    out: Counter = Counter()
    for sid, name, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for child in sorted(children.get(sid, ()), key=lambda s: s[2]):
            lo, hi = max(child[2], reach), min(child[3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return out


# ---------------------------------------------------------------------------
# Per-entry-point observers.


def _nnz(matrix) -> int:
    entries = getattr(matrix, "entries", None)
    return 0 if entries is None else sum(1 for e in entries if e)


def _entry_bits(e) -> int:
    """Largest numerator or denominator bit length of a + b*sqrt(d)."""
    parts = (e.a, e.b) if hasattr(e, "a") else (e,)
    return max(
        max(p.numerator.bit_length(), p.denominator.bit_length()) for p in parts
    )


def _rank_before(fn):
    """rank(): count input nonzeros; read rows consumed from the public
    progress callback.  That callback fires only after every 64th row, so
    the count is the rows fed before full rank rounded down to a multiple
    of 64."""
    takes_progress = "progress" in inspect.signature(fn).parameters

    def before(tracer, args, kwargs):
        matrix = args[0] if args else kwargs.get("matrix")
        tracer.counts["exactlinalg.rank.input_nnz"] += _nnz(matrix)
        if not takes_progress or len(args) > 2:
            return None
        user = kwargs.get("progress")
        last = [0]

        def progress(done, total, pivots):
            last[0] = done
            if user is not None:
                user(done, total, pivots)

        kwargs["progress"] = progress
        return last

    return before


def _rank_after(tracer, args, kwargs, result, last):
    if last is not None:
        tracer.counts["exactlinalg.rank.rows_consumed_floor64"] += last[0]


def _kernel_after(tracer, args, kwargs, basis, state):
    bits = max((_entry_bits(e) for vec in basis for e in vec), default=0)
    tracer.note_max("exactlinalg.kernel_basis.max_entry_bits", bits)


def _check_sap_after(tracer, args, kwargs, cert, state):
    if getattr(cert, "full_rank", False):
        tracer.counts["cdvcore.check_sap.full_rank"] += 1
    if getattr(cert, "witness", None) is not None:
        tracer.counts["cdvcore.check_sap.witnesses"] += 1


def _sap_system_after(tracer, args, kwargs, system, state):
    matrix = getattr(system, "matrix", None)
    if matrix is not None:
        tracer.counts["cdvcore.sap_system.slots"] += matrix.rows * matrix.cols
        tracer.counts["cdvcore.sap_system.nnz"] += _nnz(matrix)


@dataclass(frozen=True)
class Hook:
    module: str
    attribute: str
    aliases: tuple = ()
    # make_before(fn) builds the before-observer for the wrapped function;
    # after is the after-observer itself.
    make_before: object = None
    after: object = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attribute.split('.')[-1]}"


HOOKS = (
    Hook("groups", "coset_enumerate"),
    Hook("groups", "element_order"),
    Hook("maps", "genus10_map"),
    Hook("maps", "build_map_from_cosets"),
    Hook("maps", "map_report"),
    Hook("maps", "SimpleGraph.has_edge"),
    Hook("exactlinalg", "charpoly"),
    Hook("exactlinalg", "rank", ("cdvcore",), _rank_before, _rank_after),
    Hook("exactlinalg", "kernel_basis", ("cdvcore",), after=_kernel_after),
    Hook("exactlinalg", "inertia_symmetric", ("cdvcore",)),
    Hook("cdvcore", "build_shift_operator"),
    Hook("cdvcore", "check_membership"),
    Hook("cdvcore", "build_sap_system", after=_sap_system_after),
    Hook("cdvcore", "check_sap", after=_check_sap_after),
    Hook("cdvcore", "verify_sap_witness"),
    Hook("cdvcore", "build_bipartite_operator"),
    Hook("cdvcore", "bipartite_kernel_basis"),
    Hook("cdvcore", "spans_match"),
    Hook("cdvcore", "build_sap_witness"),
)
