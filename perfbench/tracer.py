"""In-memory span tracer that wraps library functions from outside the library.

A wrapped call records one :class:`Span` (name, start, end, parent span,
operation id, the exception it raised if any).  Spans stay in memory and are
written out once, when the benchmark ends.  Nothing under ``src/`` knows
about the tracer: :meth:`Tracer.installed` swaps wrappers into every module
namespace that holds the original function, and puts the originals back on
exit, even when the traced call raises.

A call reaches a wrapper only through a module global or a class attribute.
A reference captured earlier in a dict, a default argument or a closure still
points at the original and is not traced (``verify._SUITE_FUNCS`` is such a
dict; ``verify.run_suite`` is traced instead).
"""

import contextlib
import functools
import importlib
import json
import os
import sys
import time
import types
from collections import defaultdict

# Library modules whose public functions are traced.
CODAZZI_MODULES = (
    "cli", "diagnostics", "embedding", "energy", "fileio", "grid", "jcalc",
    "manufactured", "maps", "operators", "randfields", "solver", "symspace",
    "teich", "verify",
)

# Methods traced as well; the per-layer metrics need their call counts.
CODAZZI_METHODS = (
    ("grid", "Grid", "ddx"),
    ("grid", "Grid", "ddy"),
    ("maps", "FieldInterpolator", "__call__"),
)

# Third-party entry points traced as probes.  A probe span does not count as
# a child when the self time of its parent is computed, so the linear algebra
# called by the solver stays inside the solver's self time.  The solver calls
# only ``solve`` today; the factor-once and sparse entry points are listed so
# that ``solver.linsolve_s`` still covers a solver that moves to them.
PROBE_PREFIX = "scipy."
SCIPY_LINALG = (
    ("scipy.linalg", ("solve", "lu_factor", "lu_solve")),
    ("scipy.sparse.linalg", ("spsolve", "splu")),
)
LINALG_PROBES = tuple(f"{mod}.{attr}" for mod, attrs in SCIPY_LINALG for attr in attrs)

# File writers and readers whose byte counts are recorded on their spans.
FILE_WRITERS = ("fileio.save_field", "fileio.write_json", "fileio.write_mesh_csv")
FILE_READERS = ("fileio.load_field",)


class Span:
    """One traced call.  ``parent`` indexes :attr:`Tracer.spans` (-1 for a root)."""

    __slots__ = ("name", "label", "op", "parent", "start", "end", "error", "nbytes")

    def __init__(self, name, label=None, op=None, parent=-1, start=0.0, end=0.0,
                 error=None, nbytes=None):
        self.name = name
        self.label = label
        self.op = op
        self.parent = parent
        self.start = start
        self.end = end
        self.error = error
        self.nbytes = nbytes

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self, index):
        return {
            "id": index, "op": self.op, "parent": self.parent, "name": self.name,
            "label": self.label, "start": self.start, "end": self.end,
            "error": self.error, "bytes": self.nbytes,
        }


class Target:
    """A function to trace: ``getattr(owner, attr)`` recorded under ``name``."""

    def __init__(self, owner, attr, name, label=None, nbytes=None):
        self.owner = owner
        self.attr = attr
        self.name = name
        self.label = label      # (args, kwargs) -> span label, or None
        self.nbytes = nbytes    # (args, kwargs) -> bytes moved, or None


def _path_size(args, kwargs):
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return None


def _suite_name(args, kwargs):
    return args[0] if args else kwargs.get("name")


def library_targets():
    """Every traced callable: public functions of each codazzi module (its
    ``__all__`` where it has one), the methods in :data:`CODAZZI_METHODS`,
    and the scipy linear-algebra probes."""
    targets = []
    for short in CODAZZI_MODULES:
        mod = importlib.import_module(f"codazzi.{short}")
        public = getattr(mod, "__all__", None)
        if public is None:
            public = [n for n in vars(mod) if not n.startswith("_")]
        for attr in public:
            fn = getattr(mod, attr)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                targets.append(Target(
                    mod, attr, name,
                    label=_suite_name if name == "verify.run_suite" else None,
                    nbytes=_path_size if name in FILE_WRITERS + FILE_READERS else None,
                ))
    for short, cls_name, attr in CODAZZI_METHODS:
        cls = getattr(importlib.import_module(f"codazzi.{short}"), cls_name)
        targets.append(Target(cls, attr, f"{short}.{cls_name}.{attr}"))
    for mod_name, attrs in SCIPY_LINALG:
        mod = importlib.import_module(mod_name)
        for attr in attrs:
            if hasattr(mod, attr):
                targets.append(Target(mod, attr, f"{mod_name}.{attr}"))
    return targets


class Tracer:
    """Collects spans; :attr:`op` tags every span recorded while it is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, target, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                target.name,
                label=target.label(args, kwargs) if target.label else None,
                op=tracer.op,
                parent=tracer._stack[-1] if tracer._stack else -1,
            )
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
                if target.nbytes is not None:
                    span.nbytes = target.nbytes(args, kwargs)

        traced.__traced_original__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Swap wrappers in for ``targets`` and restore the originals on exit.

        A function is replaced in its owner and in every loaded ``codazzi``
        module namespace that bound it by name (``from .operators import
        div_endo``), under whatever name it was bound.
        """
        patches = []
        try:
            for target in targets:
                original = getattr(target.owner, target.attr)
                if hasattr(original, "__traced_original__"):
                    raise RuntimeError(f"{target.name} is already traced")
                wrapper = self.wrap(target, original)
                for holder, attr in _bindings(target.owner, target.attr, original):
                    patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)

    def op_spans(self, op):
        """The spans of one operation, re-indexed from 0 (see :class:`OpSpans`)."""
        index = {}
        picked = []
        for i, span in enumerate(self.spans):
            if span.op == op:
                index[i] = len(picked)
                picked.append(span)
        return OpSpans([
            Span(s.name, s.label, s.op, index.get(s.parent, -1), s.start, s.end,
                 s.error, s.nbytes)
            for s in picked
        ])

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_dict(i), separators=(",", ":")) + "\n")


def _bindings(owner, attr, original):
    """(namespace, name) pairs bound to ``original``: the owner's own binding
    plus every codazzi module global that is the same object."""
    found = [(owner, attr)]
    if isinstance(owner, type):
        return found
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or mod is None:
            continue
        if mod_name != "codazzi" and not mod_name.startswith("codazzi."):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, name))
    return found


class OpSpans:
    """Span arithmetic over the spans of one operation.

    ``spans[i].parent`` indexes this list.  Spans of one thread nest, so the
    part of a span covered by its children is the sum of its direct
    children's durations.
    """

    def __init__(self, spans):
        self.spans = spans
        self._children = defaultdict(list)
        self._by_name = defaultdict(list)
        for i, span in enumerate(spans):
            self._by_name[span.name].append(i)
            if span.parent >= 0:
                self._children[span.parent].append(i)

    def _named(self, names):
        return sorted(i for name in names for i in self._by_name.get(name, ()))

    def _ancestors(self, i):
        p = self.spans[i].parent
        while p >= 0:
            yield self.spans[p]
            p = self.spans[p].parent

    def _outermost(self, names, label=None):
        """Spans named in ``names`` with no ancestor also named in ``names``,
        so recursion and nesting are not counted twice."""
        for i in self._named(names):
            span = self.spans[i]
            if label is None or span.label == label:
                if not any(a.name in names for a in self._ancestors(i)):
                    yield i, span

    def calls(self, *names):
        return len(self._named(names))

    def errors(self, name, error):
        return sum(1 for i in self._by_name.get(name, ()) if self.spans[i].error == error)

    def total(self, *names, label=None):
        """Inclusive seconds in ``names``, outermost spans only."""
        return sum(span.duration for _, span in self._outermost(names, label))

    def self_time(self, name):
        """Seconds in ``name`` spans not covered by a non-probe child span."""
        out = 0.0
        for i in self._by_name.get(name, ()):
            span = self.spans[i]
            covered = sum(
                self.spans[c].duration for c in self._children[i]
                if not self.spans[c].name.startswith(PROBE_PREFIX)
            )
            out += span.duration - covered
        return out

    def total_under(self, name, ancestor):
        """Inclusive seconds in ``name`` spans that run inside an ``ancestor`` span."""
        return sum(
            span.duration for i, span in self._outermost((name,))
            if any(a.name == ancestor for a in self._ancestors(i))
        )

    def bytes(self, *names):
        """Bytes recorded on the outermost ``names`` spans."""
        return sum(span.nbytes or 0 for _, span in self._outermost(names))
