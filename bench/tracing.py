"""Spans around the benchmark's calls into blgauss, kept in memory.

A span holds a name, start, end, the id of its parent span and the id of the
op it belongs to. The benchmark opens one span per op and, inside it, one span
per call into a package module, named ``<module>.<function>`` after the
callee's ``__module__``. Spans are written out once, when the run ends.

Calls the package makes from one module into another (``gaussian_solver``
into ``_linalg``, ``cli`` into ``gaussian_solver``) number about 10^5 per
round, too many to keep as spans. While :meth:`Tracer.instrumented` is
active, each such call is timed and booked to the innermost open span as a
per-layer call count and self time (``Span.inner``), so a module's self time
is its own work wherever it is called from.

``NullTracer`` has the same interface and records nothing; untraced runs use
it so that end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import functools
import io
import time
import types
from dataclasses import dataclass, field


def layer_of(fn) -> str:
    """Short module name of a package callable: ``blgauss.datum.validate`` -> ``datum``."""
    return fn.__module__.rsplit(".", 1)[-1]


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    inner: dict = field(default_factory=dict)  # layer -> [calls, self seconds]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, **({"attrs": self.attrs} if self.attrs else {}),
                **({"inner": {layer: {"calls": calls, "self_s": self_s}
                              for layer, (calls, self_s) in self.inner.items()}}
                   if self.inner else {})}


def capture_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Run ``main(argv)`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cross_module_imports(modules: dict) -> list[tuple[types.ModuleType, str, str]]:
    """(importer, attribute, layer) for every function that one of ``modules``
    (short name -> module) imported by name from another of them."""
    by_module = {mod.__name__: short for short, mod in modules.items()}
    out = []
    for mod in modules.values():
        for attr, value in vars(mod).items():
            layer = by_module.get(getattr(value, "__module__", None))
            if isinstance(value, types.FunctionType) and layer and value.__module__ != mod.__name__:
                out.append((mod, attr, layer))
    return out


class Tracer:
    enabled = True

    def __init__(self, modules: dict | None = None):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op: int | None = None
        self._last: Span | None = None
        self._imports = cross_module_imports(modules or {})
        self._inner_child: list[float] = []  # time covered by nested inner calls

    def _timed(self, fn, layer: str):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._inner_child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._inner_child.pop()
                if self._inner_child:
                    self._inner_child[-1] += dt
                if self._stack:
                    book = self._stack[-1].inner.setdefault(layer, [0, 0.0])
                    book[0] += 1
                    book[1] += dt - child
        return timed

    @contextlib.contextmanager
    def instrumented(self):
        """Time the package's cross-module calls until the block ends."""
        saved = [(mod, attr, getattr(mod, attr), layer) for mod, attr, layer in self._imports]
        for mod, attr, fn, layer in saved:
            setattr(mod, attr, self._timed(fn, layer))
        try:
            yield
        finally:
            for mod, attr, fn, _ in saved:
                setattr(mod, attr, fn)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, 0.0, parent, self._op, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self._last = sp

    @contextlib.contextmanager
    def op(self, label: str, round_: int):
        """Open the root span of one op; spans inside it carry its id."""
        with self.span("op", label=label, round=round_) as sp:
            self._op = sp.id
            sp.op = sp.id
            try:
                yield sp
            finally:
                self._op = None

    def call(self, fn, /, *args, **kwargs):
        with self.span(f"{layer_of(fn)}.{fn.__name__}"):
            return fn(*args, **kwargs)

    def cli(self, main, argv: list[str], label: str) -> tuple[int, str, str]:
        with self.span("cli.main", label=label):
            return capture_cli(main, argv)

    def note(self, **attrs) -> None:
        """Attach counts to the span that closed last (the call just made)."""
        self._last.attrs.update(attrs)


class NullTracer:
    enabled = False
    spans: tuple = ()
    _null = contextlib.nullcontext()

    def instrumented(self):
        return self._null

    def op(self, label: str, round_: int):
        return self._null

    def call(self, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)

    def cli(self, main, argv: list[str], label: str) -> tuple[int, str, str]:
        return capture_cli(main, argv)

    def note(self, **attrs) -> None:
        pass


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its child spans
    cover and minus the self time of the inner calls booked to it."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for ch in sorted(children.get(sp.id, []), key=lambda s: s.start):
            lo, hi = max(ch.start, cursor), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = sp.duration - covered - sum(self_s for _, self_s in sp.inner.values())
    return out
