"""Hierarchical trace spans with a JSONL event sink.

A *span* is one timed region of work with a name, a small attribute
dict, and an explicit parent — the span that was open (in the same
thread) when it started.  Nesting follows the call structure of the
instrumented code: ``run -> sweep -> phase`` on the decomposition side,
``refresh -> run`` on the streaming side, ``request -> batch ->
kernel`` on the serving side.

Tracing is **off by default** and costs one ``None`` check per
instrumented site while off (:func:`span` returns a shared null
context manager).  It turns on process-wide via::

    REPRO_TRACE=/tmp/run.jsonl python -m repro ...   # env bootstrap
    repro decompose --trace /tmp/run.jsonl ...       # CLI flag

Each completed span appends one JSON line to the sink::

    {"id": 3, "parent": 1, "name": "sweep", "start": 0.0012,
     "dur": 0.0431, "attrs": {"iteration": 0}}

Determinism is part of the contract: span ids are a sequence counter
assigned at span *entry*, so the same code path produces the same ids,
ordering, and parentage on every run — only ``start``/``dur`` vary.
Lines are emitted at span *exit* (children before parents); rebuilding
the tree sorts by id.  ``repro trace summarize`` renders the tree with
aggregate timings (:func:`summarize`).

The tracer never touches RNG state or array values, so factors stay
bitwise-identical with tracing enabled (CI-gated in
``tests/test_obs_trace.py``).
"""

from __future__ import annotations

import json
import os
import threading
import time

__all__ = ["Tracer", "Span", "start", "stop", "active", "enabled", "span", "summarize"]


class Span:
    """One timed region: context manager that emits on exit.

    Created through :func:`span` / :meth:`Tracer.span`; the id and
    parent are bound at ``__enter__`` so entry order — not construction
    order — numbers the tree.

    Attributes
    ----------
    name:
        Span name (dotted, e.g. ``"dpar2.sweep"``).
    attrs:
        JSON-safe annotations; extend via :meth:`annotate`.
    span_id, parent_id:
        Assigned at entry (``parent_id`` is ``None`` for roots).
    """

    __slots__ = (
        "_tracer",
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "_entered",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: int | None = None
        self.parent_id: int | None = None
        self._entered = 0.0

    def annotate(self, **attrs) -> None:
        """Merge JSON-safe key/values into the span's attributes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        """Open the span: assign its id, record its parent, start timing."""
        self.span_id, self.parent_id, self._entered = self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close the span and emit its JSONL line (exceptions propagate)."""
        self._tracer._close(self, time.perf_counter() - self._entered)
        return False


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()
    span_id = None
    parent_id = None

    def annotate(self, **attrs) -> None:
        """Discard the annotations."""

    def __enter__(self) -> "_NullSpan":
        """No-op enter."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """No-op exit (exceptions propagate)."""
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Owns the span-id sequence, per-thread span stacks, and the sink.

    Parameters
    ----------
    path:
        JSONL sink file, truncated on open.  Lines are flushed as they
        are written so a crashed run still leaves a readable prefix.

    Notes
    -----
    Ids are allocated under a lock (deterministic without threads;
    merely consistent with them), and each thread keeps its own open
    stack so spans on worker threads parent correctly within their
    thread instead of interleaving with the main thread's stack.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._file = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, span_obj: Span) -> tuple[int, int | None, float]:
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_obj)
        return span_id, parent, time.perf_counter()

    def _close(self, span_obj: Span, duration: float) -> None:
        stack = self._stack()
        if stack and stack[-1] is span_obj:
            stack.pop()
        else:  # out-of-order exit: drop it wherever it sits
            try:
                stack.remove(span_obj)
            except ValueError:
                pass
        line = json.dumps(
            {
                "id": span_obj.span_id,
                "parent": span_obj.parent_id,
                "name": span_obj.name,
                "start": round(span_obj._entered - self._t0, 9),
                "dur": round(duration, 9),
                "attrs": span_obj.attrs,
            },
            default=str,
        )
        with self._lock:
            if not self._file.closed:
                self._file.write(line + "\n")
                self._file.flush()

    # ------------------------------------------------------------------ #

    def span(self, name: str, **attrs) -> Span:
        """Create a span under this tracer (enter it to start timing)."""
        return Span(self, name, attrs)

    def close(self) -> None:
        """Flush and close the sink."""
        with self._lock:
            if not self._file.closed:
                self._file.close()


_ACTIVE: Tracer | None = None


def start(path: str) -> Tracer:
    """Activate process-wide tracing into ``path`` (replacing any tracer).

    Parameters
    ----------
    path:
        JSONL sink file; truncated.

    Returns
    -------
    Tracer
        The newly active tracer.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = Tracer(path)
    return _ACTIVE


def stop() -> None:
    """Deactivate tracing and close the sink (no-op when inactive)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
        _ACTIVE = None


def active() -> Tracer | None:
    """Return the active tracer, or ``None`` while tracing is off."""
    return _ACTIVE


def enabled() -> bool:
    """True while a tracer is active."""
    return _ACTIVE is not None


def span(name: str, **attrs):
    """Open a span on the active tracer — or a shared no-op when off.

    The instrumented-code idiom; costs one global read and one ``None``
    check when tracing is disabled::

        with trace.span("dpar2.sweep", iteration=i) as sp:
            ...
            sp.annotate(error_sq=err)

    Parameters
    ----------
    name:
        Span name (dotted hierarchy by convention).
    **attrs:
        Initial JSON-safe annotations.

    Returns
    -------
    Span or _NullSpan
        A context manager either way.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


# ---------------------------------------------------------------------- #
# reading traces back
# ---------------------------------------------------------------------- #


def load_spans(path: str) -> list[dict]:
    """Parse a JSONL trace sink into span dicts sorted by id (entry order).

    Parameters
    ----------
    path:
        File written by a :class:`Tracer`.

    Returns
    -------
    list of dict
        One dict per span line, sorted by ``id``.  Malformed trailing
        lines (a crash mid-write) are skipped.
    """
    spans: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "id" in record:
                spans.append(record)
    spans.sort(key=lambda s: s["id"])
    return spans


def tree_shape(spans: list[dict]) -> list[tuple]:
    """Reduce spans to their timing-free structure for determinism checks.

    Returns
    -------
    list of tuple
        ``(id, parent, name)`` per span, in id order — equal across two
        runs exactly when the span trees match in ids, ordering, and
        parentage.
    """
    return [(s["id"], s["parent"], s["name"]) for s in spans]


def summarize(path: str) -> str:
    """Render a trace file as an aggregated span tree.

    Sibling spans sharing a name under the same parent *path* collapse
    into one line with count / total / mean / max, so a 50-sweep run
    reads as five lines instead of two hundred.

    Parameters
    ----------
    path:
        JSONL trace sink.

    Returns
    -------
    str
        Human-readable tree, deepest-first indentation, two spaces per
        level.
    """
    spans = load_spans(path)
    if not spans:
        return f"(no spans in {path})"
    children: dict[int | None, list[dict]] = {}
    for record in spans:
        children.setdefault(record["parent"], []).append(record)

    lines: list[str] = []

    def _walk(parents: list[int | None], depth: int) -> None:
        groups: dict[str, list[dict]] = {}
        for parent in parents:
            for record in children.get(parent, []):
                groups.setdefault(record["name"], []).append(record)
        for name, members in groups.items():
            durs = [m["dur"] for m in members]
            total = sum(durs)
            label = f"{'  ' * depth}{name}"
            stats = f"{len(members):>5}x  total {_fmt(total)}"
            if len(members) > 1:
                stats += f"  mean {_fmt(total / len(members))}  max {_fmt(max(durs))}"
            lines.append(f"{label:<40} {stats}")
            _walk([member["id"] for member in members], depth + 1)

    _walk([None], 0)
    return "\n".join(lines)


def _fmt(seconds: float) -> str:
    """Fixed-width duration rendering for :func:`summarize`."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:8.1f}ms"
    return f"{seconds:8.2f}s "


_ENV_PATH = os.environ.get("REPRO_TRACE")
if _ENV_PATH:  # pragma: no cover - exercised via subprocess tests
    start(_ENV_PATH)
