"""Stdlib-only asyncio HTTP service over a :class:`FactorStore` registry.

Three serving concerns live here:

* :class:`ModelHost` — version resolution: holds an LRU of per-version
  :class:`~repro.serve.queries.QueryEngine` derived state and the *current*
  (hot) version.  :meth:`ModelHost.refresh` notices a newly published
  registry version, builds its engine off the event loop, and swaps the
  current pointer atomically — in-flight requests keep the engine reference
  they resolved at arrival, so a publish never drops or corrupts them
  (registry versions are immutable directories; the old memmaps stay
  valid).
* :class:`MicroBatcher` — request coalescing: concurrent queries that
  arrive within one batching window are answered by a single batched
  :class:`~repro.serve.queries.QueryEngine` call instead of one kernel
  invocation per request.  The window is *adaptive*: it stays at zero
  while the queue is idle (a lone request never waits) and opens toward a
  configurable cap as observed batch depth rises, so coalescing only pays
  for itself under genuine queue pressure.  ``/v1/similar`` batches
  through the similarity kernel; ``/v1/fold-in`` and ``/v1/anomaly``
  coalesce through :meth:`QueryEngine.fold_in_many`.  All three kernels
  are batch-invariant on the numpy backend, so coalescing is invisible in
  the answers (bitwise), only in the throughput.
* :class:`ServeApp` — a minimal HTTP/1.1 server on ``asyncio.start_server``
  (no third-party framework; the container ships none).  JSON in, JSON
  out, with HTTP/1.1 keep-alive semantics: a connection serves requests
  until the client sends ``Connection: close`` (or an HTTP/1.0 client
  omits ``keep-alive``), so steady traffic pays the TCP handshake once.
  Bodies cross the socket through :mod:`repro.serve.wire` (orjson when
  importable, the stdlib ``json`` otherwise, under one input contract):
  every route answers a dict that the codec encodes, ``/healthz`` and
  ``/v1/model`` included; only ``/metrics`` ships pre-encoded text.

Endpoints (all bodies JSON)::

    GET  /healthz                 liveness + serving version + transport counters
    GET  /metrics                 Prometheus text exposition of the app registry
    GET  /v1/model                model card of the serving (or ?version=) snapshot
    GET  /v1/versions             published versions + which one is live
    POST /v1/similar              {"mode","index"|"indices","k"?,"version"?}
    POST /v1/reconstruct          {"slice","rows"?,"version"?}
    POST /v1/fold-in              {"slice":[[..]],"seed"?,"sweeps"?,"neighbors"?,"version"?}
    POST /v1/anomaly              {"slice":[[..]],"seed"?,"version"?}
    POST /admin/reload            adopt the registry's latest version now

Malformed payloads (missing keys, wrong types, out-of-range values) are
rejected with HTTP 400 and a JSON ``{"error": ...}`` body *before* the
request joins a batch, so one bad request can never poison the kernel
call it would have shared with other clients.  Out of range includes
work a client asks for: at most ``MAX_SIMILAR_INDICES`` indices per
``/v1/similar``, ``MAX_FOLD_IN_SWEEPS`` sweeps per ``/v1/fold-in``, and
no more ``rows`` per ``/v1/reconstruct`` than the slice has.

Robustness (``docs/operations.md`` catalogues the failure modes):

* **Deadlines** — ``request_timeout`` bounds how long a request waits,
  with ``asyncio.wait_for``; an expired request answers 503 with a
  ``Retry-After`` header and bumps the ``timeouts`` counter.  It cannot
  interrupt a kernel already running on the event-loop thread, which is
  why the work one request may ask for is capped.
* **Load shedding** — each :class:`MicroBatcher` can cap its pending
  queue (``max_queue``); submissions beyond the cap are rejected with
  503 + ``Retry-After`` *before* they buffer anything (``shed`` counter).
* **Body caps** — ``max_body_bytes`` rejects oversized uploads with 413
  from the ``Content-Length`` header alone, without reading the body.
* **Graceful drain** — SIGTERM/SIGINT stop the listener, let in-flight
  requests finish (bounded by ``drain_timeout``), and exit cleanly;
  responses written while draining carry ``Connection: close``.
* **Version quarantine** — a published version whose engine build fails
  is quarantined and the previous version keeps serving;
  ``/admin/reload`` retries quarantined versions.

All of it is observable under the ``"faults"`` key of ``/healthz``.
"""

from __future__ import annotations

import asyncio
import re
import signal
import threading
import time
from collections import OrderedDict
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.obs import exposition, trace
from repro.obs.metrics import Counter, MetricsRegistry
from repro.serve import wire
from repro.serve.queries import SIMILARITY_MODES, QueryEngine
from repro.serve.store import FactorStore
from repro.util import faults

#: Hard cap on header lines per request — a framing sanity bound, not a
#: tunable (real clients send a handful).
_MAX_HEADER_LINES = 256

#: Default cap on request body size (bytes); oversized uploads answer 413
#: without ever being buffered.
DEFAULT_MAX_BODY_BYTES = 8 << 20

#: Most refinement sweeps a ``/v1/fold-in`` client may ask for: eight times
#: the engine default.  The fold kernel runs on the event-loop thread,
#: where ``request_timeout`` cannot interrupt it, so an unbounded count
#: would stall every client; above the cap the request answers 400.
MAX_FOLD_IN_SWEEPS = 64

#: Longest ``indices`` list one ``/v1/similar`` request may carry.  The
#: whole list becomes one ``B×n`` score matrix on the event-loop thread;
#: above the cap the request answers 400.
MAX_SIMILAR_INDICES = 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _PromText(bytes):
    """Pre-encoded response body that must ship as Prometheus text.

    ``_encode_response`` passes this type through with the text-exposition
    media type, so ``GET /metrics`` is the one route the codec never sees.
    """

    __slots__ = ()


class ServiceError(Exception):
    """A request error with an HTTP status attached.

    Parameters
    ----------
    status:
        HTTP status code the error maps to (400, 404, 503, ...).
    message:
        Human-readable description, returned as the JSON ``error`` body.
    close:
        When True the connection cannot be kept alive after responding —
        used for framing errors (bad request line, bad ``Content-Length``)
        where the next request boundary is unknowable.
    retry_after:
        Seconds the client should wait before retrying; rendered as a
        ``Retry-After`` response header (used by 503 shedding/deadline
        responses so well-behaved clients back off instead of hammering).
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        close: bool = False,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.close = close
        self.retry_after = retry_after


#: The ``?version=`` values that pin a version: plain decimal integers,
#: as a JSON body sends them (``int()`` alone also takes ``+1``, `` 1``
#: and ``1_0``).
_DECIMAL_INTEGER = re.compile(r"-?[0-9]+")


def _describe(value) -> str:
    """Name a decoded JSON value's type for an error message.

    A scalar is quoted up to 40 characters; an array or an object is only
    named.  A bad field may be megabytes long, and echoing its repr would
    build it on the event-loop thread and send it back in the 400.
    """
    if isinstance(value, (dict, list)):
        return "an object" if isinstance(value, dict) else "an array"
    if isinstance(value, str):
        return f"a string {value[:40]!r}" + ("..." if len(value) > 40 else "")
    return wire.encode(value).decode()[:40]  # null, true, false or a number


def _int_field(
    body: dict, key: str, default=None, *,
    minimum: int | None = None, maximum: int | None = None,
):
    """Read an optional integer field out of a JSON request body.

    Parameters
    ----------
    body:
        Decoded JSON request body.
    key:
        Field name to read.
    default:
        Value used when the field is absent; ``None`` means "optional" and
        is returned as-is.
    minimum:
        Inclusive lower bound enforced on present values.
    maximum:
        Inclusive upper bound enforced on present values.

    Returns
    -------
    int or None
        The validated integer (or ``None`` when absent without default).

    Raises
    ------
    ServiceError
        With status 400 when the value is not a JSON integer or outside
        ``[minimum, maximum]``.  An integral float counts as an integer,
        because the wire codec decodes integers past 64 bits as floats;
        booleans, strings and fractions do not.
    """
    value = body.get(key, default)
    if value is None:
        return None
    if type(value) is not int:
        if type(value) is not float or not value.is_integer():
            raise ServiceError(400, f"{key!r} must be an integer, got {_describe(value)}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ServiceError(400, f"{key!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ServiceError(400, f"{key!r} must be <= {maximum}, got {value}")
    return value


class ModelHost:
    """Registry-backed engine cache with an atomically swappable current.

    Thread-safe: ``refresh`` may run on an executor thread while the event
    loop resolves engines for requests.  Engines are immutable once built,
    so readers only ever need the lock to look up / insert cache entries —
    never to use an engine.

    Parameters
    ----------
    store:
        The :class:`~repro.serve.store.FactorStore` registry to serve.
    lru_size:
        How many per-version :class:`QueryEngine` instances to keep warm;
        the current serving version is never evicted.
    engine_kwargs:
        Extra keyword arguments forwarded to every ``QueryEngine``
        construction (e.g. ``fold_in_sweeps``, ``compute_backend``).

    Raises
    ------
    ValueError
        If ``lru_size`` is below 1.
    """

    def __init__(
        self,
        store: FactorStore,
        *,
        lru_size: int = 4,
        engine_kwargs: dict | None = None,
    ) -> None:
        if lru_size < 1:
            raise ValueError(f"lru_size must be >= 1, got {lru_size}")
        self.store = store
        self.lru_size = lru_size
        self.engine_kwargs = dict(engine_kwargs or {})
        self._lock = threading.Lock()
        self._engines: "OrderedDict[int, QueryEngine]" = OrderedDict()
        self._current: QueryEngine | None = None
        self._quarantined: dict[int, str] = {}
        self._meta: dict[int, dict] = {}

    # ------------------------------------------------------------------ #

    def _build(self, version: int) -> QueryEngine:
        artifact = self.store.get(version)
        engine = QueryEngine(
            artifact.result,
            config=artifact.config,
            version=version,
            **self.engine_kwargs,
        )
        with self._lock:
            self._meta[version] = dict(artifact.meta)
        return engine

    def engine_backend(self) -> str:
        """Resolved compute-backend name the served engines run on."""
        current = self._current
        if current is not None:
            return current.compute_backend
        spec = self.engine_kwargs.get("compute_backend", "numpy")
        return spec if isinstance(spec, str) else getattr(spec, "name", str(spec))

    def transfer_stats(self) -> dict:
        """Host↔device traffic summed over every live engine.

        All-zero on the numpy backend.  Evicted engines take their counts
        with them, so this tracks the working set, not all-time totals —
        which is the number an operator watching residency actually wants.
        """
        totals = {"h2d_calls": 0, "h2d_bytes": 0, "d2h_calls": 0, "d2h_bytes": 0}
        with self._lock:
            engines = list(self._engines.values())
            current = self._current
        if current is not None and all(current is not e for e in engines):
            engines.append(current)
        for engine in engines:
            for key, value in engine.transfer_stats().items():
                totals[key] += value
        return totals

    def bind_registry(self, metrics: MetricsRegistry) -> None:
        """Register this host's live-state gauges on ``metrics``.

        Everything here is a callback gauge — evaluated at scrape time, so
        ``/metrics`` always reports the working set as it is *now*, not as
        it was at the last mutation.  Idempotent per registry (re-binding
        resolves the same gauge objects; callbacks bind on first creation).
        """
        metrics.gauge(
            "repro_serve_engine_cache_size",
            "QueryEngine instances held in the per-version LRU.",
            callback=lambda: len(self._engines),
        )
        metrics.gauge(
            "repro_serve_quarantined_versions",
            "Published versions currently refused after a failed engine build.",
            callback=lambda: len(self._quarantined),
        )
        metrics.gauge(
            "repro_serve_current_version",
            "Registry version of the serving engine (-1 before the first load).",
            callback=lambda: self.current_version if self.current_version is not None else -1,
        )
        for key in ("h2d_calls", "h2d_bytes", "d2h_calls", "d2h_bytes"):
            metrics.gauge(
                "repro_serve_engine_transfers",
                "Host-device traffic summed over live engines (working set).",
                labels={"stat": key},
                callback=lambda key=key: self.transfer_stats()[key],
            )

    def engine(self, version: int | None = None) -> QueryEngine:
        """Resolve the engine for ``version`` (None → the current serving one).

        Explicit versions hit the LRU; misses load from the registry (a
        pinned old version keeps answering even after newer publishes).

        Parameters
        ----------
        version:
            Published registry version to pin, or ``None`` for the live one.

        Returns
        -------
        QueryEngine
            The (possibly cached) engine for that version.

        Raises
        ------
        ServiceError
            404 when the pinned version is not in the registry; 503 (via
            :meth:`refresh`) when the registry is empty.
        """
        if version is None:
            current = self._current
            if current is None:
                return self.refresh()
            return current
        version = int(version)
        with self._lock:
            cached = self._engines.get(version)
            if cached is not None:
                self._engines.move_to_end(version)
                return cached
        try:
            engine = self._build(version)
        except KeyError:
            # Not FactorStore.get's text: that names the registry directory.
            published = self.store.versions()
            raise ServiceError(
                404, f"version {version} is not published (published: {published or 'none'})"
            ) from None
        self._admit(engine)
        return engine

    def _admit(self, engine: QueryEngine) -> None:
        with self._lock:
            self._engines[engine.version] = engine
            self._engines.move_to_end(engine.version)
            current_version = None if self._current is None else self._current.version
            while len(self._engines) > self.lru_size:
                for candidate in self._engines:
                    if candidate != current_version:
                        del self._engines[candidate]
                        self._meta.pop(candidate, None)
                        break
                else:  # pragma: no cover - only the current engine remains
                    break

    def refresh(self, *, retry_quarantined: bool = False) -> QueryEngine:
        """Adopt the newest loadable version; return the current engine.

        Building the new engine happens *before* the swap, so requests keep
        being answered by the old version for the whole load; the final
        pointer assignment is atomic.

        A version whose engine build fails (corrupt payload, bad manifest)
        is **quarantined** — recorded with its error and skipped by every
        subsequent refresh — and the walk falls back to the next-newest
        published version, so one bad publish never takes serving down.

        Parameters
        ----------
        retry_quarantined:
            Forget previous quarantine verdicts before walking (used by
            ``/admin/reload`` so an operator can retry after repairing a
            payload in place).

        Returns
        -------
        QueryEngine
            The engine serving after the (possible) swap.

        Raises
        ------
        ServiceError
            503 when the registry has no published versions, or when every
            published version fails to load.
        """
        if retry_quarantined:
            with self._lock:
                self._quarantined.clear()
        latest = self.store.latest_version()
        if latest is None:
            raise ServiceError(503, "the registry has no published versions")
        current = self._current
        candidates = [latest] + [
            v for v in sorted(self.store.versions(), reverse=True) if v != latest
        ]
        for version in candidates:
            with self._lock:
                if version in self._quarantined:
                    continue
            if current is not None and current.version == version:
                return current
            with self._lock:
                cached = self._engines.get(version)
            if cached is not None:
                engine = cached
            else:
                try:
                    engine = self._build(version)
                except Exception as exc:  # noqa: BLE001 - quarantine any build failure
                    with self._lock:
                        self._quarantined[version] = f"{type(exc).__name__}: {exc}"
                    continue
            self._current = engine  # the hot swap: a single reference assignment
            self._admit(engine)  # after the swap, so eviction protects the new version
            return engine
        with self._lock:
            detail = "; ".join(
                f"v{v}: {msg}" for v, msg in sorted(self._quarantined.items())
            )
        raise ServiceError(503, f"every published version failed to load ({detail})")

    def quarantined(self) -> dict[str, str]:
        """Versions refused by :meth:`refresh`, mapped to their build errors.

        In version order, keyed by the version as a string: the
        ``quarantined`` block of ``/healthz`` and ``/admin/reload``.
        """
        with self._lock:
            return {str(v): msg for v, msg in sorted(self._quarantined.items())}

    def current_meta(self) -> dict:
        """Publisher-supplied ``meta`` of the serving version ({} before one)."""
        current = self._current
        if current is None:
            return {}
        with self._lock:
            return dict(self._meta.get(current.version, {}))

    @property
    def current_version(self) -> int | None:
        """Version number of the serving engine (None before first refresh)."""
        current = self._current
        return None if current is None else current.version

    def cached_versions(self) -> list[int]:
        """Return the version numbers currently held in the engine LRU."""
        with self._lock:
            return list(self._engines)


class MicroBatcher:
    """Coalesce concurrent awaitable requests into batched kernel calls.

    ``runner`` receives the list of pending payloads and returns one result
    per payload, in order.  A submission flushes immediately once
    ``max_batch`` requests are pending, otherwise after the *current*
    coalescing window elapses.

    The window is adaptive by default: it is zero while the queue is idle
    — a lone request is flushed on the next event-loop tick, adding no
    latency beyond the loop iteration it already pays — and opens toward
    the ``window`` cap as the observed batch depth (an exponentially
    weighted moving average over recent flushes) rises above one.  Depth
    decays the same way, so when the burst ends the window closes again;
    after ``idle_reset`` seconds without a flush the pressure estimate is
    discarded outright.  Even at window zero, requests woken in the same
    event-loop tick still coalesce, because the flush is scheduled behind
    them with ``call_soon``.

    An open window is a *cap*, not a sentence: while it is pending, a
    per-iteration stagnation watch flushes as soon as one event-loop pass
    adds no new submission.  Clients that wait for their response before
    sending the next request (every keep-alive client does) go quiet once
    their in-flight requests are queued — at that point more waiting can
    only add latency, never depth.  The full window is only ever served
    under open-loop pressure, where new requests genuinely keep arriving
    every pass.

    Counters (``batches``, ``requests``, :meth:`stats`) make the
    coalescing observable to health checks and benchmarks.

    Parameters
    ----------
    runner:
        Callable taking the list of pending payloads, returning one result
        per payload in order.  A slot may hold an ``Exception`` instance to
        fail that payload alone without poisoning the rest of the batch.
    window:
        Coalescing window cap in seconds (the fixed window when
        ``adaptive=False``).  Zero disables waiting entirely.
    max_batch:
        Flush immediately once this many requests are pending.
    adaptive:
        When True (default) the wait scales with queue pressure as
        described above; when False every batch waits the full ``window``.
    ramp_depth:
        Average batch depth at which the adaptive window saturates at
        ``window``.  Defaults to ``max(2, max_batch / 4)``.
    idle_reset:
        Seconds without a flush after which the pressure estimate resets
        to idle.
    max_queue:
        Bound on pending submissions.  ``None`` (default) never sheds; a
        submission arriving while ``max_queue`` requests already wait is
        rejected with a 503 :class:`ServiceError` carrying ``Retry-After``
        — before it buffers anything — and counted under ``shed``.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` to publish the
        counters into (``repro_serve_batch_*`` families, labelled by
        ``name``).  ``None`` (default) keeps the counters as private
        unregistered metric objects, so standalone batchers stay isolated
        from each other; either way ``batches``/``requests``/``shed``
        read as plain ints.
    name:
        The ``batcher`` label value used when ``metrics`` is given.

    Raises
    ------
    ValueError
        If ``window`` is negative, or ``max_batch``/``max_queue`` below 1.
    """

    def __init__(
        self,
        runner,
        *,
        window: float = 0.002,
        max_batch: int = 64,
        adaptive: bool = True,
        ramp_depth: float | None = None,
        idle_reset: float = 0.25,
        max_queue: int | None = None,
        metrics: MetricsRegistry | None = None,
        name: str = "batch",
    ) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._runner = runner
        self.window = window
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.adaptive = adaptive
        self.ramp_depth = (
            max(2.0, max_batch / 4.0) if ramp_depth is None else float(ramp_depth)
        )
        self.idle_reset = idle_reset
        self._pending: list[tuple[object, asyncio.Future]] = []
        self._timer: "asyncio.TimerHandle | asyncio.Handle | None" = None
        self.name = name
        if metrics is None:
            self._m_batches = Counter()
            self._m_requests = Counter()
            self._m_shed = Counter()
        else:
            labels = {"batcher": name}
            self._m_batches = metrics.counter(
                "repro_serve_batches_total",
                "Batches flushed through the micro-batcher.",
                labels=labels,
            )
            self._m_requests = metrics.counter(
                "repro_serve_batched_requests_total",
                "Requests answered through batched kernel calls.",
                labels=labels,
            )
            self._m_shed = metrics.counter(
                "repro_serve_shed_total",
                "Submissions rejected because the pending queue was full.",
                labels=labels,
            )
            metrics.gauge(
                "repro_serve_batch_queue_depth",
                "Requests currently waiting in the micro-batcher queue.",
                labels=labels,
                callback=lambda: len(self._pending),
            )
            metrics.gauge(
                "repro_serve_batch_ewma_depth",
                "Moving-average flush depth driving the adaptive window.",
                labels=labels,
                callback=lambda: round(self._ewma_depth, 6),
            )
        self.last_batch_size = 0
        self._ewma_depth = 0.0
        self._last_flush = float("-inf")
        self._epoch = 0
        self._watch_count = 0

    @property
    def batches(self) -> int:
        """Batches flushed so far (registry-backed counter)."""
        return self._m_batches.value

    @property
    def requests(self) -> int:
        """Requests answered through batches so far (registry-backed)."""
        return self._m_requests.value

    @property
    def shed(self) -> int:
        """Submissions rejected by the ``max_queue`` bound (registry-backed)."""
        return self._m_shed.value

    def current_window(self) -> float:
        """Return the delay (seconds) the next burst-opening submit waits.

        Zero while idle (pressure at or below one request per flush, or no
        flush within ``idle_reset``); ramps linearly toward the ``window``
        cap as the moving-average batch depth approaches ``ramp_depth``.
        """
        if not self.adaptive:
            return self.window
        if self.window <= 0.0:
            return 0.0
        if time.monotonic() - self._last_flush > self.idle_reset:
            return 0.0
        pressure = self._ewma_depth
        if pressure <= 1.0:
            return 0.0
        fraction = min(1.0, (pressure - 1.0) / max(self.ramp_depth - 1.0, 1.0))
        return self.window * fraction

    async def submit(self, payload):
        """Enqueue ``payload`` and await its slot of the batched result.

        Parameters
        ----------
        payload:
            Opaque request object handed to ``runner`` in arrival order.

        Returns
        -------
        object
            The runner's result for this payload.

        Raises
        ------
        ServiceError
            503 (with ``Retry-After``) when ``max_queue`` submissions are
            already pending — shed before buffering, see ``max_queue``.
        Exception
            Whatever the runner raised for the whole batch, or placed in
            this payload's result slot.
        """
        if self.max_queue is not None and len(self._pending) >= self.max_queue:
            self._m_shed.inc()
            raise ServiceError(
                503,
                f"batch queue full ({self.max_queue} requests pending)",
                retry_after=1,
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((payload, future))
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._timer is None:
            delay = self.current_window()
            if delay <= 0.0:
                # call_soon, not an inline flush: submissions already woken
                # in this event-loop tick run before the callback and still
                # join the batch — coalescing at zero added latency.
                self._timer = loop.call_soon(self._flush)
            else:
                self._timer = loop.call_later(delay, self._flush)
                if self.adaptive:  # fixed-window mode serves the full window
                    self._watch_count = len(self._pending)
                    loop.call_soon(self._stagnation_check, loop, self._epoch)
        return await future

    def _stagnation_check(self, loop: asyncio.AbstractEventLoop, epoch: int) -> None:
        """Flush an open window early once arrivals cease.

        Re-scheduled with ``call_soon`` every loop pass while the window
        timer is pending: a pass that grows the queue keeps watching, a
        pass that doesn't means every in-flight client has submitted —
        flush now, the rest of the window could only add latency.
        """
        if epoch != self._epoch or self._timer is None:
            return  # that batch already flushed
        if len(self._pending) == self._watch_count:
            self._flush()
        else:
            self._watch_count = len(self._pending)
            loop.call_soon(self._stagnation_check, loop, epoch)

    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._epoch += 1  # retires any stagnation watch on this batch
        batch, self._pending = self._pending, []
        if not batch:
            return
        depth = len(batch)
        self._m_batches.inc()
        self._m_requests.inc(depth)
        self.last_batch_size = depth
        # Queue-pressure estimate: EWMA of flush depths.  Half-life of one
        # flush — grows within a couple of bursts, decays as fast once
        # traffic thins back to singles.
        self._ewma_depth = 0.5 * depth + 0.5 * self._ewma_depth
        self._last_flush = time.monotonic()
        try:
            with trace.span("serve.batch", batcher=self.name, size=depth):
                results = self._runner([payload for payload, _ in batch])
        except Exception as exc:
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        # A runner may fail some payloads without poisoning the rest by
        # returning an Exception in that payload's slot.
        for (_, future), result in zip(batch, results):
            if future.done():
                continue
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(result)

    def stats(self) -> dict:
        """Return a JSON-safe counter snapshot (surfaced under ``/healthz``)."""
        return {
            "batches": self.batches,
            "requests": self.requests,
            "shed": self.shed,
            "queue_depth": len(self._pending),
            "last_batch": self.last_batch_size,
            "ewma_depth": round(self._ewma_depth, 3),
            "window_cap_ms": round(self.window * 1000.0, 3),
            "current_window_ms": round(self.current_window() * 1000.0, 3),
        }


def _meta_count(meta: dict, key: str) -> int:
    """Read a counter out of publisher meta, tolerating absent/junk values."""
    try:
        return int(meta.get(key, 0) or 0)
    except (TypeError, ValueError):
        return 0


def _decode_body(raw: bytes) -> dict:
    """Decode a request body (empty → ``{}``); anything but an object is a 400."""
    if not raw:
        return {}
    try:
        body = wire.decode(raw)
    except wire.DecodeError as exc:
        raise ServiceError(400, f"request body is not JSON: {exc}") from None
    if not isinstance(body, dict):
        raise ServiceError(400, "request body must be a JSON object")
    return body


def _encode_response(status: int, payload) -> tuple[int, str, bytes]:
    """``(status, content type, body)`` of a payload; ``_PromText`` passes through."""
    if isinstance(payload, _PromText):
        return status, exposition.CONTENT_TYPE, bytes(payload)
    try:
        return status, "application/json", wire.encode(payload)
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return 500, "application/json", b'{"error":"response not serializable"}'


class ServeApp:
    """The HTTP front: routing, micro-batching, background registry polls.

    Parameters
    ----------
    host:
        The :class:`ModelHost` that resolves versions to engines.
    batch_window:
        Micro-batching window cap in seconds (see :class:`MicroBatcher`).
    max_batch:
        Immediate-flush threshold for both batchers.
    poll_interval:
        Seconds between registry polls for newly published versions;
        0 disables polling (``/admin/reload`` still works).
    adaptive_batching:
        When True (default) the batching window adapts to queue pressure;
        when False every batch waits the full ``batch_window``.
    request_timeout:
        Per-request deadline in seconds for the dispatch (route + kernel)
        phase; expiry answers 503 with ``Retry-After`` and counts under
        ``timeouts``.  ``None``/0 disables the deadline.
    max_body_bytes:
        Reject request bodies longer than this with 413 — decided from the
        ``Content-Length`` header alone, the body is never read.  ``None``
        disables the cap.
    max_queue:
        Per-batcher pending-queue bound (see :class:`MicroBatcher`);
        ``None`` never sheds.
    drain_timeout:
        Upper bound in seconds a graceful drain waits for in-flight
        requests before shutting down anyway.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` every serve-tier
        counter, gauge, and histogram registers on — also what ``GET
        /metrics`` renders.  ``None`` (default) creates a fresh registry
        per app, keeping concurrently running servers (tests) isolated.
    """

    #: Routes with their own ``repro_serve_request_seconds`` label; anything
    #: else (404s, probes) aggregates under ``path="other"`` so the label
    #: set stays bounded no matter what clients send.
    _ROUTE_PATHS = (
        "/healthz",
        "/metrics",
        "/v1/model",
        "/v1/versions",
        "/v1/similar",
        "/v1/reconstruct",
        "/v1/fold-in",
        "/v1/anomaly",
        "/admin/reload",
    )

    def __init__(
        self,
        host: ModelHost,
        *,
        batch_window: float = 0.002,
        max_batch: int = 64,
        poll_interval: float = 0.0,
        adaptive_batching: bool = True,
        request_timeout: float | None = None,
        max_body_bytes: int | None = DEFAULT_MAX_BODY_BYTES,
        max_queue: int | None = None,
        drain_timeout: float = 10.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_body_bytes is not None and max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        if drain_timeout < 0:
            raise ValueError(f"drain_timeout must be >= 0, got {drain_timeout}")
        self.host = host
        self.poll_interval = poll_interval
        self.request_timeout = request_timeout
        self.max_body_bytes = max_body_bytes
        self.drain_timeout = drain_timeout
        self.port: int | None = None
        self._started = time.monotonic()
        self._shutdown: asyncio.Event | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        batching = dict(
            window=batch_window,
            max_batch=max_batch,
            adaptive=adaptive_batching,
            max_queue=max_queue,
            metrics=self.metrics,
        )
        self._batcher = MicroBatcher(self._run_similar_batch, name="similar", **batching)
        self._fold_batcher = MicroBatcher(self._run_fold_batch, name="fold_in", **batching)
        self._m_connections = self.metrics.counter(
            "repro_serve_connections_total", "Client connections accepted."
        )
        self._m_requests = self.metrics.counter(
            "repro_serve_requests_total", "HTTP requests served (all routes)."
        )
        self._m_timeouts = self.metrics.counter(
            "repro_serve_timeouts_total", "Requests that exceeded the dispatch deadline."
        )
        self._m_drains = self.metrics.counter(
            "repro_serve_drains_total", "Graceful drains begun (SIGTERM/SIGINT)."
        )
        self._m_request_seconds = {
            path: self.metrics.histogram(
                "repro_serve_request_seconds",
                "Dispatch latency (route + kernel) per endpoint.",
                labels={"path": path},
            )
            for path in self._ROUTE_PATHS + ("other",)
        }
        self.metrics.gauge(
            "repro_serve_active_requests",
            "Requests currently being read, dispatched, or answered.",
            callback=lambda: self._active_requests,
        )
        self.metrics.gauge(
            "repro_serve_draining",
            "1 while a graceful drain is in progress, else 0.",
            callback=lambda: int(self._draining),
        )
        host.bind_registry(self.metrics)
        self._draining = False
        self._active_requests = 0
        self._server: asyncio.AbstractServer | None = None
        self._installed_signals: list[int] = []
        self._open_writers: "set[asyncio.StreamWriter]" = set()

    # ------------------------------------------------------------------ #
    # kernels behind the batchers
    # ------------------------------------------------------------------ #

    def _run_similar_batch(self, payloads: list[dict]) -> list:
        """One batched ``similar`` kernel call per (engine, mode, k) group.

        Payloads pinned to different versions (or asking different ``k``)
        cannot share a contraction, so they group by engine identity + query
        shape; within a group the whole batch is one kernel call.  A group
        that fails (e.g. a bad index that slipped past request validation)
        gets its exception in its own slots only — co-batched requests from
        other clients are never poisoned by it.
        """
        results: list = [None] * len(payloads)
        groups: dict[tuple, list[int]] = {}
        for i, payload in enumerate(payloads):
            key = (id(payload["engine"]), payload["mode"], payload["k"])
            groups.setdefault(key, []).append(i)
        for members in groups.values():
            engine: QueryEngine = payloads[members[0]]["engine"]
            mode = payloads[members[0]]["mode"]
            k = payloads[members[0]]["k"]
            indices = [payloads[i]["index"] for i in members]
            try:
                with trace.span("serve.kernel", kind="similar", size=len(members)):
                    neighbors, scores = engine.similar(indices, k, mode=mode)
            except Exception as exc:
                for i in members:
                    results[i] = exc
                continue
            for row, i in enumerate(members):
                results[i] = self._similar_body(
                    engine, mode, payloads[i]["index"], neighbors[row], scores[row]
                )
        return results

    def _run_fold_batch(self, payloads: list[dict]) -> list:
        """One ``fold_in_many`` call per (engine, sweeps) group.

        ``/v1/fold-in`` and ``/v1/anomaly`` requests share batches — both
        run the same projection kernel, and each slice draws its Gaussian
        sketch from its own seed, so answers are bitwise independent of
        batch composition.  Sweeps differ per request, so payloads group by
        (engine identity, resolved sweep count); a group that fails gets
        its exception in its own slots only.
        """
        results: list = [None] * len(payloads)
        groups: dict[tuple, list[int]] = {}
        for i, payload in enumerate(payloads):
            engine: QueryEngine = payload["engine"]
            sweeps = payload["sweeps"]
            if sweeps is None:
                sweeps = engine.fold_in_sweeps
            groups.setdefault((id(engine), sweeps), []).append(i)
        for (_, sweeps), members in groups.items():
            engine = payloads[members[0]]["engine"]
            try:
                with trace.span("serve.kernel", kind="fold_in", size=len(members)):
                    folds = engine.fold_in_many(
                        [payloads[i]["slice"] for i in members],
                        seeds=[payloads[i]["seed"] for i in members],
                        sweeps=sweeps,
                    )
            except Exception as exc:
                for i in members:
                    results[i] = exc
                continue
            for i, fold in zip(members, folds):
                try:
                    results[i] = self._fold_body(engine, payloads[i], fold)
                except Exception as exc:  # e.g. a bad neighbors lookup
                    results[i] = exc
        return results

    def _fold_body(self, engine: QueryEngine, payload: dict, fold) -> dict:
        """Render one fold-in/anomaly response from its ``FoldInResult``."""
        if payload["kind"] == "anomaly":
            return {
                "version": engine.version,
                "score": fold.relative_residual,
                "residual_squared": fold.residual_squared,
                "norm_squared": fold.norm_squared,
            }
        response = {
            "version": engine.version,
            "weights": fold.weights.tolist(),
            "relative_residual": fold.relative_residual,
            "residual_squared": fold.residual_squared,
        }
        neighbors = payload["neighbors"]
        if neighbors is not None:
            idx, scores = engine.similar_to(fold.weights, neighbors, mode="slice")
            response["neighbors"] = [
                {"index": int(n), "score": float(s)}
                for n, s in zip(idx[0], scores[0])
            ]
        return response

    @staticmethod
    def _similar_body(engine, mode, index, neighbors, scores) -> dict:
        """Render one similar-query response row."""
        return {
            "version": engine.version,
            "mode": mode,
            "index": int(index),
            "neighbors": [
                {"index": int(n), "score": float(s)}
                for n, s in zip(neighbors, scores)
            ],
        }

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #

    def _healthz(self) -> dict:
        """The ``/healthz`` body: serving version, counters, faults, engine.

        Counters read the app's registry, so ``/healthz`` and ``/metrics``
        agree; ``codec`` names the wire codec (``wire.NAME``).
        """
        meta = self.host.current_meta()
        return {
            "status": "ok",
            "version": self.host.current_version,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "connections": self._m_connections.value,
            "requests_served": self._m_requests.value,
            "batches": self._batcher.batches,
            "batched_requests": self._batcher.requests,
            "batching": {
                "similar": self._batcher.stats(),
                "fold_in": self._fold_batcher.stats(),
            },
            "faults": {
                "timeouts": self._m_timeouts.value,
                "shed": self._batcher.shed + self._fold_batcher.shed,
                "drains": self._m_drains.value,
                "draining": self._draining,
                "worker_restarts": _meta_count(meta, "worker_restarts"),
                "checkpoint_resumes": _meta_count(meta, "checkpoint_resumes"),
                "quarantined": self.host.quarantined(),
            },
            "engine": {
                "compute_backend": self.host.engine_backend(),
                "transfers": self.host.transfer_stats(),
            },
            "codec": wire.NAME,
        }

    async def _engine_for(self, body: dict) -> QueryEngine:
        """Resolve the engine a request runs against.

        A pinned version that misses the LRU loads the model from disk and
        precomputes its derived state — that happens on an executor thread,
        like ``refresh``, so one cold pinned query never stalls the event
        loop (and everyone else's requests) behind registry I/O.
        """
        version = _int_field(body, "version")
        if version is None:
            return self.host.engine()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.host.engine, version)

    async def _dispatch(self, method: str, target: str, body: dict, span):
        """Route one parsed request; return ``(status, payload)``.

        ``payload`` is a JSON-safe dict, or ``_PromText`` for
        ``/metrics``.  The dispatch is timed into the
        per-endpoint ``repro_serve_request_seconds`` histogram — known
        routes get their own ``path`` label, everything else pools under
        ``"other"`` — and ``span``, the request's ``serve.request`` span,
        is annotated with the method and path.
        """
        await faults.async_check("serve.dispatch")
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        span.annotate(method=method, path=path)
        query = parse_qs(parts.query)
        hist = self._m_request_seconds.get(path, self._m_request_seconds["other"])
        t0 = time.perf_counter()
        try:
            return await self._route(method, path, query, body)
        finally:
            hist.observe(time.perf_counter() - t0)

    async def _route(self, method: str, path: str, query: dict, body: dict):
        """The route table behind :meth:`_dispatch`."""
        if method == "GET" and path == "/healthz":
            return 200, self._healthz()
        if method == "GET" and path == "/metrics":
            return 200, _PromText(exposition.render(self.metrics).encode())
        if method == "GET" and path == "/v1/model":
            pin = query.get("version", [None])[0]
            if pin is not None and _DECIMAL_INTEGER.fullmatch(pin) is None:
                raise ServiceError(400, "'version' must be an integer")
            engine = await self._engine_for({} if pin is None else {"version": int(pin)})
            return 200, engine.metadata()
        if method == "GET" and path == "/v1/versions":
            return 200, {
                "versions": self.host.store.versions(),
                "latest": self.host.store.latest_version(),
                "serving": self.host.current_version,
                "cached": self.host.cached_versions(),
            }
        if method == "POST" and path == "/v1/similar":
            return await self._handle_similar(body)
        if method == "POST" and path == "/v1/reconstruct":
            return await self._handle_reconstruct(body)
        if method == "POST" and path == "/v1/fold-in":
            return await self._handle_fold_in(body, kind="fold-in")
        if method == "POST" and path == "/v1/anomaly":
            return await self._handle_fold_in(body, kind="anomaly")
        if method == "POST" and path == "/admin/reload":
            loop = asyncio.get_running_loop()
            before = self.host.current_version
            engine = await loop.run_in_executor(
                None, lambda: self.host.refresh(retry_quarantined=True)
            )
            return 200, {
                "version": engine.version,
                "swapped": engine.version != before,
                "quarantined": self.host.quarantined(),
            }
        raise ServiceError(404, f"no route for {method} {path}")

    async def _handle_similar(self, body: dict):
        """Answer ``/v1/similar``: batch lists inline, singles via batcher."""
        engine = await self._engine_for(body)
        mode = body.get("mode", "slice")
        if mode not in SIMILARITY_MODES:
            raise ServiceError(
                400, f"'mode' must be one of {list(SIMILARITY_MODES)}, got {_describe(mode)}"
            )
        k = _int_field(body, "k", 10, minimum=1)
        if "indices" in body:
            indices = body["indices"]
            if not isinstance(indices, list) or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in indices
            ):
                raise ServiceError(400, "indices must be a list of integers")
            if len(indices) > MAX_SIMILAR_INDICES:
                raise ServiceError(
                    400,
                    f"indices holds {len(indices)} entries; "
                    f"at most {MAX_SIMILAR_INDICES} per request",
                )
            neighbors, scores = engine.similar(indices, k, mode=mode)
            return 200, {
                "version": engine.version,
                "mode": mode,
                "results": [
                    self._similar_body(engine, mode, idx, neighbors[b], scores[b])
                    for b, idx in enumerate(indices)
                ],
            }
        index = _int_field(body, "index")
        if index is None:
            raise ServiceError(400, "similar query needs 'index' or 'indices'")
        # Validate before joining a batch: a bad index must 400 here, not
        # fail the kernel call it would share with other clients' requests.
        n = engine.mode_size(mode)
        if not 0 <= index < n:
            raise ServiceError(
                400, f"index {index} out of range [0, {n}) for mode {mode!r}"
            )
        payload = {"engine": engine, "mode": mode, "k": k, "index": index}
        return 200, await self._batcher.submit(payload)

    async def _handle_reconstruct(self, body: dict):
        """Answer ``/v1/reconstruct`` for one slice (optionally row subset)."""
        engine = await self._engine_for(body)
        k = _int_field(body, "slice")
        if k is None:
            raise ServiceError(400, "reconstruct query needs 'slice' (an index)")
        rows = body.get("rows")
        if rows is not None:
            if not isinstance(rows, list):
                raise ServiceError(400, "rows must be a list of integers")
            # The kernel and the JSON encode run on the event-loop thread,
            # so a request may ask for at most as many rows as the slice
            # has (omitting ``rows`` already returns all of them).
            if 0 <= k < engine.n_slices and len(rows) > (height := len(engine.result.Q[k])):
                raise ServiceError(
                    400, f"rows has {len(rows)} entries; slice {k} has {height} rows"
                )
            if not all(isinstance(r, int) and not isinstance(r, bool) for r in rows):
                raise ServiceError(400, "rows must be a list of integers")
        values = engine.reconstruct(k, rows=rows)
        return 200, {
            "version": engine.version,
            "slice": k,
            "rows": rows if rows is not None else "all",
            "shape": list(values.shape),
            "values": values.tolist(),
        }

    @staticmethod
    def _slice_for(body: dict, engine: QueryEngine) -> np.ndarray:
        """Validate and decode the ``slice`` payload of fold-in/anomaly.

        Everything that could fail the shared kernel call — wrong type,
        ragged rows, non-finite values, column-count mismatch — 400s here,
        before the request joins a batch.
        """
        data = body.get("slice")
        if not isinstance(data, list):
            raise ServiceError(400, "'slice' must be a 2-D array (list of rows)")
        try:
            matrix = np.asarray(data, dtype=np.float64)
        except (TypeError, ValueError):
            # Not numpy's text: it quotes the offending entry in full.
            raise ServiceError(
                400, "'slice' must be equal-length rows of numbers"
            ) from None
        if matrix.ndim != 2:
            raise ServiceError(
                400, f"'slice' must be 2-D (list of rows), got {matrix.ndim}-D"
            )
        if matrix.shape[1] != engine.n_columns:
            raise ServiceError(
                400,
                f"'slice' has {matrix.shape[1]} columns; "
                f"model has J={engine.n_columns}",
            )
        if not np.isfinite(matrix).all():
            raise ServiceError(400, "'slice' contains NaN or infinite values")
        return matrix

    async def _handle_fold_in(self, body: dict, *, kind: str):
        """Answer ``/v1/fold-in`` / ``/v1/anomaly`` through the fold batcher."""
        engine = await self._engine_for(body)
        payload = {
            "engine": engine,
            "kind": kind,
            "slice": self._slice_for(body, engine),
            "seed": _int_field(body, "seed", 0, minimum=0),
            "sweeps": (
                _int_field(body, "sweeps", minimum=1, maximum=MAX_FOLD_IN_SWEEPS)
                if kind == "fold-in" else None
            ),
            "neighbors": (
                _int_field(body, "neighbors", minimum=1) if kind == "fold-in" else None
            ),
        }
        return 200, await self._fold_batcher.submit(payload)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection: a keep-alive loop of requests."""
        self._m_connections.inc()
        self._open_writers.add(writer)
        try:
            while await self._serve_one(reader, writer):
                pass
        except (ConnectionError, BrokenPipeError):  # client went away
            pass
        finally:
            self._open_writers.discard(writer)
            if not writer.is_closing():
                writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read, dispatch, and answer one request.

        Returns
        -------
        bool
            True when the connection should be kept open for the next
            request (HTTP/1.1 default; HTTP/1.0 only with an explicit
            ``Connection: keep-alive``); False on EOF, close semantics, or
            a framing error that loses the request boundary.
        """
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return False
        self._m_requests.inc()  # pre-dispatch: /healthz counts itself
        self._active_requests += 1
        try:
            # Opened before the body is read, so that serve.decode and
            # serve.encode are its children.
            with trace.span("serve.request") as span:
                answer = await self._answer(request_line, reader, span)
                if answer is None:  # the client went away mid-request
                    return False
                status, payload, keep_alive, retry_after = answer
                if self._draining:
                    keep_alive = False  # drain: answer, then shut the connection
                with trace.span("serve.encode"):
                    status, content_type, body = _encode_response(status, payload)
                await self._write_response(
                    writer, status, content_type, body,
                    keep_alive=keep_alive, retry_after=retry_after,
                )
            return keep_alive and not writer.is_closing()
        finally:
            self._active_requests -= 1

    async def _answer(self, request_line: bytes, reader: asyncio.StreamReader, span):
        """Read the rest of one request and dispatch it.

        Returns
        -------
        tuple or None
            ``(status, payload, keep_alive, retry_after)``, with every
            error mapped to its status; None when the client went away.
        """
        keep_alive = True
        try:
            try:
                method, target, proto = request_line.decode("latin-1").split(" ", 2)
            except ValueError:
                raise ServiceError(400, "malformed request line", close=True) from None
            http11 = proto.strip().upper().startswith("HTTP/1.1")
            content_length = 0
            connection_token = None
            for _ in range(_MAX_HEADER_LINES):
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    try:
                        content_length = int(value.strip())
                    except ValueError:
                        raise ServiceError(400, "bad Content-Length", close=True) from None
                    if content_length < 0:
                        raise ServiceError(400, "bad Content-Length", close=True)
                elif name == "connection":
                    connection_token = value.strip().lower()
            else:
                raise ServiceError(400, "too many request headers", close=True)
            keep_alive = (
                connection_token != "close" if http11 else connection_token == "keep-alive"
            )
            if self.max_body_bytes is not None and content_length > self.max_body_bytes:
                # Decided from the Content-Length header alone — the body
                # is never read, so an oversized upload cannot balloon
                # server memory.  The unread bytes lose the framing,
                # hence close=True.
                raise ServiceError(
                    413,
                    f"request body of {content_length} bytes exceeds "
                    f"the {self.max_body_bytes}-byte cap",
                    close=True,
                )
            raw = await reader.readexactly(content_length) if content_length else b""
            with trace.span("serve.decode", bytes=content_length):
                body = _decode_body(raw)
            dispatch = self._dispatch(method.upper(), target, body, span)
            if self.request_timeout is not None and self.request_timeout > 0:
                try:
                    status, payload = await asyncio.wait_for(dispatch, self.request_timeout)
                except asyncio.TimeoutError:
                    self._m_timeouts.inc()
                    raise ServiceError(
                        503,
                        f"request deadline of {self.request_timeout}s exceeded",
                        retry_after=1,
                    ) from None
            else:
                status, payload = await dispatch
        except ServiceError as exc:
            return exc.status, {"error": str(exc)}, keep_alive and not exc.close, exc.retry_after
        except (ValueError, IndexError, TypeError) as exc:
            return 400, {"error": str(exc)}, keep_alive, None
        except (LookupError, FileNotFoundError) as exc:
            return 404, {"error": str(exc)}, keep_alive, None
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, keep_alive, None
        return status, payload, keep_alive, None

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: bytes,
        *,
        keep_alive: bool,
        retry_after: float | None = None,
    ) -> None:
        """Write one response; leave the connection open when keep-alive."""
        retry_header = (
            "" if retry_after is None else f"Retry-After: {max(1, int(retry_after))}\r\n"
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{retry_header}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
            if not keep_alive:
                writer.close()
                await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # client went away
            pass

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def run(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        ready: "threading.Event | None" = None,
    ) -> None:
        """Serve until :meth:`stop` — the current model loads before binding.

        Parameters
        ----------
        host, port:
            Bind address; port 0 picks a free one (read it from ``.port``).
        ready:
            Optional event set once the socket is bound and the initial
            model is loaded (used by :func:`start_server_in_thread`).
        """
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.host.refresh)
        self._shutdown = asyncio.Event()
        server = await asyncio.start_server(self._handle_connection, host, port)
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        self._install_signal_handlers(loop)
        poller = None
        if self.poll_interval > 0:
            poller = asyncio.ensure_future(self._poll_registry())
        if ready is not None:
            ready.set()
        try:
            async with server:
                await self._shutdown.wait()
        finally:
            if poller is not None:
                poller.cancel()
            self._remove_signal_handlers(loop)
            self._server = None
            # Kick idle keep-alive connections loose so their handler tasks
            # unwind before the loop closes (they are parked on readline).
            for open_writer in list(self._open_writers):
                if not open_writer.is_closing():
                    open_writer.close()
            for _ in range(20):
                if not self._open_writers:
                    break
                await asyncio.sleep(0.01)

    def _install_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        """Route SIGTERM/SIGINT to a graceful drain where the loop allows it.

        ``add_signal_handler`` only works on a main-thread loop on Unix;
        thread-hosted servers (tests, notebooks) simply skip installation
        and keep the process-default handling.
        """
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.begin_drain)
            except (ValueError, NotImplementedError, RuntimeError, OSError):
                continue
            self._installed_signals.append(signum)

    def _remove_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        """Undo :meth:`_install_signal_handlers` (best effort)."""
        for signum in self._installed_signals:
            try:
                loop.remove_signal_handler(signum)
            except (ValueError, NotImplementedError, RuntimeError, OSError):
                pass
        self._installed_signals = []

    def begin_drain(self) -> None:
        """Start a graceful shutdown: stop accepting, finish in-flight work.

        Idempotent — a second signal while draining does nothing (the
        ``drain_timeout`` bound guarantees eventual exit regardless).  Must
        be called from the event-loop thread (it is the signal-handler
        callback installed by :meth:`run`).
        """
        if self._draining:
            return
        self._draining = True
        self._m_drains.inc()
        asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        """Close the listener, await in-flight requests, then stop the loop.

        New connections are refused immediately; already-accepted requests
        keep running and their responses carry ``Connection: close``.  The
        wait is bounded by ``drain_timeout`` so a wedged handler cannot
        hold shutdown hostage.
        """
        if self._server is not None:
            self._server.close()
        deadline = time.monotonic() + self.drain_timeout
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        self.stop()

    async def _poll_registry(self) -> None:
        """Adopt newly published versions without an explicit reload call."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.poll_interval)
            try:
                await loop.run_in_executor(None, self.host.refresh)
            except Exception:  # registry transiently unreadable: keep serving
                pass

    def stop(self) -> None:
        """Signal :meth:`run` to shut the server down."""
        if self._shutdown is not None:
            self._shutdown.set()


class ServerHandle:
    """A server running on a daemon thread (tests, benchmarks, notebooks).

    Parameters
    ----------
    app:
        The running :class:`ServeApp`.
    thread:
        The daemon thread executing its event loop.
    loop:
        That thread's event loop (used to signal shutdown).
    """

    def __init__(
        self, app: ServeApp, thread: threading.Thread, loop: asyncio.AbstractEventLoop
    ) -> None:
        self.app = app
        self._thread = thread
        self._loop = loop

    @property
    def port(self) -> int:
        """TCP port the server is bound to."""
        return self.app.port

    @property
    def base_url(self) -> str:
        """Base URL (http://127.0.0.1:port) of the running server."""
        return f"http://127.0.0.1:{self.port}"

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the server and join its thread (bounded by ``timeout``)."""
        self._loop.call_soon_threadsafe(self.app.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        """Return self; the server is already running."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Stop the server on context exit."""
        self.stop()


def start_server_in_thread(
    registry,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    lru_size: int = 4,
    engine_kwargs: dict | None = None,
    **app_options,
) -> ServerHandle:
    """Spin up a serving thread over ``registry`` (a path or FactorStore).

    Returns once the socket is bound and the initial model is loaded; the
    handle exposes ``base_url`` and ``stop()`` (also a context manager).

    Parameters
    ----------
    registry:
        A :class:`~repro.serve.store.FactorStore` or a registry directory.
    host, port:
        Bind address; the default port 0 picks a free one.
    lru_size:
        Per-version engine cache size (see :class:`ModelHost`).
    engine_kwargs:
        Extra keyword arguments for every ``QueryEngine`` construction.
    **app_options:
        Keyword options of :class:`ServeApp` (``batch_window``,
        ``request_timeout``, ``metrics``, ...), with its defaults.

    Returns
    -------
    ServerHandle
        Handle with ``base_url``, ``port``, and ``stop()``.

    Raises
    ------
    RuntimeError
        When the server thread fails to bind within the startup timeout.
    """
    store = registry if isinstance(registry, FactorStore) else FactorStore(registry)
    model_host = ModelHost(store, lru_size=lru_size, engine_kwargs=engine_kwargs)
    app = ServeApp(model_host, **app_options)
    ready = threading.Event()
    failure: list[BaseException] = []
    loop = asyncio.new_event_loop()

    def _serve() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(app.run(host, port, ready=ready))
        except BaseException as exc:  # surface startup failures to the caller
            failure.append(exc)
            ready.set()
        finally:
            loop.close()

    thread = threading.Thread(target=_serve, name="repro-serve", daemon=True)
    thread.start()
    ready.wait(timeout=30.0)
    if failure:
        raise failure[0]
    if app.port is None:
        thread_alive = thread.is_alive()
        raise RuntimeError(
            f"server failed to start (thread alive: {thread_alive})"
        )
    return ServerHandle(app, thread, loop)
