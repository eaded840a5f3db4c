"""The query mix: seeded request bodies, in-process answers, response checks.

One request list serves three purposes: the HTTP load of serve-mixed, the
in-process ``QueryEngine`` timing of the same payloads (the ``queries.*``
layer), and the in-process probe that gives the decomposition workloads
their ``serve_cpu_ms``.
"""

from __future__ import annotations

import json
import time

import numpy as np

KINDS = ("similar", "similar_batch", "fold_in", "anomaly", "reconstruct")
PATHS = {
    "similar": "/v1/similar",
    "similar_batch": "/v1/similar",
    "fold_in": "/v1/fold-in",
    "anomaly": "/v1/anomaly",
    "reconstruct": "/v1/reconstruct",
}
NEIGHBORS = 10  # the service's default k


class Request:
    """One query: its class, decoded payload, unseen slice and HTTP body."""

    __slots__ = ("kind", "payload", "slice", "body")

    def __init__(self, kind: str, payload: dict, matrix=None, slice_json: bytes | None = None):
        self.kind = kind
        self.payload = payload
        self.slice = matrix
        head = json.dumps(payload).encode()
        # The unseen slice is encoded once per pool entry and spliced in;
        # in-process use needs no body.
        if matrix is None:
            self.body = head
        elif slice_json is None:
            self.body = None
        else:
            self.body = b'{"slice": ' + slice_json + b", " + head[1:]


def make_requests(rng, n: int, *, row_counts, pool, common: dict, encode=True) -> list[Request]:
    """``n`` requests drawn from the mix in ``common`` over a model's slices.

    ``pool`` holds unseen slices for fold-in and anomaly requests;
    ``row_counts`` bounds the slice and row indices of reconstructions.
    ``encode=False`` skips the HTTP bodies of fold-in and anomaly requests.
    """
    kinds = list(common["query_mix"])
    shares = np.array([common["query_mix"][k] for k in kinds], dtype=float)
    # Exact class counts, shuffled: a drawn mix would vary with the seed.
    counts = np.floor(shares / shares.sum() * n).astype(int)
    counts[np.argmax(shares)] += n - counts.sum()
    picks = np.repeat(np.arange(len(kinds)), counts)
    rng.shuffle(picks)
    encoded = [json.dumps(m.tolist()).encode() if encode else None for m in pool]
    n_slices = len(row_counts)
    out = []
    for pick in picks:
        kind = kinds[pick]
        if kind == "similar":
            out.append(Request(kind, {"mode": "slice", "index": int(rng.integers(n_slices))}))
        elif kind == "similar_batch":
            indices = rng.integers(n_slices, size=common["similar_batch_size"])
            out.append(Request(kind, {"mode": "slice", "indices": [int(i) for i in indices]}))
        elif kind in ("fold_in", "anomaly"):
            payload = {"seed": int(rng.integers(1 << 20))}
            if kind == "fold_in":
                payload["neighbors"] = common["fold_in_neighbors"]
            j = int(rng.integers(len(pool)))
            out.append(Request(kind, payload, pool[j], encoded[j]))
        else:
            k = int(rng.integers(n_slices))
            rows = rng.choice(row_counts[k], size=min(common["reconstruct_rows"], row_counts[k]),
                              replace=False)
            out.append(Request(kind, {"slice": k, "rows": sorted(int(r) for r in rows)}))
    return out


def answer(engine, request: Request):
    """Answer ``request`` directly on a ``QueryEngine``, as the service would."""
    payload = request.payload
    if request.kind == "similar":
        neighbors, scores = engine.similar([payload["index"]], NEIGHBORS, mode="slice")
        return {"neighbors": neighbors[0].tolist(), "scores": scores[0].tolist()}
    if request.kind == "similar_batch":
        neighbors, scores = engine.similar(payload["indices"], NEIGHBORS, mode="slice")
        return {"neighbors": neighbors.tolist(), "scores": scores.tolist()}
    if request.kind == "reconstruct":
        return {"values": engine.reconstruct(payload["slice"], rows=payload["rows"]).tolist()}
    fold = engine.fold_in_many([request.slice], seeds=[payload["seed"]])[0]
    if request.kind == "anomaly":
        return {"score": fold.relative_residual}
    neighbors, scores = engine.similar_to(fold.weights, payload["neighbors"], mode="slice")
    return {"weights": fold.weights.tolist(), "neighbors": neighbors[0].tolist(),
            "scores": scores[0].tolist()}


def time_in_process(engine, requests) -> list[tuple[str, float]]:
    """Closed loop of ``requests`` on one thread: ``(kind, CPU seconds)`` each.

    CPU time, like the decomposition metrics: the loop is single-threaded,
    so it equals wall time whenever the host does not take the CPU away.
    """
    samples = []
    for request in requests:
        start = time.process_time()
        answer(engine, request)
        samples.append((request.kind, time.process_time() - start))
    return samples


def http_view(request: Request, status, data: bytes):
    """Check one HTTP answer; returns ``(problem or None, decoded body)``."""
    if status != 200:
        return f"{request.kind}: HTTP {status}", None
    try:
        body = json.loads(data)
    except ValueError:
        return f"{request.kind}: response is not JSON", None
    rows = body.get("results") if request.kind == "similar_batch" else [body]
    if request.kind == "similar_batch" and (
        not isinstance(rows, list) or len(rows) != len(request.payload["indices"])
    ):
        return f"{request.kind}: wrong number of results", body
    need = {
        "similar": ("version", "index", "neighbors"),
        "similar_batch": ("version", "index", "neighbors"),
        "fold_in": ("version", "weights", "relative_residual", "neighbors"),
        "anomaly": ("version", "score", "residual_squared", "norm_squared"),
        "reconstruct": ("version", "slice", "shape", "values"),
    }[request.kind]
    for row in rows:
        if not isinstance(row, dict) or any(key not in row for key in need):
            return f"{request.kind}: an answer lacks one of {need}", body
    return None, body


def same_answer(request: Request, body: dict, expected: dict) -> bool:
    """Whether an HTTP body equals the in-process answer exactly."""
    if request.kind == "similar":
        got = {"neighbors": [n["index"] for n in body["neighbors"]],
               "scores": [n["score"] for n in body["neighbors"]]}
    elif request.kind == "fold_in":
        got = {"weights": body["weights"],
               "neighbors": [n["index"] for n in body["neighbors"]],
               "scores": [n["score"] for n in body["neighbors"]]}
    else:
        raise ValueError(f"no probe comparison for {request.kind}")
    return got == expected
