"""Tests for trace spans: determinism, shard invariance, bitwise factors."""

import hashlib
import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.data.registry import load_dataset
from repro.decomposition.dpar2 import dpar2
from repro.decomposition.streaming import StreamingDpar2
from repro.obs import trace
from repro.tensor.random import low_rank_irregular_tensor
from repro.util.config import DecompositionConfig


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    trace.stop()


@pytest.fixture
def tensor():
    return low_rank_irregular_tensor(
        [20, 25, 15, 30], n_columns=12, rank=3, noise=0.05, random_state=7
    )


def _config(**overrides):
    base = dict(rank=3, max_iterations=4, random_state=0)
    base.update(overrides)
    return DecompositionConfig(**base)


def _traced_run(tensor, config, path):
    trace.start(path)
    try:
        return dpar2(tensor, config)
    finally:
        trace.stop()


def _factor_digest(result) -> str:
    digest = hashlib.sha256()
    for Qk in result.Q:
        digest.update(np.ascontiguousarray(Qk).tobytes())
    for factor in (result.H, result.S, result.V):
        digest.update(np.ascontiguousarray(factor).tobytes())
    return digest.hexdigest()


class TestSpanMechanics:
    def test_disabled_tracing_is_noop(self):
        assert not trace.enabled()
        with trace.span("anything", key=1) as span:
            span.annotate(more=2)
        assert span.span_id is None

    def test_span_ids_number_the_tree(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.start(path)
        with trace.span("root"):
            with trace.span("child"):
                pass
            with trace.span("child"):
                pass
        trace.stop()
        spans = trace.load_spans(path)
        assert trace.tree_shape(spans) == [
            (1, None, "root"),
            (2, 1, "child"),
            (3, 1, "child"),
        ]
        for record in spans:
            assert record["dur"] >= 0.0
            assert record["start"] >= 0.0

    def test_annotations_survive_to_the_sink(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.start(path)
        with trace.span("work", phase="a") as span:
            span.annotate(result=42)
        trace.stop()
        (span_record,) = trace.load_spans(path)
        assert span_record["attrs"] == {"phase": "a", "result": 42}

    def test_load_spans_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = {"id": 1, "parent": None, "name": "x", "start": 0.0, "dur": 0.1, "attrs": {}}
        path.write_text(json.dumps(good) + "\n" + '{"id": 2, "parent"' + "\n")
        assert trace.tree_shape(trace.load_spans(path)) == [(1, None, "x")]

    def test_exception_still_emits_the_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.start(path)
        with pytest.raises(RuntimeError):
            with trace.span("doomed"):
                raise RuntimeError("boom")
        trace.stop()
        assert trace.tree_shape(trace.load_spans(path)) == [(1, None, "doomed")]


class TestDeterminism:
    def test_identical_runs_identical_span_trees(self, tensor, tmp_path):
        config = _config()
        _traced_run(tensor, config, tmp_path / "a.jsonl")
        _traced_run(tensor, config, tmp_path / "b.jsonl")
        shape_a = trace.tree_shape(trace.load_spans(tmp_path / "a.jsonl"))
        shape_b = trace.tree_shape(trace.load_spans(tmp_path / "b.jsonl"))
        assert shape_a == shape_b
        assert shape_a  # non-empty: the run actually traced

    def test_factors_bitwise_identical_with_tracing(self, tensor, tmp_path):
        config = _config()
        plain = dpar2(tensor, config)
        traced = _traced_run(tensor, config, tmp_path / "t.jsonl")
        assert _factor_digest(plain) == _factor_digest(traced)

    def test_sharded_span_tree_invariant_to_shard_count(self, tensor, tmp_path):
        shapes = {}
        for shards in (None, 2, 3):
            config = _config(shards=shards, shard_backend="serial")
            _traced_run(tensor, config, tmp_path / f"s{shards}.jsonl")
            spans = trace.load_spans(tmp_path / f"s{shards}.jsonl")
            shapes[shards] = trace.tree_shape(spans)
        assert shapes[None] == shapes[2] == shapes[3]
        names = {name for _, _, name in shapes[2]}
        assert "dpar2.sweep_phase1" in names

    def test_sweep_spans_nest_under_the_run(self, tensor, tmp_path):
        path = tmp_path / "t.jsonl"
        _traced_run(tensor, _config(), path)
        spans = trace.load_spans(path)
        by_id = {record["id"]: record for record in spans}
        roots = [record for record in spans if record["parent"] is None]
        assert [record["name"] for record in roots] == ["dpar2.run"]
        sweeps = [record for record in spans if record["name"] == "dpar2.sweep"]
        assert len(sweeps) == 4
        assert all(by_id[record["parent"]]["name"] == "dpar2.run" for record in sweeps)


class TestStreamingSpans:
    @staticmethod
    def _traced_stream(tensor, path):
        trace.start(path)
        try:
            stream = StreamingDpar2(_config(), refresh_iterations=2)
            stream.absorb_many(list(tensor.slices))
        finally:
            trace.stop()
        return trace.load_spans(path)

    def test_refresh_span_holds_the_solve(self, tensor, tmp_path):
        spans = self._traced_stream(tensor, tmp_path / "a.jsonl")
        again = self._traced_stream(tensor, tmp_path / "b.jsonl")
        assert trace.tree_shape(spans) == trace.tree_shape(again)
        by_id = {record["id"]: record for record in spans}
        roots = [record["name"] for record in spans if record["parent"] is None]
        assert roots == ["streaming.absorb", "streaming.refresh"]
        (run,) = [record for record in spans if record["name"] == "dpar2.run"]
        assert by_id[run["parent"]]["name"] == "streaming.refresh"
        (refresh,) = [record for record in spans if record["name"] == "streaming.refresh"]
        assert refresh["attrs"] == {"slices": tensor.n_slices, "warm_start": False}


class TestDataSpans:
    def test_load_dataset_emits_one_generate_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.start(path)
        try:
            tensor = load_dataset("pems-sf", random_state=0)
        finally:
            trace.stop()
        spans = trace.load_spans(path)
        assert [(s["name"], s["parent"]) for s in spans] == [("data.generate", None)]
        assert spans[0]["attrs"] == {"dataset": "pems_sf", "slices": tensor.n_slices}

    def test_decompose_cli_traces_generation_beside_the_run(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert cli_main([
            "decompose", "traffic", "--rank", "4", "--max-iterations", "2",
            "--trace", str(path),
        ]) == 0
        roots = [s["name"] for s in trace.load_spans(path) if s["parent"] is None]
        assert roots == ["data.generate", "dpar2.run"]


class TestServeSpans:
    def test_decode_and_encode_spans_once_per_request(self, tensor, tmp_path):
        import urllib.error
        import urllib.request

        from repro.serve.service import start_server_in_thread
        from repro.serve.store import FactorStore

        store = FactorStore(tmp_path / "registry")
        store.publish(dpar2(tensor, _config()))
        requests = [
            ("GET", "/healthz", None),
            ("POST", "/v1/similar", {"index": 0, "k": 2}),
            ("POST", "/v1/fold-in", {"slice": np.ones((4, 12)).tolist()}),
            ("POST", "/v1/similar", {"index": -1}),  # a 400 is traced alike
        ]
        path = tmp_path / "t.jsonl"
        with start_server_in_thread(store) as handle:
            trace.start(path)
            for method, route, body in requests:
                data = None if body is None else json.dumps(body).encode()
                request = urllib.request.Request(
                    handle.base_url + route, data=data, method=method
                )
                try:
                    urllib.request.urlopen(request, timeout=15).read()
                except urllib.error.HTTPError as exc:
                    assert exc.code == 400
        # Stopped after the server: a request's span closes once its
        # response is written, which the client may see first.
        trace.stop()
        spans = trace.load_spans(path)
        roots = [s for s in spans if s["name"] == "serve.request"]
        assert [(s["attrs"]["method"], s["attrs"]["path"]) for s in roots] == [
            (method, route) for method, route, _ in requests
        ]
        for root in roots:
            children = [s["name"] for s in spans if s["parent"] == root["id"]]
            assert children.count("serve.decode") == 1
            assert children.count("serve.encode") == 1
        for span in spans:
            if span["name"] in ("serve.decode", "serve.encode"):
                assert span["parent"] in {root["id"] for root in roots}


class TestSummarize:
    def test_aggregates_siblings(self, tensor, tmp_path):
        path = tmp_path / "t.jsonl"
        _traced_run(tensor, _config(), path)
        text = trace.summarize(path)
        lines = text.splitlines()
        assert lines[0].startswith("dpar2.run")
        assert sum("dpar2.sweep " in line for line in lines) == 1  # collapsed
        assert any("4x" in line for line in lines)

    def test_empty_trace_reports_no_spans(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert "no spans" in trace.summarize(path)
