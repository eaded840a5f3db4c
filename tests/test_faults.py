"""Fault-injection harness tests and crash-recovery contracts.

Three layers are exercised under deterministic injected faults
(:mod:`repro.util.faults`):

* the process shard transport — worker crash/hang/corrupt replies recover
  by respawn-and-replay, bitwise-identically to a no-fault run;
* the durable stores — a writer SIGKILLed mid-``FactorStore.publish`` or
  mid-``MmapSliceStore`` append never corrupts what readers see;
* the streaming decomposition — a crash mid-``absorb_many`` resumes from
  the last checkpoint and converges to the same bits.

Subprocess cases ship their plan through the ``REPRO_FAULTS`` environment
variable, exactly as ``bench_shard --inject`` does.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.decomposition.sharded import sharded_dpar2
from repro.decomposition.streaming import StreamingDpar2
from repro.parallel.sharding import ProcessShardRunner, ShardWorkerError
from repro.serve.store import FactorStore
from repro.tensor.irregular import IrregularTensor
from repro.tensor.mmap_store import MmapSliceStore
from repro.util import faults
from repro.util.config import DecompositionConfig
from repro.util.faults import FaultInjected, FaultPlan, FaultSpec

# --------------------------------------------------------------------- #
# harness semantics
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="x", kind="meltdown")

    def test_json_round_trip(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="shard.call.*", kind="crash", shard=1, at=(2, 5)),
                FaultSpec(
                    site="serve.dispatch", kind="slow",
                    at=(), probability=0.5, generations=None, seconds=0.01,
                ),
            ),
            seed=42,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_wildcard_shard_and_generation_matching(self):
        spec = FaultSpec(site="shard.call.*", kind="crash", shard=1)
        assert spec.matches("shard.call.sweep_phase1", 1, 0)
        assert not spec.matches("shard.reply.sweep_phase1", 1, 0)
        assert not spec.matches("shard.call.sweep_phase1", 0, 0)
        # generations defaults to (0,): a respawned worker runs clean.
        assert not spec.matches("shard.call.sweep_phase1", 1, 1)
        every = FaultSpec(site="shard.call.*", kind="crash", generations=None)
        assert every.matches("shard.call.finalize", 3, 7)

    def test_occurrence_selection_is_counted_per_site(self):
        plan = FaultPlan(specs=(FaultSpec(site="s", kind="error", at=(2,)),))
        with faults.injected(plan):
            faults.check("s")  # occurrence 1: silent
            with pytest.raises(FaultInjected):
                faults.check("s")  # occurrence 2 fires
            faults.check("s")  # occurrence 3: silent again
            assert [f["occurrence"] for f in faults.fired()] == [2]

    def test_probability_firing_is_deterministic(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="s", kind="error", at=(), probability=0.5),),
            seed=9,
        )

        def pattern():
            hits = []
            with faults.injected(plan):
                for _ in range(64):
                    try:
                        faults.check("s")
                        hits.append(0)
                    except FaultInjected:
                        hits.append(1)
            return hits

        first = pattern()
        assert first == pattern()
        assert 0 < sum(first) < 64  # actually probabilistic, not all-or-nothing

    def test_corrupt_bytes_deterministic_and_scoped(self):
        blob = bytes(range(256)) * 3
        plan = FaultPlan(specs=(FaultSpec(site="reply", kind="corrupt"),), seed=1)
        with faults.injected(plan):
            damaged = faults.corrupt_bytes("reply", blob)
        with faults.injected(plan):
            again = faults.corrupt_bytes("reply", blob)
        assert damaged != blob and damaged == again
        with faults.injected(plan):
            untouched = faults.corrupt_bytes("other-site", blob)
        assert untouched == blob
        assert faults.corrupt_bytes("reply", blob) == blob  # no active plan

    def test_injected_restores_previous_state(self):
        outer = FaultPlan(specs=(FaultSpec(site="a", kind="error"),))
        inner = FaultPlan(specs=(FaultSpec(site="b", kind="error"),))
        with faults.injected(outer):
            with faults.injected(inner):
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        assert faults.active_plan() is None

    def test_check_is_noop_without_plan(self):
        faults.check("anything.at.all")  # must not raise


# --------------------------------------------------------------------- #
# process shard transport recovery
# --------------------------------------------------------------------- #


class _CounterShard:
    """Minimal stateful shard: recovery must restore ``total`` exactly."""

    def __init__(self, payload):
        self.base = payload["base"]
        self.total = float(payload["base"].sum())

    def startup(self):
        return self.total

    def accumulate(self, value):
        self.total += float(value) * float(self.base[0])
        return self.total

    def pid(self):
        return os.getpid()

    def die_noisily(self):
        os.write(2, b"shard-stderr-marker\n")
        os._exit(3)


def _make_counter(payload):
    return _CounterShard(payload)


def _counter_payloads():
    return [{"base": np.arange(1.0, 5.0) * (shard + 1)} for shard in range(2)]


def _run_accumulate_sequence(**runner_options):
    runner_options.setdefault("call_timeout", 30.0)
    runner_options.setdefault("heartbeat_interval", 0.05)
    with ProcessShardRunner(
        _make_counter, _counter_payloads(), **runner_options
    ) as runner:
        transcript = [runner.start()]
        for value in (1.5, -2.0, 3.25):
            transcript.append(runner.call("accumulate", value))
        return transcript, runner.fault_stats


class TestProcessRunnerRecovery:
    def test_no_fault_baseline_has_zero_restarts(self):
        _, stats = _run_accumulate_sequence()
        assert stats == {"worker_restarts": 0, "replayed_calls": 0, "events": []}

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(site="shard.call.startup", kind="crash", shard=0),
            FaultSpec(site="shard.call.accumulate", kind="crash", shard=1, at=(2,)),
            FaultSpec(
                site="shard.call.accumulate", kind="hang",
                shard=0, at=(3,), seconds=60.0,
            ),
            FaultSpec(site="shard.reply.accumulate", kind="corrupt", shard=1, at=(1,)),
        ],
        ids=["crash-startup", "crash-midcall", "hang", "corrupt-reply"],
    )
    def test_recovery_is_bitwise_identical(self, spec):
        baseline, _ = _run_accumulate_sequence()
        timeout = 1.0 if spec.kind == "hang" else 30.0
        with faults.injected(FaultPlan(specs=(spec,))):
            injected, stats = _run_accumulate_sequence(call_timeout=timeout)
        assert injected == baseline
        assert stats["worker_restarts"] == 1
        assert len(stats["events"]) == 1
        event = stats["events"][0]
        expected_kind = {"crash": "died", "corrupt": "corrupt"}.get(
            spec.kind, spec.kind
        )
        assert event["kind"] == expected_kind
        assert event["shard"] == spec.shard

    def test_replay_restores_worker_state(self):
        # Crash on the *third* accumulate: the respawned worker must replay
        # the first two to rebuild its running total before re-running it.
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="shard.call.accumulate", kind="crash", shard=0, at=(3,)
                ),
            )
        )
        baseline, _ = _run_accumulate_sequence()
        with faults.injected(plan):
            injected, stats = _run_accumulate_sequence()
        assert injected == baseline
        # startup + 2 completed accumulates replayed (startup not counted).
        assert stats["replayed_calls"] == 2

    def test_deterministic_error_raises_without_respawn(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="shard.call.accumulate", kind="error", shard=1, at=(1,)
                ),
            )
        )
        with faults.injected(plan):
            with ProcessShardRunner(
                _make_counter, _counter_payloads(), heartbeat_interval=0.05
            ) as runner:
                runner.start()
                with pytest.raises(ShardWorkerError) as excinfo:
                    runner.call("accumulate", 1.0)
                assert excinfo.value.kind == "error"
                assert excinfo.value.shard == 1
                assert excinfo.value.call == "accumulate"
                assert "FaultInjected" in str(excinfo.value)
                assert runner.fault_stats["worker_restarts"] == 0

    def test_respawn_budget_exhaustion(self):
        # generations=None: the crash re-fires in every respawned worker,
        # so the budget must run out and surface a typed error.
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="shard.call.accumulate", kind="crash",
                    shard=0, generations=None,
                ),
            )
        )
        with faults.injected(plan):
            with ProcessShardRunner(
                _make_counter, _counter_payloads(),
                heartbeat_interval=0.05, max_respawns=2,
            ) as runner:
                runner.start()
                with pytest.raises(ShardWorkerError) as excinfo:
                    runner.call("accumulate", 1.0)
        assert excinfo.value.kind == "died"
        assert "respawn budget exhausted" in str(excinfo.value)

    def test_worker_stderr_attached_to_error(self):
        with ProcessShardRunner(
            _make_counter, _counter_payloads(),
            heartbeat_interval=0.05, max_respawns=1,
        ) as runner:
            runner.start()
            with pytest.raises(ShardWorkerError) as excinfo:
                runner.call("die_noisily")
        assert excinfo.value.kind == "died"
        assert "shard-stderr-marker" in excinfo.value.stderr

    def test_close_reaps_workers(self):
        runner = ProcessShardRunner(
            _make_counter, _counter_payloads(), heartbeat_interval=0.05
        )
        runner.start()
        pids = runner.call("pid")
        runner.close()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        runner.close()  # idempotent


# --------------------------------------------------------------------- #
# sharded DPar2 under injected faults
# --------------------------------------------------------------------- #


def _factor_digest(result) -> str:
    digest = hashlib.sha256()
    for Qk in result.Q:
        digest.update(np.ascontiguousarray(Qk).tobytes())
    for factor in (result.H, result.S, result.V):
        digest.update(np.ascontiguousarray(factor).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def small_tensor():
    rng = np.random.default_rng(3)
    return IrregularTensor(
        [rng.standard_normal((n, 12)) for n in (14, 9, 20, 11, 16, 7)]
    )


def _sharded_config():
    return DecompositionConfig(
        rank=3, max_iterations=3, random_state=11,
        shards=2, shard_backend="process", shard_cells=4,
    )


class TestShardedDpar2UnderFaults:
    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(site="shard.call.startup", kind="crash", shard=1),
            FaultSpec(site="shard.call.sweep_phase1", kind="crash", shard=0, at=(2,)),
            FaultSpec(site="shard.call.sweep_phase3", kind="crash", shard=1, at=(1,)),
            FaultSpec(site="shard.call.finalize", kind="crash", shard=0),
            FaultSpec(site="shard.reply.sweep_phase2", kind="corrupt", shard=1),
        ],
        ids=[
            "crash-startup", "crash-sweep1", "crash-sweep3",
            "crash-finalize", "corrupt-reply",
        ],
    )
    # Respawned workers fork again from the payload the runner kept, so
    # recovery must not park slices in /dev/shm either.
    @pytest.mark.usefixtures("forbid_shm_segments")
    def test_bitwise_identical_after_recovery(self, small_tensor, spec):
        baseline = sharded_dpar2(small_tensor, _sharded_config())
        with faults.injected(FaultPlan(specs=(spec,))):
            recovered = sharded_dpar2(small_tensor, _sharded_config())
        assert _factor_digest(recovered) == _factor_digest(baseline)
        sharding = recovered.stats["sharding"]
        assert sharding["worker_restarts"] == 1
        assert len(sharding["faults"]["events"]) == 1
        assert baseline.stats["sharding"]["worker_restarts"] == 0

    def test_recovery_does_not_inflate_allreduce_accounting(self, small_tensor):
        baseline = sharded_dpar2(small_tensor, _sharded_config())
        spec = FaultSpec(site="shard.call.sweep_phase2", kind="crash", shard=0, at=(2,))
        with faults.injected(FaultPlan(specs=(spec,))):
            recovered = sharded_dpar2(small_tensor, _sharded_config())
        assert (
            recovered.stats["sharding"]["allreduce_bytes_per_sweep_per_shard"]
            == baseline.stats["sharding"]["allreduce_bytes_per_sweep_per_shard"]
        )
        assert recovered.stats["sharding"]["faults"]["replayed_calls"] > 0


# --------------------------------------------------------------------- #
# durable stores: writers killed mid-publish / mid-append
# --------------------------------------------------------------------- #


def _run_killed_subprocess(script: str, plan: FaultPlan, *argv: str):
    """Run ``script`` with ``plan`` in REPRO_FAULTS; assert it was SIGKILLed."""
    env = dict(os.environ)
    env["REPRO_FAULTS"] = plan.to_json()
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"expected SIGKILL, got {proc.returncode}\n"
        f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
    )


_PUBLISH_SCRIPT = """
import sys
import numpy as np
from repro.decomposition.dpar2 import dpar2
from repro.serve.store import FactorStore
from repro.tensor.irregular import IrregularTensor
from repro.util.config import DecompositionConfig

rng = np.random.default_rng(5)
tensor = IrregularTensor([rng.standard_normal((n, 6)) for n in (8, 10, 7)])
result = dpar2(tensor, DecompositionConfig(rank=2, max_iterations=2, random_state=5))
FactorStore(sys.argv[1]).publish(result)
print("published")  # unreachable under the injected crash
"""


class TestStoreCrashSafety:
    @pytest.fixture()
    def seeded_registry(self, tmp_path):
        rng = np.random.default_rng(5)
        tensor = IrregularTensor([rng.standard_normal((n, 6)) for n in (8, 10, 7)])
        from repro.decomposition.dpar2 import dpar2

        result = dpar2(
            tensor, DecompositionConfig(rank=2, max_iterations=2, random_state=5)
        )
        store = FactorStore(tmp_path / "registry")
        store.publish(result)
        return store

    def test_publisher_killed_before_rename_leaves_v1_live(self, seeded_registry):
        plan = FaultPlan(specs=(FaultSpec(site="store.publish.staged", kind="crash"),))
        _run_killed_subprocess(_PUBLISH_SCRIPT, plan, str(seeded_registry.root))
        reopened = FactorStore(seeded_registry.root)
        assert reopened.versions() == [1]
        assert reopened.latest_version() == 1
        assert reopened.latest().result.rank == 2  # previous version loads fine

    def test_publisher_killed_before_pointer_flip_keeps_v1_live(
        self, seeded_registry
    ):
        plan = FaultPlan(specs=(FaultSpec(site="store.publish.renamed", kind="crash"),))
        _run_killed_subprocess(_PUBLISH_SCRIPT, plan, str(seeded_registry.root))
        reopened = FactorStore(seeded_registry.root)
        # The rename completed, so v2 exists, is complete, and is pinnable
        # — but the pointer flip is the commit point, and it never ran:
        # readers keep serving v1.
        assert reopened.versions() == [1, 2]
        assert reopened.latest_version() == 1
        assert reopened.latest().result.rank == 2
        assert reopened.get(2).result.rank == 2

    @pytest.mark.parametrize(
        "site", ["mmap_store.append.data", "mmap_store.append.manifest"]
    )
    def test_mmap_writer_killed_mid_append(self, tmp_path, site):
        rng = np.random.default_rng(7)
        store_dir = tmp_path / "slices"
        MmapSliceStore.create(store_dir, [rng.random((5, 4)), rng.random((6, 4))])
        before = MmapSliceStore.open(store_dir)
        baseline = [before.load_slice(k, mmap=False) for k in range(2)]

        plan = FaultPlan(specs=(FaultSpec(site=site, kind="crash"),))
        script = """
        import sys
        import numpy as np
        from repro.tensor.mmap_store import MmapSliceStore

        store = MmapSliceStore.open(sys.argv[1])
        store.append(np.random.default_rng(8).random((7, 4)))
        print("appended")  # unreachable under the injected crash
        """
        _run_killed_subprocess(script, plan, str(store_dir))

        reopened = MmapSliceStore.open(store_dir)  # manifest still consistent
        assert len(reopened) == 2
        for k, expected in enumerate(baseline):
            np.testing.assert_array_equal(
                reopened.load_slice(k, mmap=False), expected
            )


# --------------------------------------------------------------------- #
# streaming: checkpoint / resume
# --------------------------------------------------------------------- #


def _stream_slices(count: int):
    rng = np.random.default_rng(13)
    return [rng.standard_normal((10 + (k % 3), 8)) for k in range(count)]


def _stream_config():
    return DecompositionConfig(rank=3, max_iterations=4, random_state=2)


_STREAM_SCRIPT = """
import sys
import numpy as np
from repro.decomposition.streaming import StreamingDpar2
from repro.util.config import DecompositionConfig

rng = np.random.default_rng(13)
slices = [rng.standard_normal((10 + (k % 3), 8)) for k in range(8)]
stream = StreamingDpar2(
    DecompositionConfig(rank=3, max_iterations=4, random_state=2),
    checkpoint_dir=sys.argv[1], checkpoint_every=2,
)
stream.absorb_many(slices)
print("absorbed")  # unreachable under the injected crash
"""


_WARM_STREAM_SCRIPT = """
import sys
import numpy as np
from repro.decomposition.streaming import StreamingDpar2
from repro.util.config import DecompositionConfig

rng = np.random.default_rng(13)
slices = [rng.standard_normal((10 + (k % 3), 8)) for k in range(8)]
stream = StreamingDpar2(
    DecompositionConfig(rank=3, max_iterations=4, random_state=2),
    checkpoint_dir=sys.argv[1], checkpoint_every=2,
)
stream.absorb_many(slices[:4])
stream.absorb_many(slices[4:])
print("absorbed")  # unreachable under the injected crash
"""


def _finish_warm_stream(directory, slices):
    """Resume ``_WARM_STREAM_SCRIPT``'s stream and make the calls it has left."""
    resumed = StreamingDpar2.resume_from(directory)
    done = resumed.n_slices
    if done < 4:
        resumed.absorb_many(slices[done:4])
    resumed.absorb_many(slices[max(done, 4):])
    return resumed.result()


class TestStreamingCheckpointResume:
    def test_resume_is_bitwise_identical(self, tmp_path):
        slices = _stream_slices(10)

        plain = StreamingDpar2(
            _stream_config(),
            checkpoint_dir=tmp_path / "a", checkpoint_every=3,
        )
        plain.absorb_many(slices[:6])
        at_crash = _factor_digest(plain.result())
        plain.absorb_many(slices[6:])
        expected = _factor_digest(plain.result())

        interrupted = StreamingDpar2(
            _stream_config(),
            checkpoint_dir=tmp_path / "b", checkpoint_every=3,
        )
        interrupted.absorb_many(slices[:6])
        del interrupted  # "crash": all in-memory state is lost

        resumed = StreamingDpar2.resume_from(tmp_path / "b")
        assert resumed.n_slices == 6
        assert resumed.stats["checkpoint_resumes"] == 1
        # The refresh that ended the first call is replayed: the same model.
        assert _factor_digest(resumed.result()) == at_crash
        resumed.absorb_many(slices[6:])
        assert resumed.result().stats["streaming"]["warm_start"] is True
        assert _factor_digest(resumed.result()) == expected

    def test_sigkill_mid_absorb_resumes_bitwise(self, tmp_path):
        slices = _stream_slices(8)
        baseline = StreamingDpar2(
            _stream_config(),
            checkpoint_dir=tmp_path / "base", checkpoint_every=2,
        )
        baseline.absorb_many(slices)
        expected = _factor_digest(baseline.result())

        # The worker is SIGKILLed entering its third absorb chunk, i.e.
        # after 4 slices and 2 durable checkpoints.
        plan = FaultPlan(
            specs=(FaultSpec(site="streaming.absorb", kind="crash", at=(3,)),)
        )
        script = """
        import sys
        import numpy as np
        from repro.decomposition.streaming import StreamingDpar2
        from repro.util.config import DecompositionConfig

        rng = np.random.default_rng(13)
        slices = [rng.standard_normal((10 + (k % 3), 8)) for k in range(8)]
        stream = StreamingDpar2(
            DecompositionConfig(rank=3, max_iterations=4, random_state=2),
            checkpoint_dir=sys.argv[1], checkpoint_every=2,
        )
        stream.absorb_many(slices)
        print("absorbed")  # unreachable under the injected crash
        """
        ckpt_dir = tmp_path / "crashed"
        _run_killed_subprocess(script, plan, str(ckpt_dir))

        resumed = StreamingDpar2.resume_from(ckpt_dir)
        assert resumed.n_slices == 4
        resumed.absorb_many(slices[resumed.n_slices:])
        assert _factor_digest(resumed.result()) == expected

    @pytest.mark.parametrize(
        "site, on_disk",
        [
            # Killed before the rename: the second checkpoint is only a
            # hidden staging directory, which nothing lists.
            ("streaming.checkpoint.staged", ["ckpt-0000001"]),
            # Killed after it: the second checkpoint is complete but LATEST
            # still names the first, so resume starts there and the next
            # checkpoint must number past the orphan.
            ("streaming.checkpoint.renamed", ["ckpt-0000001", "ckpt-0000002"]),
        ],
        ids=["staged", "renamed"],
    )
    def test_sigkill_mid_checkpoint_resumes_bitwise(self, tmp_path, site, on_disk):
        slices = _stream_slices(8)
        baseline = StreamingDpar2(
            _stream_config(),
            checkpoint_dir=tmp_path / "base", checkpoint_every=2,
        )
        baseline.absorb_many(slices)
        expected = _factor_digest(baseline.result())

        plan = FaultPlan(specs=(FaultSpec(site=site, kind="crash", at=(2,)),))
        ckpt_dir = tmp_path / "crashed"
        _run_killed_subprocess(_STREAM_SCRIPT, plan, str(ckpt_dir))

        listed = sorted(p.name for p in ckpt_dir.iterdir() if p.name.startswith("ckpt-"))
        assert listed == on_disk
        assert all((ckpt_dir / name / "state.json").exists() for name in listed)
        assert (ckpt_dir / "LATEST").read_text() == "1\n"

        resumed = StreamingDpar2.resume_from(ckpt_dir)
        assert resumed.n_slices == 2
        resumed.absorb_many(slices[2:])
        assert _factor_digest(resumed.result()) == expected
        assert StreamingDpar2.resume_from(ckpt_dir).n_slices == 8

    def test_sigkill_after_a_refresh_resumes_warm_and_bitwise(self, tmp_path):
        """The checkpoint carries the last refresh's factors, so the resumed
        stream's next refresh warm-starts from the same bytes."""
        slices = _stream_slices(8)
        baseline = StreamingDpar2(
            _stream_config(), checkpoint_dir=tmp_path / "base", checkpoint_every=2
        )
        baseline.absorb_many(slices[:4])
        baseline.absorb_many(slices[4:])
        assert baseline.result().stats["streaming"]["warm_start"] is True
        expected = _factor_digest(baseline.result())

        # Killed entering its fourth absorb chunk: the first absorb_many has
        # refreshed, and the checkpoint after the third chunk holds 6 slices
        # and that refresh's factors.
        plan = FaultPlan(
            specs=(FaultSpec(site="streaming.absorb", kind="crash", at=(4,)),)
        )
        ckpt_dir = tmp_path / "crashed"
        _run_killed_subprocess(_WARM_STREAM_SCRIPT, plan, str(ckpt_dir))
        latest = f"ckpt-{int((ckpt_dir / 'LATEST').read_text()):07d}"
        assert all((ckpt_dir / latest / f"{name}.npy").exists() for name in "HVS")
        stripped = tmp_path / "stripped"
        shutil.copytree(ckpt_dir, stripped)
        for name in "HVS":
            (stripped / latest / f"{name}.npy").unlink()

        assert StreamingDpar2.resume_from(ckpt_dir).n_slices == 6
        resumed = _finish_warm_stream(ckpt_dir, slices)
        assert resumed.stats["streaming"]["warm_start"] is True
        assert _factor_digest(resumed) == expected
        # Without the factor files the resumed refresh starts cold and
        # leaves the uninterrupted run's bits.
        cold = _finish_warm_stream(stripped, slices)
        assert cold.stats["streaming"]["warm_start"] is False
        assert _factor_digest(cold) != expected

    @pytest.mark.parametrize(
        "site, at, resumed_at",
        [
            # The first call has refreshed; the checkpoint after its refresh
            # is staged (or renamed but not pointed to) when the kill comes.
            # Resume starts at its first chunk and replays the rest.
            ("streaming.checkpoint.staged", 2, 2),
            ("streaming.checkpoint.renamed", 2, 2),
            # Between the two calls: the last checkpoint records the
            # refreshed model, and resume replays that refresh.
            ("streaming.absorb", 3, 4),
        ],
        ids=["refresh-checkpoint-staged", "refresh-checkpoint-renamed", "between-calls"],
    )
    def test_sigkill_around_a_refresh_resumes_bitwise(
        self, tmp_path, site, at, resumed_at
    ):
        slices = _stream_slices(8)
        baseline = StreamingDpar2(
            _stream_config(), checkpoint_dir=tmp_path / "base", checkpoint_every=2
        )
        baseline.absorb_many(slices[:4])
        baseline.absorb_many(slices[4:])

        plan = FaultPlan(specs=(FaultSpec(site=site, kind="crash", at=(at,)),))
        ckpt_dir = tmp_path / "crashed"
        _run_killed_subprocess(_WARM_STREAM_SCRIPT, plan, str(ckpt_dir))
        assert StreamingDpar2.resume_from(ckpt_dir).n_slices == resumed_at

        resumed = _finish_warm_stream(ckpt_dir, slices)
        assert resumed.stats["streaming"]["warm_start"] is True
        assert _factor_digest(resumed) == _factor_digest(baseline.result())

    def test_a_refresh_by_result_is_checkpointed(self, tmp_path):
        """``result()`` on a checkpointed state writes one more checkpoint, so
        a crash right after it keeps that refresh as the next one's start."""
        slices = _stream_slices(8)

        def absorb_then_read(directory):
            stream = StreamingDpar2(
                _stream_config(), checkpoint_dir=directory, checkpoint_every=2
            )
            stream.absorb_many(slices[:4], refresh=False)
            stream.result()
            return stream

        plain = absorb_then_read(tmp_path / "plain")
        plain.absorb_many(slices[4:])
        crashed = absorb_then_read(tmp_path / "ck")
        assert crashed.stats["checkpoints_written"] == 3
        del crashed

        resumed = StreamingDpar2.resume_from(tmp_path / "ck")
        resumed.absorb_many(slices[4:])
        assert resumed.result().stats["streaming"]["warm_start"] is True
        assert _factor_digest(resumed.result()) == _factor_digest(plain.result())

    def test_fresh_stream_refuses_another_streams_directory(self, tmp_path):
        slices = _stream_slices(6)
        first = StreamingDpar2(
            _stream_config(), checkpoint_dir=tmp_path, checkpoint_every=2
        )
        first.absorb_many(slices[:4])
        with pytest.raises(ValueError, match="resume_from"):
            StreamingDpar2(
                _stream_config(), checkpoint_dir=tmp_path, checkpoint_every=2
            )
        resumed = StreamingDpar2.resume_from(tmp_path)
        assert resumed.n_slices == 4
        resumed.absorb_many(slices[4:])
        assert StreamingDpar2.resume_from(tmp_path).n_slices == 6

    def test_checkpoint_recorded_with_process_backend_resumes(self, tmp_path):
        """A checkpoint whose config names the retired ``process``
        execution backend resumes on ``thread``, bitwise-identically."""
        slices = _stream_slices(10)
        plain = StreamingDpar2(
            _stream_config(),
            checkpoint_dir=tmp_path / "a", checkpoint_every=3,
        )
        plain.absorb_many(slices[:6])
        plain.absorb_many(slices[6:])
        expected = _factor_digest(plain.result())

        interrupted = StreamingDpar2(
            _stream_config(),
            checkpoint_dir=tmp_path / "b", checkpoint_every=3,
        )
        interrupted.absorb_many(slices[:6])
        del interrupted
        seq = int((tmp_path / "b" / "LATEST").read_text())
        state_path = tmp_path / "b" / f"ckpt-{seq:07d}" / "state.json"
        state = json.loads(state_path.read_text())
        state["config"]["backend"] = "process"
        state_path.write_text(json.dumps(state))

        resumed = StreamingDpar2.resume_from(tmp_path / "b")
        assert resumed.config.backend == "thread"
        resumed.absorb_many(slices[6:])
        assert _factor_digest(resumed.result()) == expected

    def test_checkpoints_pruned_and_counted(self, tmp_path):
        stream = StreamingDpar2(
            _stream_config(),
            checkpoint_dir=tmp_path, checkpoint_every=2, keep_checkpoints=2,
        )
        stream.absorb_many(_stream_slices(8))
        assert stream.stats["checkpoints_written"] == 4
        kept = sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("ckpt-"))
        assert len(kept) == 2
        pointer = (tmp_path / "LATEST").read_text().strip()
        assert f"ckpt-{int(pointer):07d}" == kept[-1]

    def test_stats_flow_into_result_and_publish_meta(self, tmp_path):
        stream = StreamingDpar2(
            _stream_config(), checkpoint_dir=tmp_path / "ck", checkpoint_every=2
        )
        stream.absorb_many(_stream_slices(4))
        stats = stream.result().stats["streaming"]
        assert stats["checkpoints_written"] == 2
        assert stats["checkpoint_resumes"] == 0
        store = FactorStore(tmp_path / "registry")
        version = stream.publish_to(store)
        meta = store.get(version).meta
        assert meta["checkpoint_resumes"] == 0
        assert meta["worker_restarts"] == 0


class TestResumeConfigOverride:
    """``resume_from(config=...)`` may change only bitwise-neutral knobs."""

    @pytest.fixture
    def refreshed(self, tmp_path):
        """A checkpoint written after a refresh, and the uninterrupted digest."""
        slices = _stream_slices(8)
        plain = StreamingDpar2(
            _stream_config(), checkpoint_dir=tmp_path / "plain", checkpoint_every=2
        )
        plain.absorb_many(slices[:4])
        plain.absorb_many(slices[4:])
        stream = StreamingDpar2(
            _stream_config(), checkpoint_dir=tmp_path / "ck", checkpoint_every=2
        )
        stream.absorb_many(slices[:4])
        return tmp_path / "ck", slices[4:], _factor_digest(plain.result())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rank", 5),
            ("dtype", "float32"),
            ("random_state", 9),
            ("shards", 2),
            ("power_iterations", 3),
            ("tolerance", 0.5),
        ],
    )
    def test_an_arithmetic_override_raises_before_any_array_is_read(
        self, refreshed, monkeypatch, field, value
    ):
        directory, _, _ = refreshed

        def refuse(*args, **kwargs):
            raise AssertionError("an array was read")

        monkeypatch.setattr(np, "load", refuse)
        with pytest.raises(ValueError, match=rf"\b{field} \("):
            StreamingDpar2.resume_from(
                directory, config=_stream_config().with_(**{field: value})
            )

    def test_every_differing_field_is_named(self, refreshed):
        directory, _, _ = refreshed
        with pytest.raises(ValueError) as excinfo:
            StreamingDpar2.resume_from(
                directory,
                config=_stream_config().with_(rank=5, dtype="float32", n_threads=2),
            )
        message = str(excinfo.value)
        assert "rank (3 -> 5)" in message
        assert "dtype ('float64' -> 'float32')" in message
        assert "n_threads (" not in message

    @pytest.mark.parametrize(
        "override",
        [{"n_threads": 2}, {"backend": "serial"}, {"max_iterations": 9},
         {"shard_cells": 3}],
        ids=["n_threads", "backend", "max_iterations", "shard_cells-unsharded"],
    )
    def test_a_neutral_override_resumes_bitwise(self, refreshed, override):
        directory, rest, expected = refreshed
        resumed = StreamingDpar2.resume_from(
            directory, config=_stream_config().with_(**override)
        )
        resumed.absorb_many(rest)
        assert resumed.result().stats["streaming"]["warm_start"] is True
        assert _factor_digest(resumed.result()) == expected

    def test_the_shard_count_may_change_between_sharded_settings(self, tmp_path):
        sharded = _stream_config().with_(shards=2, shard_backend="serial", shard_cells=4)
        slices = _stream_slices(8)
        plain = StreamingDpar2(sharded, checkpoint_dir=tmp_path / "plain", checkpoint_every=2)
        plain.absorb_many(slices[:4])
        plain.absorb_many(slices[4:])
        stream = StreamingDpar2(sharded, checkpoint_dir=tmp_path / "ck", checkpoint_every=2)
        stream.absorb_many(slices[:4])
        resumed = StreamingDpar2.resume_from(
            tmp_path / "ck", config=sharded.with_(shards=3)
        )
        resumed.absorb_many(slices[4:])
        assert _factor_digest(resumed.result()) == _factor_digest(plain.result())
        with pytest.raises(ValueError, match=r"shard_cells \(4 -> 2\)"):
            StreamingDpar2.resume_from(tmp_path / "ck", config=sharded.with_(shard_cells=2))


class TestOnDiskLayout:
    """The file names inside a published version and a checkpoint.

    Registries and checkpoint directories written by earlier builds load
    unchanged only while these stay put.
    """

    def test_version_and_checkpoint_file_names(self, tmp_path):
        stream = StreamingDpar2(
            _stream_config(), checkpoint_dir=tmp_path / "ck", checkpoint_every=3
        )
        stream.absorb_many(_stream_slices(3))
        store = FactorStore(tmp_path / "registry")
        store.publish(stream.result())

        def listing(path):
            return sorted(p.name for p in path.iterdir())

        assert listing(store.root) == ["LATEST", "registry.json", "versions"]
        assert json.loads((store.root / "registry.json").read_text()) == {
            "format": "repro-factor-registry", "schema_version": 1,
        }
        assert (store.root / "LATEST").read_text() == "1\n"
        assert listing(store.root / "versions") == ["v0000001"]
        assert listing(store.version_dir(1)) == [
            "H.npy", "Q_000000.npy", "Q_000001.npy", "Q_000002.npy",
            "S.npy", "V.npy", "model.json",
        ]
        assert json.loads((store.version_dir(1) / "model.json").read_text())[
            "schema_version"
        ] == 1

        ckpt = tmp_path / "ck"
        assert listing(ckpt) == ["LATEST", "ckpt-0000001"]
        assert (ckpt / "LATEST").read_text() == "1\n"
        assert listing(ckpt / "ckpt-0000001") == [
            "A_000000.npy", "A_000001.npy", "A_000002.npy", "D.npy",
            "G_000000.npy", "G_000001.npy", "G_000002.npy", "state.json",
        ]
        state = json.loads((ckpt / "ckpt-0000001" / "state.json").read_text())
        assert (state["format"], state["seq"], state["n_slices"]) == (1, 1, 3)

    def test_a_checkpoint_after_a_refresh_holds_its_factors(self, tmp_path):
        stream = StreamingDpar2(
            _stream_config(), checkpoint_dir=tmp_path / "ck", checkpoint_every=3
        )
        slices = _stream_slices(6)
        stream.absorb_many(slices[:3])  # the first refresh, then checkpoint 1
        stream.absorb_many(slices[3:], refresh=False)  # checkpoint 2

        ckpt = tmp_path / "ck" / "ckpt-0000002"
        assert sorted(p.name for p in ckpt.iterdir()) == [
            *(f"A_{k:06d}.npy" for k in range(6)), "D.npy",
            *(f"G_{k:06d}.npy" for k in range(6)),
            "H.npy", "S.npy", "V.npy", "state.json",
        ]
        state = json.loads((ckpt / "state.json").read_text())
        assert (state["format"], state["seq"], state["n_slices"]) == (1, 2, 6)
        # The factors of the refresh over the first 3 slices.
        assert np.load(ckpt / "S.npy").shape == (3, 3)


# --------------------------------------------------------------------- #
# env bootstrap
# --------------------------------------------------------------------- #


class TestEnvBootstrap:
    def test_plan_activates_from_environment(self, tmp_path):
        plan = FaultPlan(specs=(FaultSpec(site="boot.site", kind="error"),), seed=3)
        env = dict(os.environ)
        env["REPRO_FAULTS"] = plan.to_json()
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "from repro.util import faults\n"
            "plan = faults.active_plan()\n"
            "assert plan is not None and plan.seed == 3, plan\n"
            "try:\n"
            "    faults.check('boot.site')\n"
            "except faults.FaultInjected:\n"
            "    print('fired')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "fired"

    def test_garbage_env_is_ignored(self):
        env = dict(os.environ)
        env["REPRO_FAULTS"] = "{not json"
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "from repro.util import faults; "
                "assert faults.active_plan() is None; print('clean')",
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "clean"


def test_plan_json_is_valid_json():
    plan = FaultPlan(specs=(FaultSpec(site="x", kind="crash"),), seed=4)
    payload = json.loads(plan.to_json())
    assert payload["seed"] == 4
    assert payload["specs"][0]["site"] == "x"
