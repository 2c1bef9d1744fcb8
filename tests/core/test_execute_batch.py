"""The batch execution path is lockstep-identical to sequential calls.

``TemplateSession.execute_batch`` transforms and looks up a block
vectorized — one z pass, one density lookup — and when a synopsis
mutation lands mid-batch it re-queries the rows that mutation changed.
Each row is decided when it is served, from the estimates of that
moment, so two identically seeded sessions — one executing per
instance, one in batches — must produce bit-identical decision streams.
That guarantee is what lets the runtime simulation and the service
facade route through the batch hot path without changing any
reproduced number.
"""

import numpy as np
import pytest

from repro.config import PPCConfig, TraceConfig
from repro.core import framework as framework_module
from repro.core.framework import PPCFramework, TemplateSession
from repro.exceptions import PredictionError, WorkloadError
from repro.lsh.stacked import StackedEnsemble
from repro.obs import names as metric_names
from repro.obs.tracing import DecisionTracer
from repro.tpch import plan_space_for
from repro.workload import QueryInstance, RandomTrajectoryWorkload
from repro.workload.runner import decision_digest


def _config(**overrides) -> PPCConfig:
    kwargs = dict(
        confidence_threshold=0.7,
        mean_invocation_probability=0.05,
        drift_response=False,
    )
    kwargs.update(overrides)
    return PPCConfig(**kwargs)



def _workload(n=200, seed=4):
    return RandomTrajectoryWorkload(2, spread=0.05, seed=seed).generate(n)


class TestSessionExecuteBatch:
    @pytest.mark.parametrize("chunk", [1, 7, 32, 200])
    def test_lockstep_with_sequential_execute(self, tiny_space, chunk):
        sequential = TemplateSession(tiny_space, _config(), seed=11)
        batched = TemplateSession(tiny_space, _config(), seed=11)
        workload = _workload()
        expected = [sequential.execute(x) for x in workload]
        got = []
        for start in range(0, workload.shape[0], chunk):
            got.extend(
                batched.execute_batch(workload[start : start + chunk])
            )
        assert len(got) == len(expected)
        for a, b in zip(expected, got, strict=True):
            assert decision_digest(a) == decision_digest(b)
        assert (
            sequential.optimizer_invocations
            == batched.optimizer_invocations
        )

    def test_cold_start_mutations_invalidate_the_tail(self, tiny_space):
        """From an empty cache every early instance inserts, so the
        whole warm-up phase runs through tail re-prefetches — and must
        still match sequential execution exactly."""
        sequential = TemplateSession(tiny_space, _config(), seed=3)
        batched = TemplateSession(tiny_space, _config(), seed=3)
        workload = _workload(n=60, seed=9)
        expected = [decision_digest(sequential.execute(x)) for x in workload]
        got = [decision_digest(r) for r in batched.execute_batch(workload)]
        assert got == expected
        assert batched.predictor.mutation_count > 0

    def test_traced_instances_keep_parity(self, q1_space):
        """Sampled traces re-predict through the scalar traced path;
        decisions must not move."""
        sequential = TemplateSession(q1_space, _config(), seed=5)
        batched = TemplateSession(q1_space, _config(), seed=5)
        workload = _workload(n=120, seed=6)
        expected = [decision_digest(sequential.execute(x)) for x in workload]
        got = [decision_digest(r) for r in batched.execute_batch(workload)]
        assert got == expected
        assert len(batched.tracer.traces()) == len(
            sequential.tracer.traces()
        )

    def test_predict_timer_observes_once_per_instance(self, q1_space):
        session = TemplateSession(q1_space, _config(), seed=7)
        session.execute_batch(_workload(n=40, seed=8))
        digest = session.metrics.histogram_summary(
            metric_names.STAGE_SECONDS, template="Q1", stage="predict"
        )
        assert digest["count"] == 40

    def test_profiler_and_predict_timer_agree_on_the_batch_share(
        self, q1_space
    ):
        # Both read the predict span, which each instance is charged
        # its amortized share of the vectorized prefetch.
        from repro.config import ProfileConfig

        session = TemplateSession(
            q1_space,
            _config(profiling=ProfileConfig(enabled=True, interval=1)),
            seed=7,
        )
        session.execute_batch(_workload(n=40, seed=8))
        digest = session.metrics.histogram_summary(
            metric_names.STAGE_SECONDS, template="Q1", stage="predict"
        )
        rows = {
            tuple(row["path"]): row
            for row in session.profiler.report()["templates"]["Q1"]["stages"]
        }
        predict = rows[("decision", "predict")]
        assert predict["calls"] == digest["count"] == 40
        assert predict["cum_seconds"] == pytest.approx(digest["sum"])
        assert rows[("decision",)]["cum_seconds"] > predict["cum_seconds"]

    def test_empty_batch(self, tiny_space):
        session = TemplateSession(tiny_space, _config(), seed=1)
        assert session.execute_batch(np.empty((0, 2))) == []

    def test_one_dimensional_input_rejected(self, tiny_space):
        session = TemplateSession(tiny_space, _config(), seed=1)
        with pytest.raises(PredictionError):
            session.execute_batch(np.array([0.5, 0.5]))


class _PatchProbe:
    """Wraps a session's batch predict so that after every call the
    tail's estimates are compared, bit for bit, with a fresh
    ``PackedHistograms.query`` of the same rows, and logs what each
    call saw: the dirty plans, the block width, the weights inserted
    since the previous call."""

    def __init__(self, session: TemplateSession) -> None:
        self.calls: list[dict] = []
        self.weights: list[float] = []
        self._width = session.predictor._packed.width
        predict_tail = session._predict_tail
        insert = session.predictor.insert

        def probed_insert(*args, **kwargs):
            self.weights.append(kwargs.get("weight", 1.0))
            return insert(*args, **kwargs)

        def probed(tail, predictor, start, dirty, trace):
            patch = tail.z_values is not None
            predict_tail(tail, predictor, start, dirty, trace)
            self._check(tail, predictor, start, dirty, patch)

        session.predictor.insert = probed_insert
        session._predict_tail = probed

    def _check(self, tail, predictor, start, dirty, patch):
        packed = predictor._packed
        self.calls.append({
            "patch": patch,
            "dirty": list(dirty),
            "widened": packed.width > self._width,
            "weights": list(self.weights),
        })
        self._width = packed.width
        self.weights.clear()
        if tail.z_values is None:
            return
        first = int(np.searchsorted(tail.rows, start))
        z_values = tail.z_values[:, first:]
        counts, avg_costs = packed.query(
            z_values - predictor.delta, z_values + predictor.delta
        )
        np.testing.assert_array_equal(tail.counts[..., first:], counts)
        np.testing.assert_array_equal(tail.avg_costs[..., first:], avg_costs)

    def patches(self) -> list[dict]:
        return [call for call in self.calls if call["patch"]]


def _run_blocks(session, points, size=16):
    records = []
    for start in range(0, points.shape[0], size):
        records.extend(session.execute_batch(points[start:start + size]))
    return records


class TestPatchParity:
    """A mid-batch mutation re-queries only the rows it changed; the
    patched estimates must equal a fresh query of the whole block."""

    @pytest.mark.parametrize("template", ["Q1", "Q3", "Q5", "Q8"])
    def test_patched_estimates_equal_a_fresh_query(self, template):
        space = plan_space_for(template)
        config = _config(
            positive_feedback=True,
            positive_feedback_min_confidence=0.5,
            max_buckets=8,
        )
        session = TemplateSession(space, config, seed=21)
        sequential = TemplateSession(space, config, seed=21)
        probe = _PatchProbe(session)
        points = RandomTrajectoryWorkload(
            space.dimensions, spread=0.05, seed=22
        ).generate(320)
        records = _run_blocks(session, points)
        assert [decision_digest(r) for r in records] == [
            decision_digest(sequential.execute(x)) for x in points
        ]
        patches = probe.patches()
        partial = [
            call for call in patches
            if 0 < len(call["dirty"]) < space.plan_count
        ]
        assert partial, "no patch re-queried a plan subset"
        assert any(call["widened"] for call in partial)
        assert any(
            weight < 1.0 for call in partial for weight in call["weights"]
        ), "no patch followed a positive-feedback insert"

    def test_a_drift_drop_requeries_every_plan(self, q1_space):
        session = TemplateSession(
            q1_space, _config(drift_response=True), seed=23
        )
        sequential = TemplateSession(
            q1_space, _config(drift_response=True), seed=23
        )
        drifts = {37, 90}
        for target in (session, sequential):
            calls = iter(range(10_000))
            target.monitor.drift_detected = (
                lambda calls=calls: next(calls) in drifts
            )
        probe = _PatchProbe(session)
        points = _workload(n=128, seed=24)
        records = _run_blocks(session, points)
        assert [decision_digest(r) for r in records] == [
            decision_digest(sequential.execute(x)) for x in points
        ]
        assert session.drift_events == 2
        # Decisions 37 and 90 drop the synopsis mid-block; the patch
        # before 38 and 91 re-queries every plan.
        full = [
            call for call in probe.patches()
            if call["dirty"] == list(range(q1_space.plan_count))
        ]
        assert len(full) >= 2


class TestDecideWhenServed:
    """A row is decided when it is served.  On a write-heavy block each
    row is decided once, alone, and no decided column is thrown away;
    on a read-mostly block one decide covers the rest of the tail."""

    @staticmethod
    def _count_decides(session):
        columns = []
        decide = session.predictor.decide

        def counted(z_values, *args, **kwargs):
            columns.append(z_values.shape[1])
            return decide(z_values, *args, **kwargs)

        session.predictor.decide = counted
        return columns

    @staticmethod
    def _sessions(space, seed):
        config = _config(trace=TraceConfig(enabled=False))
        return (
            TemplateSession(space, config, seed=seed),
            TemplateSession(space, config, seed=seed),
        )

    def test_a_write_heavy_block_decides_each_row_once(self):
        space = plan_space_for("Q5")
        session, sequential = self._sessions(space, 31)
        columns = self._count_decides(session)
        points = RandomTrajectoryWorkload(
            space.dimensions, spread=0.1, seed=32
        ).generate(64)
        records = []
        for start in range(0, 64, 16):
            written = session.predictor.mutation_count
            decided = len(columns)
            records.extend(session.execute_batch(points[start:start + 16]))
            assert session.predictor.mutation_count - written >= 14
            # Sixteen decides of one column each: every served row
            # decided exactly once, none decided and then discarded.
            assert columns[decided:] == [1] * 16
        assert [decision_digest(r) for r in records] == [
            decision_digest(sequential.execute(x)) for x in points
        ]

    def test_a_read_mostly_block_decides_the_tail_at_once(self, q1_space):
        session, sequential = self._sessions(q1_space, 33)
        warm = RandomTrajectoryWorkload(2, spread=0.02, seed=34).generate(600)
        for x in warm:
            session.execute(x)
            sequential.execute(x)
        columns = self._count_decides(session)
        points = RandomTrajectoryWorkload(2, spread=0.02, seed=35).generate(
            160
        )
        records = _run_blocks(session, points)
        assert [decision_digest(r) for r in records] == [
            decision_digest(sequential.execute(x)) for x in points
        ]
        assert sum(columns) >= 160
        assert len(columns) < 160
        assert max(columns) > 1


class TestOneZPassPerDecision:
    """Each instance's point is transformed once: the decision's predict
    hands its z-values to every insert the decision makes."""

    @pytest.fixture()
    def z_calls(self, monkeypatch):
        calls = []
        z_values = StackedEnsemble.z_values

        def counted(self, points):
            calls.append(points.shape[0])
            return z_values(self, points)

        monkeypatch.setattr(StackedEnsemble, "z_values", counted)
        return calls

    def test_a_scalar_decision_makes_one_z_pass(self, q1_space, z_calls):
        session = TemplateSession(
            q1_space,
            _config(
                positive_feedback=True, trace=TraceConfig(enabled=False)
            ),
            seed=25,
        )
        inserted = 0
        for x in _workload(n=150, seed=26):
            before, mass = len(z_calls), session.predictor.total_mass
            session.execute(x)
            assert len(z_calls) - before == 1
            inserted += session.predictor.total_mass != mass
        assert inserted > 10

    def test_a_batch_block_makes_one_z_pass_plus_its_traced(
        self, q1_space, z_calls
    ):
        session = TemplateSession(q1_space, _config(), seed=27)
        points = _workload(n=64, seed=28)
        for start in range(0, 64, 16):
            before = len(z_calls)
            traces = len(session.tracer.traces())
            session.execute_batch(points[start:start + 16])
            traced = len(session.tracer.traces()) - traces
            assert len(z_calls) - before == 1 + traced
        # Inserts landed mid-block, so the tails were patched, not
        # transformed again.
        assert session.predictor.mutation_count > 8


class TestPredictCharge:
    def test_predict_stage_sums_to_the_prefetch_time(
        self, q1_space, monkeypatch
    ):
        """Every second of batch predict work is charged to exactly one
        instance's predict span, discarded tails included.  The prefetch
        clock ticks one second per read (each prefetch reads it once
        before and once after its work); the seam's clock stands still,
        so each predict span measures exactly its charge."""
        ticks = iter(range(1_000_000))
        reads = []

        def clock():
            reads.append(float(next(ticks)))
            return reads[-1]

        monkeypatch.setattr(framework_module, "perf_counter", clock)
        session = TemplateSession(q1_space, _config(), seed=29)
        session.tracer = DecisionTracer(
            "Q1",
            config=TraceConfig(enabled=False),
            metrics=session.metrics,
            clock=lambda: 0.0,
        )
        _run_blocks(session, _workload(n=96, seed=30))
        spent = sum(reads[1::2]) - sum(reads[0::2])
        digest = session.metrics.histogram_summary(
            metric_names.STAGE_SECONDS, template="Q1", stage="predict"
        )
        assert digest["count"] == 96
        assert len(reads) > 2 * 96 // 16  # patches ran, not just blocks
        assert digest["sum"] == pytest.approx(spent, rel=1e-12)


class TestFrameworkExecuteBatch:
    def test_lockstep_with_sequential_execute(self, q1_space):
        sequential = PPCFramework(_config(), seed=0)
        batched = PPCFramework(_config(), seed=0)
        sequential.register(q1_space)
        batched.register(q1_space)
        workload = _workload(n=150, seed=12)
        expected = [
            decision_digest(sequential.execute("Q1", x)) for x in workload
        ]
        got = [
            decision_digest(r)
            for r in batched.execute_batch("Q1", workload)
        ]
        assert got == expected
        assert (
            sequential.optimizer_invocations
            == batched.optimizer_invocations
        )

    def test_governed_framework_falls_back_to_sequential(self, q1_space):
        """Governor reclamation must interleave at its exact cadence
        (and its shrinks bypass the mutation counter), so a governed
        batch takes the sequential path — and still matches."""
        sequential = PPCFramework(
            _config(), memory_budget_bytes=200_000, seed=0
        )
        batched = PPCFramework(
            _config(), memory_budget_bytes=200_000, seed=0
        )
        sequential.register(q1_space)
        batched.register(q1_space)
        assert batched.governor is not None
        workload = _workload(n=100, seed=13)
        expected = [
            decision_digest(sequential.execute("Q1", x)) for x in workload
        ]
        got = [
            decision_digest(r)
            for r in batched.execute_batch("Q1", workload)
        ]
        assert got == expected


class TestServiceExecuteBatch:
    def _service(self):
        from repro.service import PlanCachingService

        service = PlanCachingService.tpch(
            scale_factor=0.1, config=_config(), seed=0
        )
        service.register("Q1")
        service.register("Q5")
        return service

    def test_groups_consecutive_templates(self):
        sequential = self._service()
        batched = self._service()
        q1_points = _workload(n=30, seed=14)
        q5_points = RandomTrajectoryWorkload(
            4, spread=0.05, seed=14
        ).generate(30)
        instances = []
        for i in range(30):
            if (i // 10) % 2 == 0:
                instances.append(
                    sequential.instance_at("Q1", q1_points[i])
                )
            else:
                instances.append(
                    sequential.instance_at("Q5", q5_points[i])
                )
        expected = [
            decision_digest(sequential.execute(inst)) for inst in instances
        ]
        got = [
            decision_digest(r) for r in batched.execute_batch(instances)
        ]
        assert got == expected

    def test_unknown_template_rejected(self):
        service = self._service()
        with pytest.raises(WorkloadError):
            service.execute_batch(
                [QueryInstance("Q3", (1.0, 2.0, 3.0))]
            )

    def test_empty_instance_list(self):
        assert self._service().execute_batch([]) == []


class TestSimulatorBatchReplay:
    def test_batched_ppc_regime_matches_sequential(self, q1_space):
        from repro.simulation.runtime import RuntimeSimulator

        workload = _workload(n=120, seed=15)
        plain = RuntimeSimulator(q1_space, _config(), seed=0).run(workload)
        chunked = RuntimeSimulator(q1_space, _config(), seed=0).run(
            workload, batch_size=16
        )
        a, b = plain["PPC"], chunked["PPC"]
        assert a.optimizer_invocations == b.optimizer_invocations
        assert a.optimization_ms == b.optimization_ms
        assert a.execution_ms == b.execution_ms
        assert a.overhead_ms == b.overhead_ms
        assert a.cumulative_ms == b.cumulative_ms

    def test_batch_size_validated(self, q1_space):
        from repro.simulation.runtime import RuntimeSimulator

        with pytest.raises(ValueError):
            RuntimeSimulator(q1_space, _config(), seed=0).run(
                _workload(n=5), batch_size=0
            )
