"""The batch execution path is lockstep-identical to sequential calls.

``TemplateSession.execute_batch`` transforms a block in one z pass and
then runs each row through the scalar decision flow: its own lookup
and decide against the synopsis the rows before it left, its own
fault roll.  So two identically seeded sessions — one executing per
instance, one in batches — must produce bit-identical decision
streams, faults included.  That guarantee is what lets the runtime
simulation and the service facade route through the batch hot path
without changing any reproduced number.
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
from repro.resilience.faults import FaultInjector, FaultSpec
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
        """From an empty cache every early instance inserts, so each
        row's lookup reads the rows before it wrote — and must still
        match sequential execution exactly."""
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
        # its amortized share of the block's z pass.
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


def _rejections(metrics) -> dict:
    return {
        reason: metrics.counter_value(
            metric_names.REJECTED_INSTANCES_TOTAL, template="Q1", reason=reason
        )
        for reason in metric_names.REJECTION_REASONS
    }


class TestMalformedBlock:
    """A block holding a malformed row runs none of its rows: the block
    check raises that row's error, counted once, before any row runs."""

    @pytest.mark.parametrize("bad", [np.nan, 1.5], ids=["nan", "out-of-domain"])
    def test_the_session_is_as_if_the_block_never_came(self, q1_space, bad):
        clean = TemplateSession(q1_space, _config(), seed=3)
        hit = TemplateSession(q1_space, _config(), seed=3)
        workload = _workload(n=24, seed=6)
        block = workload[8:16].copy()
        block[2, 1] = bad
        clean.execute_batch(workload[:8])
        hit.execute_batch(workload[:8])
        with pytest.raises(PredictionError) as batch_error:
            hit.execute_batch(block)
        probe = TemplateSession(q1_space, _config(), seed=3)
        with pytest.raises(PredictionError) as row_error:
            probe.execute(block[2])
        assert type(batch_error.value) is type(row_error.value)
        assert str(batch_error.value) == str(row_error.value)
        assert _rejections(hit.metrics) == _rejections(probe.metrics)
        assert sum(_rejections(hit.metrics).values()) == 1
        assert hit.decisions == clean.decisions == 8
        assert [decision_digest(r) for r in hit.records] == [
            decision_digest(r) for r in clean.records
        ]
        after = workload[16:]
        assert [decision_digest(r) for r in hit.execute_batch(after)] == [
            decision_digest(r) for r in clean.execute_batch(after)
        ]

    @pytest.mark.parametrize("shape", ["one-dimensional", "malformed-row"])
    def test_the_governor_path_checks_the_block_first(self, q1_space, shape):
        """With and without a memory governor, a bad block raises the
        same error, counts the same rejections and runs nothing."""
        outcomes = []
        for budget in (None, 200_000):
            framework = PPCFramework(
                _config(), memory_budget_bytes=budget, seed=0
            )
            session = framework.register(q1_space)
            assert (framework.governor is None) == (budget is None)
            framework.execute_batch("Q1", _workload(n=8, seed=12))
            block = _workload(n=8, seed=13)
            if shape == "one-dimensional":
                block = block[0]
            else:
                block[3, 0] = np.nan
            with pytest.raises(PredictionError) as error:
                framework.execute_batch("Q1", block)
            outcomes.append(
                (
                    type(error.value),
                    str(error.value),
                    _rejections(framework.metrics),
                    session.decisions,
                )
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][3] == 8


def _run_blocks(session, points, size=16):
    records = []
    for start in range(0, points.shape[0], size):
        records.extend(session.execute_batch(points[start:start + size]))
    return records


class TestWriteHeavyLockstep:
    """Blocks whose rows write the synopsis the next row reads: inserts
    that merge over a tight bucket budget, discounted positive-feedback
    inserts and drift drops, each landing mid-block."""

    @pytest.mark.parametrize("template", ["Q1", "Q3", "Q5", "Q8"])
    def test_feedback_and_merges_keep_lockstep(self, template):
        space = plan_space_for(template)
        config = _config(
            positive_feedback=True,
            positive_feedback_min_confidence=0.5,
            max_buckets=8,
        )
        session = TemplateSession(space, config, seed=21)
        sequential = TemplateSession(space, config, seed=21)
        points = RandomTrajectoryWorkload(
            space.dimensions, spread=0.05, seed=22
        ).generate(320)
        records = _run_blocks(session, points)
        assert [decision_digest(r) for r in records] == [
            decision_digest(sequential.execute(x)) for x in points
        ]
        # The blocks wrote what this test is about: rows merged at the
        # budget, and positive feedback was accepted.
        assert session.predictor._packed.bucket_counts.max() == 8
        assert session._feedback_counters["accepted"].value > 0

    def test_drift_drops_mid_block_keep_lockstep(self, q1_space):
        session = TemplateSession(
            q1_space, _config(drift_response=True), seed=23
        )
        sequential = TemplateSession(
            q1_space, _config(drift_response=True), seed=23
        )
        # Decisions 37 and 90 drop the synopsis in the middle of the
        # third and sixth block.
        drifts = {37, 90}
        for target in (session, sequential):
            calls = iter(range(10_000))
            target.monitor.drift_detected = (
                lambda calls=calls: next(calls) in drifts
            )
        points = _workload(n=128, seed=24)
        records = _run_blocks(session, points)
        assert [decision_digest(r) for r in records] == [
            decision_digest(sequential.execute(x)) for x in points
        ]
        assert session.drift_events == 2


class TestFaultParity:
    def test_predictor_faults_roll_once_per_decision(self, q1_space):
        """A faulty predictor surface rolls once per decision in either
        mode, so a batched run degrades exactly the rows a sequential
        run does."""

        def session():
            injector = FaultInjector(
                {"predictor": FaultSpec(failure_probability=0.2)}, seed=5
            )
            return TemplateSession(
                q1_space, PPCConfig(), seed=3, fault_injector=injector
            )

        batched, sequential = session(), session()
        points = RandomTrajectoryWorkload(2, spread=0.02, seed=4).generate(
            320
        )
        records = _run_blocks(batched, points)
        expected = [sequential.execute(x) for x in points]
        assert [decision_digest(r) for r in records] == [
            decision_digest(r) for r in expected
        ]
        degraded = sum(r.degraded for r in records)
        assert degraded == sum(r.degraded for r in expected) > 0
        assert (
            batched._degraded_counters["predictor"].value
            == sequential._degraded_counters["predictor"].value
        )


class TestDecideWhenServed:
    """A row is decided when it is served: each row is decided once,
    alone, and no decided column is thrown away."""

    @staticmethod
    def _count_decides(session):
        calls = []
        predict_z = session.predictor.predict_z

        def counted(z, *args, **kwargs):
            calls.append(z.shape)
            return predict_z(z, *args, **kwargs)

        session.predictor.predict_z = counted
        return calls

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
        calls = self._count_decides(session)
        points = RandomTrajectoryWorkload(
            space.dimensions, spread=0.1, seed=32
        ).generate(64)
        transforms = session.config.transforms
        records = []
        for start in range(0, 64, 16):
            written = session.predictor.mutation_count
            decided = len(calls)
            records.extend(session.execute_batch(points[start:start + 16]))
            assert session.predictor.mutation_count - written >= 14
            # Sixteen one-point decides: every served row decided
            # exactly once, none decided and then discarded.
            assert calls[decided:] == [(transforms,)] * 16
        assert [decision_digest(r) for r in records] == [
            decision_digest(sequential.execute(x)) for x in points
        ]


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
        # Inserts landed mid-block, and the rows after them still read
        # the block's z-values, not a pass of their own.
        assert session.predictor.mutation_count > 8


class TestPredictCharge:
    def test_predict_stage_sums_to_the_prefetch_time(
        self, q1_space, monkeypatch
    ):
        """Every second of a block's z pass is charged to exactly one
        instance's predict span.  The batch clock ticks one second per
        read (each block reads it once before and once after its z
        pass); the seam's clock stands still, so each predict span
        measures exactly its charge."""
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
        assert spent > 0
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
