"""The batch execution path is lockstep-identical to sequential calls.

``TemplateSession.execute_batch`` prefetches predictions through the
vectorized ``predict_batch`` primitive and invalidates the prefetched
tail whenever a synopsis mutation lands mid-batch, so two identically
seeded sessions — one executing per instance, one in batches — must
produce bit-identical decision streams.  That guarantee is what lets
the runtime simulation and the service facade route through the batch
hot path without changing any reproduced number.
"""

import numpy as np
import pytest

from repro.config import PPCConfig
from repro.core.framework import PPCFramework, TemplateSession
from repro.exceptions import PredictionError, WorkloadError
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
        from repro.obs import names as metric_names

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
        from repro.obs import names as metric_names

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
