"""Multi-template mixture workloads."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, WorkloadError
from repro.workload import MixtureWorkload


def _share(mixture, name):
    """The template's popularity under the Zipf law (or its weights)."""
    return float(mixture.popularity[mixture.templates.index(name)])


@pytest.fixture()
def mixture():
    return MixtureWorkload(
        {"Q0": 2, "Q5": 4, "Q8": 3}, spread=0.02, zipf_exponent=1.0, seed=0
    )


class TestGeneration:
    def test_count_and_shapes(self, mixture):
        workload = mixture.generate(300)
        assert len(workload) == 300
        dims = {"Q0": 2, "Q5": 4, "Q8": 3}
        for name, point in workload:
            assert point.shape == (dims[name],)
            assert (point >= 0).all() and (point <= 1).all()

    def test_zipf_popularity_ordering(self, mixture):
        workload = mixture.generate(3000)
        counts = {"Q0": 0, "Q5": 0, "Q8": 0}
        for name, __ in workload:
            counts[name] += 1
        # Rank 1 beats rank 2 beats rank 3.
        assert counts["Q0"] > counts["Q5"] > counts["Q8"]
        assert counts["Q0"] / 3000 == pytest.approx(
            _share(mixture, "Q0"), abs=0.05
        )

    def test_uniform_with_zero_exponent(self):
        mixture = MixtureWorkload(
            {"a": 2, "b": 2}, zipf_exponent=0.0, seed=1
        )
        workload = mixture.generate(2000)
        share_a = sum(1 for name, __ in workload if name == "a") / 2000
        assert share_a == pytest.approx(0.5, abs=0.05)

    def test_intra_template_locality_survives_interleaving(self, mixture):
        workload = mixture.generate(1000)
        points = [p for name, p in workload if name == "Q0"]
        steps = [
            np.linalg.norm(b - a) for a, b in zip(points, points[1:], strict=False)
        ]
        rng = np.random.default_rng(2)
        shuffled = [points[i] for i in rng.permutation(len(points))]
        random_steps = [
            np.linalg.norm(b - a) for a, b in zip(shuffled, shuffled[1:], strict=False)
        ]
        assert np.median(steps) < np.median(random_steps)

    def test_deterministic_under_seed(self):
        a = MixtureWorkload({"x": 2, "y": 2}, seed=7).generate(50)
        b = MixtureWorkload({"x": 2, "y": 2}, seed=7).generate(50)
        for (na, pa), (nb, pb) in zip(a, b, strict=True):
            assert na == nb
            assert (pa == pb).all()

    def test_invalid_inputs(self):
        with pytest.raises(WorkloadError):
            MixtureWorkload({})
        with pytest.raises(WorkloadError):
            MixtureWorkload({"a": 2}, zipf_exponent=-1.0)
        with pytest.raises(WorkloadError):
            MixtureWorkload({"a": 2}).generate(0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_zipf_exponent(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            MixtureWorkload({"a": 2}, zipf_exponent=bad)


class TestExplicitWeights:
    DIMS = {"a": 2, "b": 2, "c": 2}

    def test_weights_pin_popularity(self):
        mixture = MixtureWorkload(
            self.DIMS, seed=0, weights={"a": 30.0, "b": 1.0, "c": 1.0}
        )
        assert _share(mixture, "a") == pytest.approx(30.0 / 32.0)
        assert _share(mixture, "b") == pytest.approx(1.0 / 32.0)
        workload = mixture.generate(2000)
        share_a = sum(1 for name, __ in workload if name == "a") / 2000
        assert share_a == pytest.approx(30.0 / 32.0, abs=0.05)

    def test_integer_weights_are_accepted(self):
        mixture = MixtureWorkload(
            self.DIMS, seed=0, weights={"a": 2, "b": 1, "c": 1}
        )
        assert _share(mixture, "a") == pytest.approx(0.5)

    def test_unknown_template_in_weights(self):
        with pytest.raises(ConfigurationError, match="unknown templates"):
            MixtureWorkload(
                self.DIMS,
                weights={"a": 1.0, "b": 1.0, "c": 1.0, "ghost": 1.0},
            )

    def test_weights_must_cover_every_template(self):
        with pytest.raises(ConfigurationError, match="missing"):
            MixtureWorkload(self.DIMS, weights={"a": 1.0, "b": 1.0})

    @pytest.mark.parametrize(
        "bad", [0.0, -1.0, float("nan"), float("inf"), -float("inf")]
    )
    def test_degenerate_weight_values(self, bad):
        with pytest.raises(ConfigurationError, match="positive finite"):
            MixtureWorkload(
                self.DIMS, weights={"a": bad, "b": 1.0, "c": 1.0}
            )

    @pytest.mark.parametrize("bad", [True, "3", None, [1.0]])
    def test_non_numeric_weight_values(self, bad):
        with pytest.raises(ConfigurationError, match="must be a number"):
            MixtureWorkload(
                self.DIMS, weights={"a": bad, "b": 1.0, "c": 1.0}
            )

    def test_weights_ignore_zipf_exponent(self):
        flat = MixtureWorkload(
            self.DIMS,
            zipf_exponent=3.0,
            seed=0,
            weights={"a": 1.0, "b": 1.0, "c": 1.0},
        )
        assert _share(flat, "a") == pytest.approx(1.0 / 3.0)
        assert _share(flat, "c") == pytest.approx(1.0 / 3.0)


class TestFrameworkIntegration:
    def test_budgeted_framework_over_mixture(self, q1_space, q5_space):
        """The governor keeps a mixed workload's footprint bounded while
        the popular template keeps its accuracy."""
        from repro import PPCConfig, PPCFramework

        framework = PPCFramework(
            PPCConfig(confidence_threshold=0.8, drift_response=False),
            seed=0,
            memory_budget_bytes=8_000,
            governor_interval=25,
        )
        framework.register(q1_space)
        framework.register(q5_space)
        mixture = MixtureWorkload(
            {"Q1": 2, "Q5": 4}, spread=0.02, zipf_exponent=2.0, seed=3
        )
        for name, point in mixture.generate(600):
            framework.execute(name, point)
        assert framework.space_bytes <= 8_000
        hot = framework.session("Q1")
        metrics = hot.ground_truth_metrics()
        assert metrics.precision > 0.9
        assert metrics.recall > 0.3
