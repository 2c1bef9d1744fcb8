"""Predictor persistence: exact save/load round-trips."""

import numpy as np
import pytest

from repro.core.histogram_predictor import HistogramPredictor
from repro.core.persistence import (
    SNAPSHOT_KIND,
    encode_artifact,
    load_predictor,
    loads_predictor,
    predictor_from_state,
    predictor_to_state,
    save_predictor,
)
from repro.core.point import SamplePool
from repro.exceptions import PersistenceError
from repro.workload import sample_points


@pytest.fixture()
def trained_predictor():
    pool = SamplePool(2)
    rng = np.random.default_rng(0)
    for x in rng.uniform(0.0, 0.45, size=(80, 2)):
        pool.add(x, 0, cost=5.0)
    for x in rng.uniform(0.55, 1.0, size=(80, 2)):
        pool.add(x, 1, cost=9.0)
    return HistogramPredictor(
        pool,
        transforms=3,
        radius=0.1,
        confidence_threshold=0.7,
        noise_fraction=0.002,
        histogram_kind="incremental",
        seed=42,
    )


class TestRoundTrip:
    def test_predictions_identical_after_reload(self, trained_predictor):
        state = predictor_to_state(trained_predictor)
        reloaded = predictor_from_state(state)
        test = sample_points(2, 200, seed=1)
        original = trained_predictor.predict_batch(test)
        restored = reloaded.predict_batch(test)
        for a, b in zip(original, restored, strict=True):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.plan_id == b.plan_id
                assert a.confidence == pytest.approx(b.confidence)
                assert (a.estimated_cost is None) == (b.estimated_cost is None)
                if a.estimated_cost is not None:
                    assert a.estimated_cost == pytest.approx(b.estimated_cost)
        # The restore repacks the density-lookup block, so the batch
        # path is bit-for-bit the original's, not merely close.
        assert restored == original
        probes = sample_points(2, 64, seed=7)
        assert reloaded.predict_batch(probes) == (
            trained_predictor.predict_batch(probes)
        )
        assert reloaded.mutation_count > 0

    def test_state_is_json_compatible(self, trained_predictor):
        import json

        state = predictor_to_state(trained_predictor)
        round_tripped = json.loads(json.dumps(state))
        assert round_tripped["plan_count"] == 2

    def test_reloaded_predictor_keeps_learning(self, trained_predictor):
        reloaded = predictor_from_state(
            predictor_to_state(trained_predictor)
        )
        before = reloaded.total_points
        reloaded.insert(np.array([0.5, 0.5]), 0, cost=1.0)
        assert reloaded.total_points == before + 1

    def test_file_round_trip(self, trained_predictor, tmp_path):
        path = save_predictor(trained_predictor, tmp_path / "cache.json")
        reloaded = load_predictor(path)
        assert reloaded.plan_count == trained_predictor.plan_count
        assert reloaded.total_points == trained_predictor.total_points

    def test_counters_and_config_preserved(self, trained_predictor):
        reloaded = predictor_from_state(
            predictor_to_state(trained_predictor)
        )
        assert reloaded.total_points == trained_predictor.total_points
        assert reloaded.radius == trained_predictor.radius
        assert reloaded.noise_fraction == trained_predictor.noise_fraction
        assert reloaded.delta == pytest.approx(trained_predictor.delta)

    def test_unknown_version_rejected(self, trained_predictor):
        state = predictor_to_state(trained_predictor)
        document = encode_artifact(SNAPSHOT_KIND, 99, [state])
        with pytest.raises(PersistenceError, match="not supported"):
            loads_predictor(document)

    def test_axis_weights_survive(self):
        pool = SamplePool(3)
        rng = np.random.default_rng(2)
        for x in rng.uniform(0, 1, size=(40, 3)):
            pool.add(x, 0)
        predictor = HistogramPredictor(
            pool,
            transforms=2,
            histogram_kind="incremental",
            axis_weights=np.array([1.0, 0.5, 0.1]),
            seed=3,
        )
        reloaded = predictor_from_state(predictor_to_state(predictor))
        assert reloaded.axis_weights == pytest.approx([1.0, 0.5, 0.1])
