"""The chord confidence model (Section IV-A)."""

import math

import pytest

from repro.core.confidence import (
    ConfidenceModel,
    FrequencyConfidenceModel,
    chord_table,
    confidence_angle,
    confidence_from_ratio,
    segment_fraction,
)
from repro.exceptions import ConfigurationError


class TestGeometry:
    def test_segment_fraction_extremes(self):
        assert segment_fraction(0.0) == 0.0
        assert segment_fraction(math.pi / 2) == pytest.approx(0.5)

    def test_segment_fraction_monotone(self):
        values = [segment_fraction(phi) for phi in (0.2, 0.6, 1.0, 1.4)]
        assert values == sorted(values)

    def test_confidence_zero_at_even_split(self):
        assert confidence_from_ratio(1.0) == pytest.approx(0.0, abs=1e-6)

    def test_confidence_approaches_one(self):
        assert confidence_from_ratio(1e9) > 0.999

    def test_confidence_below_one_ratio_is_zero(self):
        assert confidence_from_ratio(0.5) == 0.0

    def test_confidence_monotone_in_ratio(self):
        values = [confidence_from_ratio(r) for r in (1.5, 3.0, 10.0, 100.0)]
        assert values == sorted(values)

    def test_known_value_ratio_against_geometry(self):
        """For ratio r the minority area fraction is 1/(1+r); check the
        solved angle reproduces it."""
        ratio = 5.0
        theta = confidence_angle(ratio)
        phi = math.pi / 2 - theta
        assert segment_fraction(phi) == pytest.approx(
            1.0 / (1.0 + ratio), abs=1e-9
        )


class TestConfidenceModel:
    def test_table_matches_exact_solver(self):
        model = ConfidenceModel()
        for ratio in (1.3, 2.0, 7.7, 42.0, 500.0):
            tabulated = model.confidence(ratio, 1.0)
            exact = confidence_from_ratio(ratio)
            assert tabulated == pytest.approx(exact, abs=1e-3)

    def test_shared_table_is_a_fresh_table_bit_for_bit_and_read_only(self):
        ratios, confidences = chord_table()
        fresh_ratios, fresh_confidences = chord_table.__wrapped__()
        assert fresh_confidences is not confidences
        assert ratios.tobytes() == fresh_ratios.tobytes()
        assert confidences.tobytes() == fresh_confidences.tobytes()
        assert not ratios.flags.writeable
        assert not confidences.flags.writeable
        with pytest.raises(ValueError):
            confidences[0] = 0.5

    def test_every_model_interpolates_the_one_table(self):
        """The table does not depend on chi: every model holds a copy of
        the shared one, bit for bit, and writeable, since ``np.interp``
        copies a read-only operand on every call."""
        ratios, confidences = chord_table()
        for model in (
            ConfidenceModel(chi=0.5),
            ConfidenceModel(chi=0.9),
            FrequencyConfidenceModel(),
        ):
            assert model._ratios.tobytes() == ratios.tobytes()
            assert model._confidences.tobytes() == confidences.tobytes()
            assert model._confidences.flags.writeable

    def test_pure_neighborhood_grows_with_alpha(self):
        model = ConfidenceModel(chi=0.9)
        c1 = model.confidence(1, 0)
        c2 = model.confidence(2, 0)
        c5 = model.confidence(5, 0)
        assert c1 == pytest.approx(0.9)
        assert c2 == pytest.approx(0.99)
        assert c1 < c2 < c5 < 1.0

    def test_minority_majority_returns_zero(self):
        model = ConfidenceModel()
        assert model.confidence(2, 5) == 0.0

    def test_empty_neighborhood_returns_zero(self):
        model = ConfidenceModel()
        assert model.confidence(0, 0) == 0.0

    def test_invalid_chi_rejected(self):
        with pytest.raises(ConfigurationError):
            ConfidenceModel(chi=0.0)
        with pytest.raises(ConfigurationError):
            ConfidenceModel(chi=1.0)


class TestDecide:
    def test_majority_above_threshold_predicted(self):
        model = ConfidenceModel()
        plan, confidence = model.decide([0.0, 50.0, 1.0], threshold=0.7)
        assert plan == 1
        assert confidence > 0.7

    def test_below_threshold_returns_null(self):
        model = ConfidenceModel()
        plan, confidence = model.decide([4.0, 5.0], threshold=0.7)
        assert plan is None
        assert confidence < 0.7

    def test_empty_counts_return_null(self):
        model = ConfidenceModel()
        assert model.decide([], threshold=0.5) == (None, 0.0)
        assert model.decide([0.0, 0.0], threshold=0.5) == (None, 0.0)

    def test_threshold_is_strict(self):
        """Algorithm 1 line 13: predict iff confidence > gamma."""
        model = ConfidenceModel(chi=0.9)
        plan, confidence = model.decide([1.0], threshold=0.9)
        assert confidence == pytest.approx(0.9)
        assert plan is None

    def test_zero_threshold_predicts_any_majority(self):
        model = ConfidenceModel()
        plan, __ = model.decide([1.0, 3.0], threshold=0.0)
        assert plan == 1
