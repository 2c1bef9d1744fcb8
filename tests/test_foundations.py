"""Foundational modules: geometry, rng, config, exceptions, build info."""

import dataclasses
import math

import numpy as np
import pytest

from repro import PPCConfig, buildinfo
from repro.exceptions import (
    CatalogError,
    ConfigurationError,
    HistogramError,
    OptimizationError,
    PredictionError,
    ReproError,
    WorkloadError,
)
from repro.geometry import ball_volume, equivalent_radius, unit_ball_volume
from repro.rng import as_generator, spawn


class TestGeometry:
    def test_unit_ball_volumes_match_closed_forms(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 / 3.0 * math.pi)

    def test_ball_volume_scaling(self):
        assert ball_volume(2.0, 2) == pytest.approx(4.0 * math.pi)
        assert ball_volume(0.0, 3) == 0.0

    def test_equivalent_radius_identity_in_reference_dims(self):
        assert equivalent_radius(0.05, 2) == pytest.approx(0.05)

    def test_equivalent_radius_preserves_volume(self):
        for dims in (3, 4, 6):
            radius = equivalent_radius(0.05, dims)
            assert ball_volume(radius, dims) == pytest.approx(
                ball_volume(0.05, 2)
            )

    def test_equivalent_radius_grows_with_dims(self):
        radii = [equivalent_radius(0.05, d) for d in range(2, 7)]
        assert radii == sorted(radii)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            unit_ball_volume(0)
        with pytest.raises(ConfigurationError):
            ball_volume(-1.0, 2)
        with pytest.raises(ConfigurationError):
            equivalent_radius(0.0, 3)


class TestRng:
    def test_int_seed_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert (a == b).all()

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_none_gives_fresh_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_spawn_independence(self):
        children = spawn(as_generator(7), 3)
        draws = [child.random(4).tolist() for child in children]
        assert draws[0] != draws[1] != draws[2]

    def test_spawn_reproducible(self):
        first = [g.random(3).tolist() for g in spawn(as_generator(7), 2)]
        second = [g.random(3).tolist() for g in spawn(as_generator(7), 2)]
        assert first == second


class TestConfig:
    def test_defaults_valid(self):
        config = PPCConfig()
        assert config.transforms == 5
        assert config.max_buckets == 40
        assert config.confidence_threshold == 0.8

    @pytest.mark.parametrize(
        "overrides",
        [
            {"transforms": 0},
            {"max_buckets": 0},
            {"radius": 0.0},
            {"confidence_threshold": 1.5},
            {"mean_invocation_probability": -0.1},
            {"cache_capacity": 0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            PPCConfig(**overrides)

    def test_frozen(self):
        config = PPCConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.transforms = 7


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exception",
        [
            ConfigurationError,
            CatalogError,
            OptimizationError,
            HistogramError,
            WorkloadError,
            PredictionError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception):
        assert issubclass(exception, ReproError)
        with pytest.raises(ReproError):
            raise exception("boom")


class TestBuildInfo:
    def test_the_checkout_is_read_once_per_process(self, monkeypatch):
        reads = []

        def reading(repo_root):
            reads.append(repo_root)
            return "c" * 40

        monkeypatch.delenv("REPRO_COMMIT", raising=False)
        monkeypatch.setattr(buildinfo, "_read_git_head", reading)
        buildinfo._checkout_commit.cache_clear()
        try:
            assert buildinfo.commit_id() == "c" * 40
            assert buildinfo.commit_id() == "c" * 40
            assert len(reads) == 1
        finally:
            buildinfo._checkout_commit.cache_clear()

    def test_the_environment_wins_on_every_call(self, monkeypatch):
        buildinfo.commit_id()
        monkeypatch.setenv("REPRO_COMMIT", "from-ci")
        assert buildinfo.commit_id() == "from-ci"
        monkeypatch.setenv("REPRO_COMMIT", "from-ci-2")
        assert buildinfo.commit_id() == "from-ci-2"
