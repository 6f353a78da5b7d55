import numpy as np
import pytest

from carpool_rl.synth import (SyntheticDemandSpec, dense_preset,
                              generate_synthetic, sparse_preset,
                              effective_speed_mph)
from carpool_rl.trips import ingest_csv


class TestGenerate:
    def test_zero_intensity_writes_header_only(self, tmp_path):
        spec = dense_preset()
        spec.intensity = np.zeros_like(spec.intensity)
        path = tmp_path / "empty.csv"
        n = generate_synthetic(spec, seed=0, out_path=path)
        assert n == 0
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("pickup_datetime")

    def test_same_seed_byte_identical(self, tmp_path):
        spec = dense_preset()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_synthetic(spec, seed=11, out_path=a)
        generate_synthetic(spec, seed=11, out_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        spec = dense_preset()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_synthetic(spec, seed=11, out_path=a)
        generate_synthetic(spec, seed=12, out_path=b)
        assert a.read_bytes() != b.read_bytes()

    def test_total_count_within_poisson_3_sigma(self, tmp_path):
        spec = dense_preset(n_days=2)
        expected = float(spec.intensity.sum() * 24 * 2)
        n = generate_synthetic(spec, seed=3, out_path=tmp_path / "d.csv")
        assert abs(n - expected) <= 3 * expected ** 0.5

    def test_output_ingests_with_zero_rejections(self, tmp_path):
        for preset in (dense_preset(), sparse_preset(), dense_preset(noisy=True)):
            path = tmp_path / "trips.csv"
            n = generate_synthetic(preset, seed=5, out_path=path)
            store, rejected, tally = ingest_csv(path)
            assert rejected == 0, tally
            assert len(store) == n

    def test_trips_stay_in_region(self, tmp_path):
        spec = sparse_preset()
        path = tmp_path / "s.csv"
        generate_synthetic(spec, seed=9, out_path=path)
        store, _, _ = ingest_csv(path)
        for r in store.records:
            assert spec.region.contains(r.origin)
            assert spec.region.contains(r.destination)

    def test_durations_match_speed_model(self, tmp_path):
        spec = dense_preset()  # no congestion, no noise
        path = tmp_path / "d.csv"
        generate_synthetic(spec, seed=7, out_path=path)
        store, _, _ = ingest_csv(path)
        assert len(store) > 0
        for r in store.records:
            ideal = r.distance / spec.speed_mph * 3600.0
            # whole-second duration rounding plus 1e-4 mile distance rounding
            assert abs(r.duration - ideal) < 1.0

    def test_weekend_day_type(self, tmp_path):
        spec = dense_preset(day_type="weekend")
        path = tmp_path / "w.csv"
        generate_synthetic(spec, seed=1, out_path=path)
        store, _, _ = ingest_csv(path)
        assert all(r.is_weekend for r in store.records)

    def test_multi_day_weekday_dates_skip_weekends(self, tmp_path):
        spec = dense_preset(n_days=7)
        path = tmp_path / "m.csv"
        generate_synthetic(spec, seed=2, out_path=path)
        store, _, _ = ingest_csv(path)
        dates = {r.pickup_dt.date() for r in store.records}
        assert len(dates) == 7
        assert all(d.weekday() < 5 for d in dates)


class TestSpecValidation:
    def test_preset_shapes(self):
        assert dense_preset().intensity.shape == (10, 10)
        assert sparse_preset().intensity.shape == (20, 20)
        assert dense_preset().intensity.sum() == pytest.approx(60.0)
        assert sparse_preset().intensity.sum() == pytest.approx(8.0)

    def test_sparse_demand_concentrates_in_hub(self):
        spec = sparse_preset()
        # the 10x10 quadrant around the corner hub carries most demand and
        # the far corner is near-dead
        assert spec.intensity[:10, :10].sum() > 0.6 * 8.0
        assert spec.intensity[-1, -1] < spec.intensity[2, 2] / 50

    def test_sparse_has_no_noisy_variant(self):
        with pytest.raises(ValueError, match="noisy"):
            sparse_preset(noisy=True)

    def test_sparse_outbound_hours_long_trips(self):
        spec = sparse_preset()
        assert spec.hourly_length_multiplier[7] == 4.0
        assert spec.hourly_length_multiplier[10] == 1.0

    def test_congestion_slows_rush_hour(self):
        spec = dense_preset(noisy=True)
        assert effective_speed_mph(spec, 8.5) < effective_speed_mph(spec, 3.0)
        assert effective_speed_mph(spec, 3.0) <= spec.speed_mph

    def test_bad_specs_rejected(self):
        spec = dense_preset()
        with pytest.raises(ValueError):
            SyntheticDemandSpec(region=spec.region, grid=spec.grid,
                                intensity=-spec.intensity)
        with pytest.raises(ValueError):
            SyntheticDemandSpec(region=spec.region, grid=spec.grid,
                                intensity=spec.intensity, speed_mph=0.0)
        with pytest.raises(ValueError):
            SyntheticDemandSpec(region=spec.region, grid=spec.grid,
                                intensity=spec.intensity,
                                min_length_miles=0.01)  # under the 60 s floor
