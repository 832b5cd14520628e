"""Tests for the online GapPredictor.

The key consistency property: a prediction for an (area, day, timeslot)
triple that exists in a pre-built ExampleSet must equal the batch
prediction for that item — the on-demand featurization path and the bulk
builder path must agree bit for bit.
"""

import sys
import threading
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from repro.core import BasicDeepSD, GapPredictor, GapQuery, Trainer, TrainingConfig
from repro.core import predictor as predictor_module
from repro.exceptions import DataError
from repro.features import AreaDayProfile, ExampleSet


@pytest.fixture(scope="module")
def trained(dataset, scale, example_sets):
    train_set, test_set = example_sets
    model = BasicDeepSD(
        dataset.n_areas, scale.features.window_minutes, scale.embeddings,
        dropout=0.1, seed=2,
    )
    trainer = Trainer(model, TrainingConfig(epochs=3, best_k=2, seed=2))
    trainer.fit(train_set, eval_set=test_set)
    return trainer


@pytest.fixture(scope="module")
def predictor(trained, dataset, scale, example_sets):
    train_set, _ = example_sets
    return GapPredictor.from_training(
        trained, dataset, scale.features, train_set
    )


class TestConsistencyWithBuilder:
    def test_matches_batch_prediction(self, predictor, trained, example_sets):
        _, test_set = example_sets
        batch_predictions = trained.predict(test_set)
        for i in (0, len(test_set) // 2, len(test_set) - 1):
            online = predictor.predict(
                int(test_set.area_ids[i]),
                int(test_set.day_ids[i]),
                int(test_set.time_ids[i]),
            )
            assert online == batch_predictions[i]

    def test_features_match_builder(self, predictor, example_sets):
        _, test_set = example_sets
        i = 7
        query = GapQuery(
            int(test_set.area_ids[i]),
            int(test_set.day_ids[i]),
            int(test_set.time_ids[i]),
        )
        online_set = predictor._featurize([query])
        for name in ("sd_now", "sd_hist", "sd_hist_next", "wt_hist", "temperature",
                     "weather_types"):
            np.testing.assert_array_equal(
                getattr(online_set, name)[0], getattr(test_set, name)[i], name
            )
        assert online_set.gaps[0] == test_set.gaps[i]

    def test_featurize_matches_builder_bitwise(self, predictor, dataset, example_sets):
        """Every array field of every train and test item — every day,
        day 0 included — equals the builder's, dtype and bits."""
        days = set().union(*(set(es.day_ids.tolist()) for es in example_sets))
        assert days == set(range(dataset.n_days))
        for example_set in example_sets:
            queries = [
                GapQuery(int(a), int(d), int(t))
                for a, d, t in zip(
                    example_set.area_ids, example_set.day_ids, example_set.time_ids
                )
            ]
            online = predictor._featurize(queries)
            arrays = [
                f.name for f in fields(ExampleSet)
                if isinstance(getattr(example_set, f.name), np.ndarray)
            ]
            assert len(arrays) == 18
            for name in arrays:
                got, want = getattr(online, name), getattr(example_set, name)
                assert got.dtype == want.dtype, name
                np.testing.assert_array_equal(got, want, name)


class TestTableGathers:
    """The stacked-table gathers against AreaDayProfile's per-slot vectors
    at the edges: the first and last servable slot (``hist_next`` then
    reads slot 1440), day 0 (no history) and the last day."""

    VECTORS = {
        "sd": "supply_demand_vector",
        "lc": "last_call_vector",
        "wt": "waiting_time_vector",
    }

    @pytest.mark.parametrize("edge", ["first_slot", "last_slot"])
    @pytest.mark.parametrize("which_day", ["day0", "last_day"])
    def test_gathers_match_profiles(self, predictor, dataset, scale, edge, which_day):
        L, C = scale.features.window_minutes, scale.features.gap_minutes
        timeslot = L if edge == "first_slot" else 1440 - C
        day = 0 if which_day == "day0" else dataset.n_days - 1
        area = dataset.n_areas - 1
        online = predictor._featurize([GapQuery(area, day, timeslot)])
        calendar = dataset.calendar
        for name, method in self.VECTORS.items():
            profile = AreaDayProfile(dataset, area, day, L)
            np.testing.assert_array_equal(
                getattr(online, f"{name}_now")[0],
                getattr(profile, method)(timeslot).astype(np.float32),
            )
            for part, slot in (("hist", timeslot), ("hist_next", timeslot + C)):
                want = np.zeros((7, 2 * L), dtype=np.float32)
                for weekday in range(7):
                    prior = calendar.days_with_weekday(weekday, before=day)
                    if prior:
                        want[weekday] = np.mean(
                            [
                                getattr(AreaDayProfile(dataset, area, m, L), method)(slot)
                                for m in prior
                            ],
                            axis=0,
                        )
                got = getattr(online, f"{name}_{part}")[0]
                np.testing.assert_array_equal(got, want, (name, part))
                if day == 0:
                    assert not got.any()


class TestPredictorAPI:
    def test_predict_many_order(self, predictor, example_sets):
        _, test_set = example_sets
        queries = [
            GapQuery(int(test_set.area_ids[i]), int(test_set.day_ids[i]),
                     int(test_set.time_ids[i]))
            for i in (0, 1, 2)
        ]
        batch = predictor.predict_many(queries)
        singles = [predictor.predict(q.area_id, q.day, q.timeslot) for q in queries]
        np.testing.assert_array_equal(batch, singles)

    def test_empty_queries(self, predictor):
        assert predictor.predict_many([]).shape == (0,)

    def test_arbitrary_timeslot_works(self, predictor):
        # Not on any training/test grid: 10:07.
        value = predictor.predict(0, 8, 607)
        assert np.isfinite(value)

    def test_actual_gap_matches_dataset(self, predictor, dataset):
        assert predictor.actual_gap(1, 2, 600) == dataset.gap(1, 2, 600)

    def test_profiles_cached(self, trained, dataset, scale, example_sets, monkeypatch):
        """Each (area, day) table slice is filled by one profile build,
        however many queries read it."""
        builds = Counter()

        class CountingProfile(AreaDayProfile):
            def __init__(self, dataset, area_id, day, window):
                builds[(area_id, day)] += 1
                super().__init__(dataset, area_id, day, window)

        monkeypatch.setattr(predictor_module, "AreaDayProfile", CountingProfile)
        fresh = GapPredictor.from_training(
            trained, dataset, scale.features, example_sets[0]
        )
        for day, timeslot in ((8, 500), (8, 520), (5, 600), (8, 500), (9, 700)):
            fresh.predict(0, day, timeslot)
        # History reads every prior day, so days 0..9 of area 0, once each.
        assert builds == Counter({(0, day): 1 for day in range(10)})


def test_concurrent_table_fills_agree_with_serial(trained, dataset, scale, example_sets):
    """Threads racing to fill one predictor's tables (more threads than
    cores, tiny switch interval) featurize exactly as one thread does."""
    train_set = example_sets[0]
    L, C = scale.features.window_minutes, scale.features.gap_minutes
    rng = np.random.default_rng(5)
    queries = [
        GapQuery(int(rng.integers(dataset.n_areas)), int(rng.integers(dataset.n_days)),
                 int(rng.integers(L, 1440 - C + 1)))
        for _ in range(24)
    ]
    serial = GapPredictor.from_training(trained, dataset, scale.features, train_set)
    want = [serial._featurize([q]) for q in queries]
    shared = GapPredictor.from_training(trained, dataset, scale.features, train_set)
    got, errors = {}, []

    def drive(offset):
        try:
            for i in range(offset, offset + len(queries)):
                index = i % len(queries)
                got[(offset, index)] = shared._featurize([queries[index]])
        except Exception as error:  # pragma: no cover — surfaced below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=drive, args=(k * 5,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(got) == 6 * len(queries)
    for (_, index), example_set in got.items():
        for name in ("sd_now", "lc_now", "wt_now", "lc_hist", "wt_hist", "wt_hist_next"):
            np.testing.assert_array_equal(
                getattr(example_set, name), getattr(want[index], name), name
            )


class TestValidation:
    def test_bad_area(self, predictor):
        with pytest.raises(DataError):
            predictor.predict(999, 0, 500)

    def test_bad_day(self, predictor):
        with pytest.raises(DataError):
            predictor.predict(0, 999, 500)

    def test_timeslot_too_early(self, predictor):
        with pytest.raises(DataError):
            predictor.predict(0, 0, 5)

    def test_timeslot_too_late(self, predictor):
        with pytest.raises(DataError):
            predictor.predict(0, 0, 1439)

    def test_missing_scalers_rejected(self, trained, dataset, scale):
        with pytest.raises(DataError):
            GapPredictor(trained, dataset, scale.features, {"temperature": (0, 1)})
