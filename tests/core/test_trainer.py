"""Tests for the training loop and the paper's training protocol."""

import numpy as np
import pytest

from repro.core import (
    AdvancedDeepSD,
    BasicDeepSD,
    Trainer,
    TrainingConfig,
    TrainingHistory,
    predict_gaps,
)
from repro.exceptions import ConfigError


class TestTrainingConfig:
    def test_paper_defaults(self):
        config = TrainingConfig()
        assert config.epochs == 50
        assert config.batch_size == 64
        assert config.best_k == 10
        assert config.loss == "mse"

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainingConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainingConfig(best_k=0)


class TestTrainingHistory:
    def test_best_epochs_by_rmse(self):
        history = TrainingHistory(
            train_loss=[5.0, 4.0, 3.0],
            eval_rmse=[10.0, 8.0, 9.0],
        )
        assert history.best_epochs(2) == [1, 2]

    def test_best_epochs_fallback_to_train_loss(self):
        history = TrainingHistory(train_loss=[5.0, 3.0, 4.0])
        assert history.best_epochs(1) == [1]

    def test_n_epochs(self):
        assert TrainingHistory(train_loss=[1.0, 2.0]).n_epochs == 2


class TestTrainer:
    @pytest.fixture(scope="class")
    def trained(self, train_set, test_set, scale):
        model = BasicDeepSD(
            train_set.n_areas, scale.features.window_minutes, seed=3
        )
        trainer = Trainer(model, TrainingConfig(epochs=5, best_k=2, seed=3))
        history = trainer.fit(train_set, eval_set=test_set)
        return trainer, history

    def test_history_lengths(self, trained):
        _, history = trained
        assert history.n_epochs == 5
        assert len(history.eval_mae) == 5
        assert len(history.eval_rmse) == 5
        assert len(history.epoch_seconds) == 5

    def test_loss_decreases(self, trained):
        _, history = trained
        assert history.train_loss[-1] < history.train_loss[0]

    def test_beats_predicting_zero(self, trained, test_set):
        trainer, _ = trained
        predictions = trainer.predict(test_set)
        rmse = np.sqrt(((predictions - test_set.gaps) ** 2).mean())
        zero_rmse = np.sqrt((test_set.gaps ** 2).mean())
        assert rmse < zero_rmse

    def test_predict_shape(self, trained, test_set):
        trainer, _ = trained
        assert trainer.predict(test_set).shape == (test_set.n_items,)

    def test_predict_deterministic(self, trained, test_set):
        trainer, _ = trained
        a = trainer.predict(test_set)
        b = trainer.predict(test_set)
        np.testing.assert_array_equal(a, b)

    def test_reproducible_given_seed(self, train_set, test_set, scale):
        def run():
            model = BasicDeepSD(
                train_set.n_areas, scale.features.window_minutes, seed=11
            )
            trainer = Trainer(model, TrainingConfig(epochs=2, best_k=1, seed=11))
            trainer.fit(train_set, eval_set=test_set)
            return trainer.predict(test_set)

        np.testing.assert_allclose(run(), run())

    def test_callback_invoked_each_epoch(self, train_set, scale):
        model = BasicDeepSD(train_set.n_areas, scale.features.window_minutes, seed=0)
        seen = []
        trainer = Trainer(model, TrainingConfig(epochs=3, best_k=1))
        trainer.fit(train_set, callback=lambda e, h: seen.append(e))
        assert seen == [0, 1, 2]

    def test_fit_without_eval_set(self, train_set, scale):
        model = BasicDeepSD(train_set.n_areas, scale.features.window_minutes, seed=0)
        trainer = Trainer(model, TrainingConfig(epochs=2, best_k=1))
        history = trainer.fit(train_set)
        assert history.eval_rmse == []
        assert history.n_epochs == 2

    def test_predict_gaps_helper_uses_live_weights(self, trained, test_set):
        trainer, _ = trained
        np.testing.assert_array_equal(
            predict_gaps(trainer.model, test_set),
            trainer._predict_current(test_set),
        )

    def test_ensemble_prediction_differs_from_single_snapshot(
        self, trained, test_set
    ):
        trainer, _ = trained
        assert len(trainer._ensemble_states) == 2
        single = trainer._predict_current(test_set)
        ensembled = trainer.predict(test_set)
        assert not np.array_equal(single, ensembled)

    def test_ensemble_swap_matches_load_state_dict_loop(self, train_set, test_set, scale):
        """predict() over a 3-member ensemble equals the load_state_dict
        loop bit for bit and leaves the live weights as they were — also
        between the epochs of a later fit, which must then train exactly
        as if predict() had never run."""

        def reference(trainer):
            current = trainer.model.state_dict()
            total = np.zeros(test_set.n_items)
            for state in trainer._ensemble_states:
                trainer.model.load_state_dict(state)
                total += trainer._predict_current(test_set)
            trainer.model.load_state_dict(current)
            return total / len(trainer._ensemble_states)

        def make():
            model = BasicDeepSD(train_set.n_areas, scale.features.window_minutes, seed=4)
            trainer = Trainer(model, TrainingConfig(epochs=4, best_k=3, seed=4))
            trainer.fit(train_set)
            return trainer

        def assert_same_state(a, b):
            assert a.keys() == b.keys()
            for name in a:
                np.testing.assert_array_equal(a[name], b[name], name)

        trainer = make()
        assert len(trainer._ensemble_states) == 3
        live = trainer.model.state_dict()
        np.testing.assert_array_equal(trainer.predict(test_set), reference(trainer))
        assert_same_state(trainer.model.state_dict(), live)

        checked = []

        def between_epochs(epoch, history):
            before = trainer.model.state_dict()
            got = trainer.predict(test_set)
            assert_same_state(trainer.model.state_dict(), before)
            np.testing.assert_array_equal(got, reference(trainer))
            checked.append(epoch)

        trainer.fit(train_set, callback=between_epochs)
        assert checked == [0, 1, 2, 3]
        untouched = make()
        untouched.fit(train_set)
        assert_same_state(trainer.model.state_dict(), untouched.model.state_dict())

    def test_snapshot_memory_bounded_by_best_k(self, train_set, scale):
        """fit() must never retain more than best_k epoch snapshots."""
        model = BasicDeepSD(train_set.n_areas, scale.features.window_minutes, seed=0)
        trainer = Trainer(model, TrainingConfig(epochs=6, best_k=2, seed=0))
        trainer.fit(train_set)
        assert len(trainer._ensemble_states) == 2

    def test_predict_restores_eval_mode(self, trained, test_set):
        """Inference on a trained model must not leave dropout active."""
        trainer, _ = trained
        trainer.model.eval()
        predict_gaps(trainer.model, test_set)
        assert all(not m.training for m in trainer.model.modules())

    def test_predict_restores_train_mode(self, trained, test_set):
        trainer, _ = trained
        trainer.model.train()
        trainer.predict(test_set)
        assert all(m.training for m in trainer.model.modules())
        trainer.model.eval()


class TestInjectableClock:
    def test_epoch_seconds_deterministic_with_fake_clock(self, train_set, scale):
        ticks = iter(float(i) for i in range(100))
        model = BasicDeepSD(train_set.n_areas, scale.features.window_minutes, seed=0)
        trainer = Trainer(
            model,
            TrainingConfig(epochs=3, best_k=1),
            clock=lambda: next(ticks),
        )
        history = trainer.fit(train_set)
        # Two clock reads per epoch (start/end of the training step) ⇒
        # every epoch "lasts" exactly one tick, reproducibly.
        assert history.epoch_seconds == [1.0, 1.0, 1.0]

    def test_default_clock_is_wall_time(self, train_set, scale):
        model = BasicDeepSD(train_set.n_areas, scale.features.window_minutes, seed=0)
        trainer = Trainer(model, TrainingConfig(epochs=1, best_k=1))
        history = trainer.fit(train_set)
        assert history.epoch_seconds[0] > 0


class TestAdvancedTraining:
    def test_advanced_trains_end_to_end(self, train_set, test_set, scale):
        model = AdvancedDeepSD(
            train_set.n_areas, scale.features.window_minutes, seed=5
        )
        trainer = Trainer(model, TrainingConfig(epochs=3, best_k=1, seed=5))
        history = trainer.fit(train_set, eval_set=test_set)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_fine_tuning_converges_faster_initially(self, train_set, test_set, scale):
        """Fig. 16: starting from trained shared weights beats re-training
        for the first epochs."""
        window = scale.features.window_minutes
        base = AdvancedDeepSD(
            train_set.n_areas, window, seed=7, use_weather=False, use_traffic=False
        )
        Trainer(base, TrainingConfig(epochs=4, best_k=1, seed=7)).fit(train_set)

        grown = AdvancedDeepSD(train_set.n_areas, window, seed=8)
        grown.load_state_dict(base.state_dict(), strict=False)
        fine_tune = Trainer(grown, TrainingConfig(epochs=1, best_k=1, seed=8))
        fine_history = fine_tune.fit(train_set)

        fresh = AdvancedDeepSD(train_set.n_areas, window, seed=8)
        scratch = Trainer(fresh, TrainingConfig(epochs=1, best_k=1, seed=8))
        scratch_history = scratch.fit(train_set)

        assert fine_history.train_loss[0] < scratch_history.train_loss[0]
