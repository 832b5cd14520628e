"""Online gap prediction for arbitrary (area, day, timeslot) queries.

The :class:`~repro.core.trainer.Trainer` predicts over pre-built
ExampleSets; a deployed scheduler instead asks "what is the gap going to be
in area a over the next ten minutes, *now*?".  :class:`GapPredictor` serves
that query shape: it featurizes on demand from a :class:`CityDataset`
and runs the trained model.

Featurization gathers each signal once per (area, day) query group: sd
straight from the dataset's live order counts (so an orders observation
needs no refresh), lc and wt from per-area float32 stacks of
:class:`~repro.features.vectors.AreaDayProfile` tables, each (area, day)
slice filled once.  Those derive from order and session records that no
observation mutates, so a filled slice never goes stale.  The extraction
functions are the profile's own and the per-weekday history sums days in
:class:`~repro.features.history.HistoryAccumulator`'s order, so online
features equal :class:`~repro.features.FeatureBuilder`'s bit for bit.

This is the component the paper's conclusion describes deploying inside
Didi's scheduling system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from ..city.calendar import DAYS_PER_WEEK, MINUTES_PER_DAY
from ..config import FeatureConfig
from ..exceptions import DataError
from ..features.builder import SIGNALS, ExampleSet, apply_environment_scalers
from ..features.environment import extract_environment
from ..features.vectors import (
    AreaDayProfile,
    last_call_at,
    supply_demand_at,
    waiting_time_at,
)
from .trainer import Trainer

if TYPE_CHECKING:  # pragma: no cover
    from ..city.dataset import CityDataset
    from ..nn import Module


class _AreaTables:
    """One area's day-stacked last-call and waiting-time tables (float32).

    ``last_call`` is ``(2, n_days, 1440, L+2)`` and ``waiting_time``
    ``(2, n_days, L, 1441)``, as :func:`~repro.features.vectors.last_call_at`
    and :func:`~repro.features.vectors.waiting_time_at` read them.  Every
    entry is an integer count below 2**24, so float32 is exact.  Day slices
    are filled on first use; ``np.zeros`` pages untouched slices in lazily.
    """

    __slots__ = ("last_call", "waiting_time", "filled")

    def __init__(self, n_days: int, window: int) -> None:
        self.last_call = np.zeros(
            (2, n_days, MINUTES_PER_DAY, window + 2), dtype=np.float32
        )
        self.waiting_time = np.zeros(
            (2, n_days, window, MINUTES_PER_DAY + 1), dtype=np.float32
        )
        self.filled = np.zeros(n_days, dtype=bool)


@dataclass(frozen=True)
class GapQuery:
    """One prediction request."""

    area_id: int
    day: int
    timeslot: int


class GapPredictor:
    """Featurize-and-predict service around a trained DeepSD model.

    Parameters
    ----------
    model:
        A trained :class:`BasicDeepSD` / :class:`AdvancedDeepSD` (or a
        :class:`Trainer`, whose best-k ensemble is then used).
    dataset:
        The city whose order/weather/traffic streams feed the features.
    config:
        Featurization constants — must match what the model was trained on.
    scalers:
        The training ExampleSet's environment scalers
        (``{"temperature": (mean, std), "pm25": (mean, std)}``); pass the
        training set's ``scalers`` attribute.
    """

    def __init__(
        self,
        model: "Module | Trainer",
        dataset: "CityDataset",
        config: FeatureConfig,
        scalers: Dict[str, Tuple[float, float]],
    ) -> None:
        if isinstance(model, Trainer):
            self._trainer = model
        else:
            self._trainer = Trainer(model)
        self.dataset = dataset
        self.config = config
        for required in ("temperature", "pm25"):
            if required not in scalers:
                raise DataError(f"scalers must contain {required!r}")
        self.scalers = dict(scalers)
        # area -> day-stacked lc/wt tables.  Fills only write counts derived
        # from immutable order/session records, so two threads filling the
        # same slice write equal values and no lock is needed.
        self._tables: Dict[int, _AreaTables] = {}
        # Which signal arrays _featurize fills: "all" keeps the builder-
        # parity contract (every signal array populated); "model" fills
        # only the arrays named in the model's ``input_fields`` and leaves
        # the rest zero — predictions are unaffected (the model never
        # reads them) and a model without lc/wt inputs never builds a
        # profile at all.  The serving layer opts into "model".
        self.feature_fields = "all"

    @classmethod
    def from_training(
        cls,
        model: "Module | Trainer",
        dataset: "CityDataset",
        config: FeatureConfig,
        train_set: ExampleSet,
    ) -> "GapPredictor":
        """Build a predictor reusing the training set's scalers."""
        return cls(model, dataset, config, train_set.scalers)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def predict(self, area_id: int, day: int, timeslot: int) -> float:
        """Predicted gap for ``[timeslot, timeslot + C)`` in one area."""
        return float(self.predict_many([GapQuery(area_id, day, timeslot)])[0])

    def predict_many(self, queries: Sequence[GapQuery]) -> np.ndarray:
        """Predicted gaps for a batch of queries (one pass per call)."""
        if not queries:
            return np.empty(0)
        example_set = self._featurize(queries)
        return self._trainer.predict(example_set)

    def actual_gap(self, area_id: int, day: int, timeslot: int) -> int:
        """Ground truth for the same interval (for backtesting)."""
        return self.dataset.gap(
            area_id, day, timeslot, horizon=self.config.gap_minutes
        )

    # ------------------------------------------------------------------
    # Featurization
    # ------------------------------------------------------------------

    def _validate(self, query: GapQuery) -> None:
        L = self.config.window_minutes
        if not 0 <= query.area_id < self.dataset.n_areas:
            raise DataError(f"area {query.area_id} outside the city")
        if not 0 <= query.day < self.dataset.n_days:
            raise DataError(f"day {query.day} outside the simulation")
        if not L <= query.timeslot <= 1440 - self.config.gap_minutes:
            raise DataError(
                f"timeslot {query.timeslot} must be in "
                f"[{L}, {1440 - self.config.gap_minutes}] so the lookback "
                "window and the prediction interval fit inside the day"
            )

    def _area_tables(self, area_id: int, days: np.ndarray) -> _AreaTables:
        """The area's lc/wt tables, with the slice of every day in ``days``
        filled (one :class:`AreaDayProfile` build per slice, ever)."""
        tables = self._tables.get(area_id)
        if tables is None:
            tables = self._tables.setdefault(
                area_id,
                _AreaTables(self.dataset.n_days, self.config.window_minutes),
            )
        for day in days[~tables.filled[days]]:
            profile = AreaDayProfile(
                self.dataset, area_id, int(day), self.config.window_minutes
            )
            tables.last_call[:, day] = profile.last_call_tables
            tables.waiting_time[:, day] = profile.waiting_time_tables
            tables.filled[day] = True
        return tables

    def _weekday_means(self, prior: np.ndarray) -> np.ndarray:
        """Per-weekday float64 means of ``prior`` ``(n, slots, 2L)`` over
        days ``0…n-1`` — ``(7, slots, 2L)``, zero for weekdays with no
        prior day.

        Day ``d`` sits at ``padded[d // 7, d % 7]``, so summing over the
        week axis adds each weekday's days in ascending order (the zero
        padding after the last day adds exactly nothing) and one division
        follows: the same arithmetic as ``np.mean`` over that weekday's
        days and as :class:`~repro.features.history.HistoryAccumulator`.
        """
        n = len(prior)
        weeks = -(-n // DAYS_PER_WEEK)
        padded = np.zeros((weeks * DAYS_PER_WEEK,) + prior.shape[1:])
        padded[:n] = prior
        sums = padded.reshape((weeks, DAYS_PER_WEEK) + prior.shape[1:]).sum(axis=0)
        counts = np.bincount(np.arange(n) % DAYS_PER_WEEK, minlength=DAYS_PER_WEEK)
        means = sums / np.maximum(counts, 1)[:, None, None]
        # Position p holds the days with d % 7 == p, whose weekday is
        # (p + start_weekday) % 7.
        start = self.dataset.calendar.start_weekday
        return means[(np.arange(DAYS_PER_WEEK) - start) % DAYS_PER_WEEK]

    def _signals(self, area_ids: np.ndarray, day_ids: np.ndarray, time_ids: np.ndarray):
        """The nine signal arrays, one gather per signal and (area, day).

        In ``feature_fields="model"`` mode, only arrays named in the
        model's ``input_fields`` are computed; the rest stay zero (the
        model never reads them, so predictions are unaffected).
        """
        C = self.config.gap_minutes
        L = self.config.window_minutes
        n = len(area_ids)
        fields = (
            set(self._trainer._input_fields())
            if self.feature_fields == "model" else None
        )
        now = {name: np.zeros((n, 2 * L), dtype=np.float32) for name in SIGNALS}
        hist = {name: np.zeros((n, 7, 2 * L), dtype=np.float32) for name in SIGNALS}
        hist_next = {
            name: np.zeros((n, 7, 2 * L), dtype=np.float32) for name in SIGNALS
        }
        wanted = {}  # signal -> which of (now, hist, hist_next) to fill
        for name in SIGNALS:
            parts = tuple(
                fields is None or f"{name}_{part}" in fields
                for part in ("now", "hist", "hist_next")
            )
            if any(parts):
                wanted[name] = parts
        if not wanted:
            return now, hist, hist_next

        groups: Dict[Tuple[int, int], List[int]] = {}
        for i, key in enumerate(zip(area_ids.tolist(), day_ids.tolist())):
            groups.setdefault(key, []).append(i)

        dataset = self.dataset
        # hist wants days 0…day-1 at t, hist_next at t + C; one gather over
        # days 0…day at both serves them and the day's own vectors.
        with_history = any(w[1] or w[2] for w in wanted.values())
        for (area_id, day), indices in groups.items():
            rows = np.array(indices, dtype=np.int64)
            ts = time_ids[rows]
            T = len(rows)
            days = np.arange(day + 1) if with_history else np.array([day])
            slots = np.concatenate([ts, ts + C]) if with_history else ts
            tables = None
            if "lc" in wanted or "wt" in wanted:
                tables = self._area_tables(area_id, days)
            for name, (need_now, need_hist, need_next) in wanted.items():
                if name == "sd":
                    gathered = supply_demand_at(
                        dataset.valid_counts[area_id],
                        dataset.invalid_counts[area_id],
                        days, slots, L,
                    )
                elif name == "lc":
                    gathered = last_call_at(tables.last_call, days, slots, L)
                else:
                    gathered = waiting_time_at(tables.waiting_time, days, slots, L)
                if need_now:
                    now[name][rows] = gathered[-1, :T]
                if (need_hist or need_next) and day > 0:
                    # (slots, 7, 2L)
                    means = self._weekday_means(gathered[:-1]).swapaxes(0, 1)
                    if need_hist:
                        hist[name][rows] = means[:T]
                    if need_next:
                        hist_next[name][rows] = means[T:]
        return now, hist, hist_next

    def _featurize(self, queries: Sequence[GapQuery]) -> ExampleSet:
        for query in queries:
            self._validate(query)
        config = self.config
        L = config.window_minutes
        area_ids = np.array([q.area_id for q in queries], dtype=np.int64)
        day_ids = np.array([q.day for q in queries], dtype=np.int64)
        time_ids = np.array([q.timeslot for q in queries], dtype=np.int64)
        week_ids = (day_ids + self.dataset.calendar.start_weekday) % DAYS_PER_WEEK

        now, hist, hist_next = self._signals(area_ids, day_ids, time_ids)

        environment = extract_environment(
            self.dataset, area_ids, day_ids, time_ids, L
        )

        gaps = self.dataset.gaps(
            area_ids, day_ids, time_ids, horizon=config.gap_minutes
        )
        example_set = ExampleSet(
            area_ids=area_ids,
            time_ids=time_ids,
            week_ids=week_ids,
            day_ids=day_ids,
            sd_now=now["sd"], sd_hist=hist["sd"], sd_hist_next=hist_next["sd"],
            lc_now=now["lc"], lc_hist=hist["lc"], lc_hist_next=hist_next["lc"],
            wt_now=now["wt"], wt_hist=hist["wt"], wt_hist_next=hist_next["wt"],
            weather_types=environment.weather_types,
            # Standardize from float32, exactly as FeatureBuilder does.
            temperature=environment.temperature.astype(np.float32),
            pm25=environment.pm25.astype(np.float32),
            traffic=environment.traffic.astype(np.float32),
            gaps=gaps.astype(np.float32),
            window=L,
            n_areas=self.dataset.n_areas,
            scalers=dict(self.scalers),
        )
        apply_environment_scalers(example_set)
        return example_set
