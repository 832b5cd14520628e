"""Real-time feature vectors — Definitions 5, 6 and 7 of the paper.

For an area ``a`` at timeslot ``t`` on day ``d`` with window size ``L``:

- **supply-demand vector** ``V_sd`` (2L dims): the first L dims count the
  *valid* orders at each past minute ``t-ℓ`` (ℓ = 1…L), the last L dims the
  *invalid* orders;
- **last-call vector** ``V_lc``: counts passengers whose *last* call in
  ``[t-L, t)`` happened at ``t-ℓ``, split by whether that call was answered;
- **waiting-time vector** ``V_wt``: counts passengers by how long they
  waited between their first and last call inside the window, split by
  whether they were eventually served.  Waits are indexed 0…L-1 minutes
  (index 0 = served/gave up at the first call).

:class:`AreaDayProfile` precomputes per-minute structures for one
(area, day) so that extracting vectors for many timeslots is vectorised:

- the last-call vector needs, for each minute ``m`` and lag ``ℓ``, the
  number of orders at ``m`` whose passenger did not call again before
  ``m + ℓ``.  We bucket orders by their *next-call gap* and store suffix
  sums over the gap axis;
- the waiting-time vector needs counts of sessions by (first minute, wait,
  served); we store cumulative sums over the first-minute axis.

The extraction arithmetic lives in three functions over *day-stacked*
tables — :func:`supply_demand_at`, :func:`last_call_at` and
:func:`waiting_time_at` — which gather the vectors of many days at many
timeslots in one fancy index.  :class:`AreaDayProfile` calls them on its
own one-day tables, and the online featurizer
(:class:`repro.core.GapPredictor`) on per-area stacks of those tables, so
one implementation serves training and serving.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import DataError

if TYPE_CHECKING:  # pragma: no cover
    from ..city.dataset import CityDataset

from ..city.calendar import MINUTES_PER_DAY

#: Day index of a profile's own tables inside their one-day stacks.
_ONE_DAY = np.zeros(1, dtype=np.int64)


def _lag_minutes(timeslots: np.ndarray, window: int) -> np.ndarray:
    """``(T, L)`` minutes ``t - ℓ`` for ℓ = 1…L."""
    return timeslots[:, None] - np.arange(1, window + 1)[None, :]


def supply_demand_at(
    valid: np.ndarray,
    invalid: np.ndarray,
    days: np.ndarray,
    timeslots: np.ndarray,
    window: int,
) -> np.ndarray:
    """``V_sd`` (Definition 5) per day and timeslot — ``(k, T, 2L)``.

    ``valid``/``invalid`` are ``(n_days, 1440)`` per-minute order counts
    of one area; ``days`` (k,) index their first axis.  Dimension ℓ-1
    counts valid orders at ``t-ℓ``; dimension L+ℓ-1 invalid ones.
    """
    minutes = _lag_minutes(timeslots, window)[None]
    rows = days[:, None, None]
    out = np.empty(
        (len(days), len(timeslots), 2 * window),
        dtype=np.result_type(valid, invalid),
    )
    out[..., :window] = valid[rows, minutes]
    out[..., window:] = invalid[rows, minutes]
    return out


def last_call_at(
    suffix: np.ndarray, days: np.ndarray, timeslots: np.ndarray, window: int
) -> np.ndarray:
    """``V_lc`` (Definition 6) per day and timeslot — ``(k, T, 2L)``.

    ``suffix`` is ``(2, n_days, 1440, L+2)``: validity (valid first) ×
    day × the last-call suffix table (see
    :meth:`AreaDayProfile._build_last_call_tables`).  The order at
    ``t-ℓ`` was its passenger's last call before ``t`` iff its next-call
    gap is at least ℓ, so dimension ℓ-1 reads ``suffix[valid, d, t-ℓ, ℓ]``.
    """
    lags = np.arange(1, window + 1)
    minutes = _lag_minutes(timeslots, window)
    gathered = suffix[
        np.arange(2)[None, None, :, None],
        days[:, None, None, None],
        minutes[None, :, None, :],
        lags,
    ]  # (k, T, validity, L)
    return gathered.reshape(len(days), len(timeslots), 2 * window)


def waiting_time_at(
    cumsum: np.ndarray, days: np.ndarray, timeslots: np.ndarray, window: int
) -> np.ndarray:
    """``V_wt`` (Definition 7) per day and timeslot — ``(k, T, 2L)``.

    ``cumsum`` is ``(2, n_days, L, 1441)``: served (served first) × day ×
    the waiting-time cumulative table (see
    :meth:`AreaDayProfile._build_waiting_time_tables`).  Dimension w counts
    sessions with wait exactly w whose first call lies in ``[t-L, t-w)``,
    so their last call (first + w) is inside the window.
    """
    L = window
    waits = np.arange(L)
    upper = np.maximum(timeslots[:, None] - waits[None, :], 0)
    lower = np.broadcast_to(np.maximum(timeslots - L, 0)[:, None], upper.shape)
    upper = np.maximum(upper, lower)
    bounds = np.stack([upper, lower], axis=1)  # (T, upper/lower, L)
    gathered = cumsum[
        np.arange(2)[None, None, :, None, None],
        days[:, None, None, None, None],
        waits,
        bounds[None, :, None, :, :],
    ]  # (k, T, served, upper/lower, L)
    counts = gathered[..., 0, :] - gathered[..., 1, :]
    return counts.reshape(len(days), len(timeslots), 2 * L)


class AreaDayProfile:
    """Precomputed per-minute signals for one (area, day).

    Parameters
    ----------
    dataset:
        The simulated city.
    area_id, day:
        Which area-day to profile.
    window:
        The paper's L — maximum lookback of any vector (paper: 20 minutes).
    """

    def __init__(self, dataset: "CityDataset", area_id: int, day: int, window: int):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.area_id = area_id
        self.day = day
        self.window = window

        self.valid_counts = dataset.valid_counts[area_id, day].astype(np.float64)
        self.invalid_counts = dataset.invalid_counts[area_id, day].astype(np.float64)

        orders = dataset.area_day_orders(area_id, day)
        sessions = dataset.area_day_sessions(area_id, day)
        self._build_last_call_tables(orders)
        self._build_waiting_time_tables(sessions)

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------

    def _build_last_call_tables(self, orders: np.ndarray) -> None:
        """Suffix tables for the last-call vector.

        ``last_call_tables[v, m, k]`` = number of orders (validity ``v``,
        valid first) at minute ``m`` whose passenger's next call is at
        least ``k`` minutes later (no next call counts as infinitely
        later).  ``k`` is clamped to the table's last column, which holds
        the "no further call before any horizon ≤ L" count.
        """
        L = self.window
        n = len(orders)
        ts = orders["ts"].astype(np.int64)
        valid = orders["valid"]

        # Next call minute of the same passenger: orders of one passenger
        # are contiguous once sorted by (pid, ts).
        if n:
            sorter = np.lexsort((ts, orders["pid"]))
            sorted_ts = ts[sorter]
            sorted_pid = orders["pid"][sorter]
            next_gap_sorted = np.full(n, L + 1, dtype=np.int64)  # "infinite"
            same_pid = sorted_pid[1:] == sorted_pid[:-1]
            gaps = sorted_ts[1:] - sorted_ts[:-1]
            next_gap_sorted[:-1][same_pid] = np.minimum(gaps[same_pid], L + 1)
            next_gap = np.empty(n, dtype=np.int64)
            next_gap[sorter] = next_gap_sorted
        else:
            next_gap = np.empty(0, dtype=np.int64)

        # (validity, minute, k) with valid orders first.
        self.last_call_tables = np.empty((2, MINUTES_PER_DAY, L + 2))
        for index, validity in enumerate((True, False)):
            mask = valid == validity
            table = np.zeros((MINUTES_PER_DAY, L + 2), dtype=np.int64)
            if mask.any():
                np.add.at(table, (ts[mask], next_gap[mask]), 1)
            # suffix over gap axis: column k = count(gap >= k)
            self.last_call_tables[index] = table[:, ::-1].cumsum(axis=1)[:, ::-1]

    def _build_waiting_time_tables(self, sessions: np.ndarray) -> None:
        """Cumulative tables for the waiting-time vector.

        ``waiting_time_tables[s, w, m]`` = number of sessions (served
        flag ``s``, served first) with wait exactly ``w`` minutes and first
        call strictly before minute ``m``.
        """
        L = self.window
        first = sessions["first_ts"].astype(np.int64)
        wait = (sessions["last_ts"] - sessions["first_ts"]).astype(np.int64)
        served = sessions["served"]
        in_range = wait < L  # longer waits cannot fit inside any window

        # (served, wait, minute) with served sessions first.
        self.waiting_time_tables = np.zeros((2, L, MINUTES_PER_DAY + 1))
        for index, served_flag in enumerate((True, False)):
            mask = (served == served_flag) & in_range
            table = np.zeros((L, MINUTES_PER_DAY), dtype=np.int64)
            if mask.any():
                np.add.at(table, (wait[mask], first[mask]), 1)
            self.waiting_time_tables[index, :, 1:] = table.cumsum(axis=1)

    # ------------------------------------------------------------------
    # Vector extraction (batched over timeslots)
    # ------------------------------------------------------------------

    def _check_timeslots(self, timeslots: np.ndarray) -> np.ndarray:
        timeslots = np.asarray(timeslots, dtype=np.int64)
        if timeslots.ndim != 1:
            raise ValueError("timeslots must be a 1-D array")
        if timeslots.size and (
            timeslots.min() < self.window or timeslots.max() > MINUTES_PER_DAY
        ):
            raise DataError(
                f"timeslots must lie in [{self.window}, {MINUTES_PER_DAY}] so "
                "the lookback window fits in the day"
            )
        return timeslots

    def supply_demand_vectors(self, timeslots: np.ndarray) -> np.ndarray:
        """``V_sd`` (Definition 5) for each timeslot — shape ``(T, 2L)``.

        Dimension ℓ-1 counts valid orders at ``t-ℓ``; dimension L+ℓ-1
        counts invalid orders at ``t-ℓ``.
        """
        timeslots = self._check_timeslots(timeslots)
        return supply_demand_at(
            self.valid_counts[None], self.invalid_counts[None],
            _ONE_DAY, timeslots, self.window,
        )[0]

    def last_call_vectors(self, timeslots: np.ndarray) -> np.ndarray:
        """``V_lc`` (Definition 6) for each timeslot — shape ``(T, 2L)``.

        Dimension ℓ-1 counts passengers whose last call in the window was a
        *valid* order at ``t-ℓ``; dimension L+ℓ-1 the invalid ones.
        """
        timeslots = self._check_timeslots(timeslots)
        return last_call_at(
            self.last_call_tables[:, None], _ONE_DAY, timeslots, self.window
        )[0]

    def waiting_time_vectors(self, timeslots: np.ndarray) -> np.ndarray:
        """``V_wt`` (Definition 7) for each timeslot — shape ``(T, 2L)``.

        Dimension w counts passengers whose whole session (first to last
        call) fit inside ``[t-L, t)`` with a wait of exactly w minutes and
        who were eventually served; dimension L+w the unserved ones.
        """
        timeslots = self._check_timeslots(timeslots)
        return waiting_time_at(
            self.waiting_time_tables[:, None], _ONE_DAY, timeslots, self.window
        )[0]

    # Single-timeslot conveniences -------------------------------------

    def supply_demand_vector(self, timeslot: int) -> np.ndarray:
        """``V_sd`` at one timeslot (length 2L)."""
        return self.supply_demand_vectors(np.array([timeslot]))[0]

    def last_call_vector(self, timeslot: int) -> np.ndarray:
        """``V_lc`` at one timeslot (length 2L)."""
        return self.last_call_vectors(np.array([timeslot]))[0]

    def waiting_time_vector(self, timeslot: int) -> np.ndarray:
        """``V_wt`` at one timeslot (length 2L)."""
        return self.waiting_time_vectors(np.array([timeslot]))[0]
