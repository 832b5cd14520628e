"""Seeded workload generators: arrival schedules and request streams.

Everything here is a pure function of a ``numpy.random.Generator`` and a
few shape constants, so the same seed always yields the same inputs.  The
program under test never sees the seed, only the generated requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

#: Shape of the ``bench`` scale city (``repro.config.bench_scale``).
N_AREAS = 20
N_DAYS = 21
TRAIN_DAYS = 14
WINDOW = 20          # L: lookback minutes
GAP_MINUTES = 10     # C: prediction horizon
SLOT_LO = WINDOW                 # first valid query timeslot
SLOT_HI = 1440 - GAP_MINUTES     # last valid query timeslot (inclusive)

OBSERVE_KINDS = ("orders", "traffic", "weather")

#: fleet_mixed traffic shares (the rest are single predicts).
OBSERVE_SHARE = 0.20
TICK_SHARE = 0.05
#: Operations per minute of the sweeping "now" pointer.
OPS_PER_MINUTE = 20


def poisson_schedule(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Due times (seconds from phase start) of a Poisson process of
    ``rate`` arrivals per second, truncated to ``[0, duration)``."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    expected = rate * duration
    n = int(expected + 6 * np.sqrt(expected) + 16)
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    while times[-1] < duration:  # never taken for the sizes above; kept exact
        more = times[-1] + np.cumsum(rng.exponential(1.0 / rate, size=n))
        times = np.concatenate([times, more])
    return times[times < duration]


def uniform_queries(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` (area, day, timeslot) rows uniform over every valid query."""
    areas = rng.integers(0, N_AREAS, size=n)
    days = rng.integers(0, N_DAYS, size=n)
    slots = rng.integers(SLOT_LO, SLOT_HI + 1, size=n)
    return np.stack([areas, days, slots], axis=1)


def warmup_items() -> List[Tuple[int, int, int]]:
    """One query per (area, day), spread over the day's valid slots."""
    span = SLOT_HI - SLOT_LO + 1
    return [
        (area, day, SLOT_LO + (area * 131 + day * 37) % span)
        for area in range(N_AREAS)
        for day in range(N_DAYS)
    ]


@dataclass(frozen=True)
class Op:
    """One client request: HTTP path plus JSON body (without request id)."""

    path: str
    body: dict


def observe_cell(body: dict) -> Tuple:
    """The array cell an observation writes: (kind, area, day, minute)."""
    return (body["kind"], body.get("area"), body["day"], body["minute"])


def _observe_values(rng: np.random.Generator, kind: str) -> Dict:
    if kind == "orders":
        return {"valid": int(rng.integers(0, 12)), "invalid": int(rng.integers(0, 6))}
    if kind == "traffic":
        return {"level_counts": [int(v) for v in rng.integers(0, 30, size=4)]}
    return {
        "weather_type": int(rng.integers(0, 10)),
        "temperature": round(float(rng.uniform(-5.0, 35.0)), 2),
        "pm25": round(float(rng.uniform(5.0, 300.0)), 1),
    }


class FleetStream:
    """The fleet_mixed operation stream for one test day.

    A "now" pointer starts at ``start_minute`` and advances one minute every
    :data:`OPS_PER_MINUTE` operations.  About 75 % of operations are single
    predicts for a random area at now, 20 % are observations (orders,
    traffic and weather in equal shares) written at minutes just before now,
    and 5 % are dispatcher ticks: one ``/predict_batch`` over every area at
    now.  No two observations write the same array cell, so the final state
    after a set of observations does not depend on their arrival order.
    """

    def __init__(self, rng: np.random.Generator, day: Optional[int] = None,
                 start_minute: Optional[int] = None) -> None:
        self.rng = rng
        self.day = int(day if day is not None else rng.integers(TRAIN_DAYS, N_DAYS))
        self.start_minute = int(
            start_minute if start_minute is not None else rng.integers(360, 900)
        )
        self.count = 0
        self._used: Set[Tuple] = set()

    @property
    def now(self) -> int:
        return min(self.start_minute + self.count // OPS_PER_MINUTE, SLOT_HI)

    def take(self, n: int) -> List[Op]:
        return [self._next() for _ in range(n)]

    def _next(self) -> Op:
        now, rng = self.now, self.rng
        self.count += 1
        draw = rng.random()
        if draw < TICK_SHARE:
            return Op("/predict_batch",
                      batch_body([(area, self.day, now) for area in range(N_AREAS)]))
        if draw < TICK_SHARE + OBSERVE_SHARE:
            return Op("/observe", self._observe(now))
        area = int(rng.integers(0, N_AREAS))
        return Op("/predict", {"area": area, "day": self.day, "timeslot": now})

    def _observe(self, now: int) -> dict:
        rng = self.rng
        kind = OBSERVE_KINDS[int(rng.integers(0, len(OBSERVE_KINDS)))]
        # Minutes just before now, widening back until a free cell exists.
        back = 5
        while True:
            lo = max(0, now - back)
            candidates = []
            for minute in range(lo, now):
                areas = [None] if kind == "weather" else range(N_AREAS)
                for area in areas:
                    if (kind, area, self.day, minute) not in self._used:
                        candidates.append((minute, area))
            if candidates:
                break
            if lo == 0:
                raise RuntimeError("no free observation cell left on this day")
            back *= 2
        minute, area = candidates[int(rng.integers(0, len(candidates)))]
        body = {"kind": kind, "day": self.day, "minute": minute,
                "values": _observe_values(rng, kind)}
        if area is not None:
            body["area"] = area
        self._used.add(observe_cell(body))
        return body


def batch_body(triples) -> dict:
    """``/predict_batch`` JSON body for (area, day, timeslot) triples."""
    return {"items": [{"area": int(a), "day": int(d), "timeslot": int(s)}
                      for a, d, s in triples]}


def verification_items(day: int, first_minute: int, last_minute: int,
                       step: int = 1) -> List[Tuple[int, int, int]]:
    """Every area at every ``step``-th minute of ``[first, last + L]``: the
    slots whose lookback windows any observation in the swept span touched,
    plus the later-day rows order observations can reach through history."""
    hi = min(last_minute + WINDOW, SLOT_HI)
    lo = max(first_minute, SLOT_LO)
    items = [(area, day, slot) for slot in range(lo, hi + 1, step)
             for area in range(N_AREAS)]
    for later in range(day + 1, N_DAYS):
        items += [(area, later, lo) for area in range(N_AREAS)]
    return items
