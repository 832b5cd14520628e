"""Spans recorded from the benchmark's side around the program's calls.

:func:`install` wraps the public functions of each layer (``city``,
``features``, ``nn``, ``core``, ``serving``, ``http``, ``router``,
``fleet``) with timers that append one span per call to an in-memory
:class:`Recorder`.  A span is ``(id, parent, name, start_ns, end_ns, rid,
thread, extra)``; parents come from a per-thread stack, and across the
micro-batcher's thread hand-off from the submitting call.  ``rid`` is the
request id the load generator puts in every JSON body.  Nothing is written
until :meth:`Recorder.dump`, which server processes call at exit.

Clocks are ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), shared by
every process on the machine, so client and server spans line up.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns
_RID = re.compile(rb'^\{"rid":\s*(\d+)')


class Recorder:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.events: List[tuple] = []
        self.pending: Dict[int, tuple] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- per-thread context ------------------------------------------------
    def _ctx(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.rid = [], None
        return local

    def timed(self, name: str, fn: Callable, extra: Optional[Callable] = None,
              rid_from: Optional[int] = None) -> Callable:
        """``fn`` wrapped in a span; ``rid_from`` names the positional
        argument holding a raw JSON request body to read the rid from."""
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = self._ctx()
            stack = ctx.stack
            sid = next(ids)
            parent = stack[-1] if stack else 0
            old_rid = ctx.rid
            if rid_from is not None and len(args) > rid_from:
                match = _RID.match(args[rid_from] or b"")
                ctx.rid = int(match.group(1)) if match else None
            stack.append(sid)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans.append((sid, parent, name, start, end, ctx.rid,
                              threading.get_ident(),
                              extra(args, kwargs) if extra else None))
                ctx.rid = old_rid

        return wrapper

    # -- patching ----------------------------------------------------------
    def patch(self, owner, attr: str, name: str, **kw) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.timed(name, raw.__func__, **kw))
        else:
            new = self.timed(name, raw, **kw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def patch_with(self, owner, attr: str, make: Callable) -> None:
        raw = owner.__dict__[attr]
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, make(raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------
    def dump(self, path: str) -> None:
        payload = {"pid": os.getpid(), "spans": self.spans, "events": self.events}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _batcher_hooks(rec: Recorder, service_cls):
    """Queue-wait and batch spans across the MicroBatcher thread hand-off."""

    def make_init(orig_init):
        @functools.wraps(orig_init)
        def __init__(self, handler, *args, **kwargs):
            owner = getattr(handler, "__self__", None)
            layer = "serving" if isinstance(owner, service_cls) else "router"
            return orig_init(self, _wrap_handler(rec, layer, handler), *args, **kwargs)
        return __init__

    def make_submit(orig_submit):
        @functools.wraps(orig_submit)
        def submit(self, item):
            ctx = rec._ctx()
            parent = ctx.stack[-1] if ctx.stack else 0
            rec.pending[id(item)] = (_now(), parent, ctx.rid)
            return orig_submit(self, item)
        return submit

    return make_init, make_submit


def _wrap_handler(rec: Recorder, layer: str, handler: Callable) -> Callable:
    @functools.wraps(handler)
    def wrapped(items):
        entry = _now()
        infos = [rec.pending.pop(id(item), None) for item in items]
        first = next((info for info in infos if info), (entry, 0, None))
        for info in infos:
            if info is not None:
                rec.spans.append((next(rec._ids), info[1], f"{layer}.queue_wait",
                                  info[0], entry, info[2], threading.get_ident(), None))
        ctx = rec._ctx()
        saved = ctx.stack, ctx.rid
        ctx.stack, ctx.rid = [first[1]] if first[1] else [], first[2]
        try:
            return rec.timed(f"{layer}.batch", handler,
                             extra=lambda a, k: {"items": len(items)})(items)
        finally:
            ctx.stack, ctx.rid = saved
    return wrapped


def install(rec: Recorder) -> Recorder:
    """Wrap every measured layer's public calls (import-time safe)."""
    import repro.city as city
    from repro.city import dataset, simulator
    from repro.core import batching, predictor, trainer
    from repro.features import builder, vectors
    from repro.nn import tape
    from repro.serving import app, batcher, cache, fleet, router, service

    rec.patch(simulator, "simulate_city", "city.simulate")
    rec.patch(city, "simulate_city", "city.simulate")
    rec.patch(dataset.CityDataset, "load", "city.load")
    rec.patch(builder.FeatureBuilder, "build", "features.build")
    rec.patch(builder.ExampleSet, "save", "features.save")
    rec.patch(builder.ExampleSet, "load", "features.load")
    rec.patch(vectors.AreaDayProfile, "__init__", "features.profile")
    for step in ("forward", "backward", "clip", "optim"):
        rec.patch(tape.TrainingTape, f"run_{step}", f"nn.train_{step}")
    rec.patch(tape.TrainingTape, "trace", "nn.trace")
    rec.patch(tape.ForwardTape, "trace", "nn.trace")
    rec.patch(tape.ForwardTape, "replay", "nn.replay", extra=lambda a, k: {
        "live": len(next(iter(a[1].values()))), "rows": a[0].n_rows})
    rec.patch(batching.EpochBatches, "__init__", "core.epoch_batches",
              extra=lambda a, k: {"gather": (a[2] if len(a) > 2 else
                                             k.get("permutation")) is not None})
    rec.patch(trainer.Trainer, "fit", "core.fit")
    rec.patch(trainer.Trainer, "predict", "core.predict")
    rec.patch(predictor.GapPredictor, "predict_many", "core.predict_many")
    svc = service.PredictionService
    rec.patch(svc, "predict", "serving.predict")
    rec.patch(svc, "predict_batch", "serving.predict_batch")
    rec.patch(svc, "observe", "serving.observe")
    make_init, make_submit = _batcher_hooks(rec, svc)
    rec.patch_with(batcher.MicroBatcher, "__init__", make_init)
    rec.patch_with(batcher.MicroBatcher, "submit", make_submit)

    def make_get(orig):
        @functools.wraps(orig)
        def get(self, key, default=None):
            value = orig(self, key, default)
            rec.events.append(("serving.cache_get", value is not default))
            return value
        return get

    def make_invalidate(orig):
        @functools.wraps(orig)
        def invalidate(self, predicate):
            count = orig(self, predicate)
            rec.events.append(("serving.invalidated", count))
            return count
        return invalidate

    rec.patch_with(cache.TTLCache, "get", make_get)
    rec.patch_with(cache.TTLCache, "invalidate", make_invalidate)
    rec.patch(app.ServiceApp, "handle", "http.handle", rid_from=3)
    rec.patch(router.RouterApp, "handle", "router.handle", rid_from=3)
    rec.patch(router, "request_json", "router.upstream")
    rec.patch(fleet, "request_json", "fleet.request")
    rec.patch(fleet.FleetSupervisor, "broadcast_observe", "fleet.broadcast")
    return rec


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


class SpanSet:
    """Spans of one or more processes, indexed for self-time analysis."""

    def __init__(self, dumps: List[dict]) -> None:
        self.spans: List[dict] = []
        self.events: Dict[str, list] = defaultdict(list)
        for dump in dumps:
            pid = dump["pid"]
            for sid, parent, name, start, end, rid, tid, extra in dump["spans"]:
                self.spans.append({"pid": pid, "id": sid, "parent": parent,
                                   "name": name, "start": start, "end": end,
                                   "dur": (end - start) / 1e9, "rid": rid,
                                   "extra": extra or {}})
            for name, value in dump["events"]:
                self.events[name].append(value)
        child_time: Dict[tuple, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"]:
                child_time[(span["pid"], span["parent"])] += span["dur"]
        for span in self.spans:
            span["self"] = max(0.0, span["dur"] - child_time[(span["pid"], span["id"])])
        self.by_name: Dict[str, List[dict]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span["name"]].append(span)

    def durations(self, name: str) -> List[float]:
        return [span["dur"] for span in self.by_name.get(name, [])]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def by_rid(self) -> Dict[int, List[dict]]:
        out: Dict[int, List[dict]] = defaultdict(list)
        for span in self.spans:
            if span["rid"] is not None:
                out[span["rid"]].append(span)
        return out


def load_dumps(directory: str) -> List[dict]:
    dumps = []
    if os.path.isdir(directory):
        for entry in sorted(os.listdir(directory)):
            if entry.startswith("spans-") and entry.endswith(".json"):
                with open(os.path.join(directory, entry), encoding="utf-8") as handle:
                    dumps.append(json.load(handle))
    return dumps
