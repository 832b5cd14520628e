"""Training loop for DeepSD models (Section VI-B/C of the paper).

Replicates the paper's protocol: Adam with batch size 64, 50 epochs, the
model evaluated after every epoch, and the final model being the *average of
the models from the best 10 epochs* ("To make our model more robust, our
final model is the average of the models in the best 10 epochs").  Averaging
is implemented as a prediction ensemble over the best-k epoch snapshots —
averaging raw weights across distant epochs of a non-convex model destroys
them, whereas averaging predictions gives the robustness the paper reports.

Training is fault tolerant: ``fit(checkpoint_dir=…)`` writes atomic
:class:`~repro.core.checkpoint.Checkpoint` bundles and ``resume_from=``
restarts a killed run with bitwise-identical arithmetic (see
``docs/reproduce.md`` §Fault-tolerant training).  The best-k snapshots are
kept as a bounded running top-k — spilled through the checkpoint directory
when one is configured — so peak memory never scales with the epoch count.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigError
from ..features.builder import ExampleSet
from ..obs import get_logger, get_registry, get_tracer, record_training_history
from ..nn import (
    INVARIANT_BLOCK,
    Adam,
    ConstantSchedule,
    CosineDecay,
    ForwardTape,
    Module,
    StepDecay,
    TapeUnsupported,
    Tensor,
    TrainingTape,
    batch_invariant,
    clip_gradients,
    losses,
)
from .batching import INPUT_FIELDS, EpochBatches
from .checkpoint import (
    BestSnapshots,
    Checkpoint,
    config_fingerprint,
    dropout_rng_states,
    restore_dropout_rng_states,
)
from .normalization import _SCALED_KEYS, InputScales

_log = get_logger(__name__)


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of one training run (paper defaults).

    ``loss`` is a name ("mse" / "mae" / "huber") or any callable
    ``(pred, target) -> Tensor`` — e.g. ``repro.nn.quantile_loss(0.8)``
    for risk-aware dispatch targets.  ``lr_schedule`` is ``"constant"``
    (the paper's setting), ``"step"`` (halve every ``epochs // 3``) or
    ``"cosine"``.  ``grad_clip`` bounds the global gradient norm per step
    (0 disables clipping).
    """

    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    loss: object = "mse"
    best_k: int = 10
    seed: int = 0
    shuffle: bool = True
    lr_schedule: str = "constant"
    grad_clip: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.best_k <= 0:
            raise ConfigError("best_k must be positive")
        if self.lr_schedule not in ("constant", "step", "cosine"):
            raise ConfigError(
                f"lr_schedule must be constant/step/cosine, got {self.lr_schedule!r}"
            )
        if self.grad_clip < 0:
            raise ConfigError("grad_clip must be non-negative (0 disables)")


@dataclass
class TrainingHistory:
    """Per-epoch record of one training run."""

    train_loss: List[float] = field(default_factory=list)
    eval_mae: List[float] = field(default_factory=list)
    eval_rmse: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)

    def best_epochs(self, k: int) -> List[int]:
        """Indices of the k best epochs by eval RMSE (train loss fallback).

        The sort is stable so ties resolve to the earlier epoch — the same
        rule the trainer's running :class:`BestSnapshots` tracker applies,
        keeping the two selections identical.
        """
        scores = self.eval_rmse if self.eval_rmse else self.train_loss
        order = np.argsort(scores, kind="stable")
        return [int(i) for i in order[:k]]

    def to_dict(self) -> Dict[str, List[float]]:
        """Plain-list form for JSON persistence (checkpoints)."""
        return {
            "train_loss": list(self.train_loss),
            "eval_mae": list(self.eval_mae),
            "eval_rmse": list(self.eval_rmse),
            "epoch_seconds": list(self.epoch_seconds),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, List[float]]) -> "TrainingHistory":
        return cls(
            train_loss=[float(x) for x in payload.get("train_loss", [])],
            eval_mae=[float(x) for x in payload.get("eval_mae", [])],
            eval_rmse=[float(x) for x in payload.get("eval_rmse", [])],
            epoch_seconds=[float(x) for x in payload.get("epoch_seconds", [])],
        )


class Trainer:
    """Trains a DeepSD model on an :class:`ExampleSet`.

    ``clock`` is the monotonic clock used for epoch timings
    (``time.perf_counter`` by default); tests inject a fake one so
    ``TrainingHistory.epoch_seconds`` is deterministic.
    """

    def __init__(
        self,
        model: Module,
        config: Optional[TrainingConfig] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
        use_tape: Optional[bool] = None,
        tape_dtype: str = "float64",
    ):
        self.model = model
        self.config = config or TrainingConfig()
        self.clock = clock or time.perf_counter
        self._loss_fn = losses.get(self.config.loss)
        # Taped execution (repro.nn.tape): trace one minibatch / inference
        # block, replay as flat preallocated numpy.  ``None`` auto-enables
        # for models that declare themselves tape-safe; float64 tapes are
        # bitwise-identical to module dispatch, so this is purely a speed
        # knob.  ``tape_dtype="float32"`` opts inference into reduced
        # precision (training tapes stay float64 regardless).
        if use_tape is None:
            use_tape = bool(getattr(model, "tape_safe", False))
        if tape_dtype not in ("float64", "float32"):
            raise ConfigError(
                f"tape_dtype must be 'float64' or 'float32', got {tape_dtype!r}"
            )
        self.use_tape = bool(use_tape)
        self.tape_dtype = tape_dtype
        # rows -> TrainingTape; set to None permanently on TapeUnsupported.
        self._train_tapes: Optional[Dict[int, TrainingTape]] = {}
        # n_rows -> ForwardTape; set to None permanently on TapeUnsupported.
        self._eval_tapes: Optional[Dict[int, ForwardTape]] = {}
        self._eval_tape_scales = None
        self._ensemble_states: List[Dict[str, np.ndarray]] = []
        # predict()'s swap lists, set with _ensemble_states by
        # _set_ensemble(): the model's parameters and, per snapshot, the
        # arrays to copy into them in the same order.
        self._ensemble_params: List = []
        self._ensemble_arrays: List[List[np.ndarray]] = []
        # Reused epoch-gather destinations (see EpochBatches ``buffers``).
        self._gather_buffers: Dict[str, np.ndarray] = {}
        # Provenance of the most recent fit(), for run manifests.
        self.resumed_from: Optional[str] = None
        self.resumed_epoch: Optional[int] = None
        self.last_checkpoint: Optional[str] = None
        # Training-set metadata captured by fit() and persisted into every
        # checkpoint's `serving` extras, so a serving process can featurize
        # queries exactly as training did (see Trainer.from_checkpoint).
        self._train_meta: Dict[str, object] = {}
        # Set by from_checkpoint(): the bundle's serving extras.
        self.serving_meta: Optional[Dict[str, object]] = None
        # Optional P10/P50/P90 residual head (repro.core.quantiles); rides
        # along in the checkpoint serving extras when present.
        self.quantile_head = None

    def fit(
        self,
        train_set: ExampleSet,
        eval_set: Optional[ExampleSet] = None,
        *,
        callback: Optional[Callable[[int, TrainingHistory], None]] = None,
        checkpoint_dir: Optional[str | os.PathLike] = None,
        checkpoint_every: int = 1,
        resume_from: Optional[str | os.PathLike] = None,
        stop_after_epoch: Optional[int] = None,
    ) -> TrainingHistory:
        """Run the full training protocol and load the averaged best weights.

        ``callback(epoch, history)`` fires after each epoch — used by the
        convergence experiments (Fig. 16) to record learning curves.

        With ``checkpoint_dir`` set, a :class:`Checkpoint` bundle is written
        atomically every ``checkpoint_every`` epochs (and at the final one),
        and the best-k snapshots spill to disk instead of living in memory.
        ``resume_from`` (a checkpoint directory, ``ckpt-*.json`` path or
        stem) restarts a killed run from its save point with bitwise-
        identical arithmetic — same final weights, history and ensemble as
        the uninterrupted run.  ``stop_after_epoch`` ends the run early
        after writing a checkpoint; it exists for fault-injection tests and
        graceful preemption drains.
        """
        config = self.config
        if checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if stop_after_epoch is not None and stop_after_epoch < 1:
            raise ConfigError(
                f"stop_after_epoch must be >= 1, got {stop_after_epoch}"
            )
        if checkpoint_dir is not None:
            checkpoint_dir = os.fspath(checkpoint_dir)
        # DeepSD models normalise their count inputs; fit the per-signal
        # scales from the training set unless the caller provided them.
        if getattr(self.model, "input_scales", "absent") is None:
            self.model.input_scales = InputScales.from_example_set(train_set)
        # Input scales are folded into the tapes' refill step; retrace now
        # that they are final for this run.
        self._train_tapes = {}
        self._eval_tapes = {}
        self._train_meta = {
            "window": int(train_set.window),
            "n_areas": int(train_set.n_areas),
            "feature_scalers": {
                name: [float(mean), float(std)]
                for name, (mean, std) in sorted(train_set.scalers.items())
            },
        }
        optimizer = Adam(self.model.parameters(), lr=config.learning_rate)
        scheduler = self._build_scheduler(optimizer)
        rng = np.random.default_rng(config.seed)
        history = TrainingHistory()
        tracker = BestSnapshots(config.best_k, directory=checkpoint_dir)
        fingerprint = config_fingerprint(config)
        self.resumed_from = None
        self.resumed_epoch = None
        self.last_checkpoint = None

        start_epoch = 0
        if resume_from is not None:
            ckpt = Checkpoint.load(resume_from)
            if ckpt.fingerprint != fingerprint:
                raise ConfigError(
                    f"checkpoint {ckpt.path!r} was written under a different "
                    f"training config (fingerprint {ckpt.fingerprint} != "
                    f"{fingerprint}); resuming would break run equivalence"
                )
            if ckpt.epoch > config.epochs:
                raise ConfigError(
                    f"checkpoint is at epoch {ckpt.epoch}, beyond the "
                    f"configured {config.epochs} epochs"
                )
            self.model.load_state_dict(ckpt.model_state)
            optimizer.load_state_dict(ckpt.optimizer_state)
            scheduler.load_state_dict(ckpt.scheduler_state)
            rng.bit_generator.state = ckpt.rng_state
            restore_dropout_rng_states(self.model, ckpt.dropout_states)
            history = TrainingHistory.from_dict(ckpt.history)
            tracker.restore(ckpt.best_entries, ckpt.directory)
            start_epoch = ckpt.epoch
            self.resumed_from = ckpt.path
            self.resumed_epoch = ckpt.epoch
            _log.event("train.resume", path=ckpt.path, epoch=ckpt.epoch)

        _log.event(
            "train.start",
            level=logging.DEBUG,
            epochs=config.epochs,
            items=train_set.n_items,
            batch_size=config.batch_size,
            seed=config.seed,
        )
        tracer = get_tracer()
        for epoch in range(start_epoch, config.epochs):
            started = self.clock()
            with tracer.span("train.epoch", epoch=epoch + 1):
                epoch_loss, grad_norm = self._run_epoch(train_set, optimizer, rng)
            epoch_lr = optimizer.lr
            scheduler.step()
            history.train_loss.append(epoch_loss)
            history.epoch_seconds.append(self.clock() - started)

            if eval_set is not None:
                predictions = self._predict_current(eval_set)
                errors = predictions - eval_set.gaps
                history.eval_mae.append(float(np.abs(errors).mean()))
                history.eval_rmse.append(float(np.sqrt((errors ** 2).mean())))

            if _log.isEnabledFor(logging.INFO):
                fields = {
                    "epoch": epoch + 1,
                    "epochs": config.epochs,
                    "train_loss": epoch_loss,
                    "lr": epoch_lr,
                    # Pre-clip global norm of the last batch, as returned
                    # by clip_gradients.
                    "grad_norm": grad_norm,
                    "seconds": history.epoch_seconds[-1],
                }
                if history.eval_mae:
                    fields["val_mae"] = history.eval_mae[-1]
                    fields["val_rmse"] = history.eval_rmse[-1]
                _log.event("train.epoch", **fields)

            # The ranking score mirrors best_epochs(): eval RMSE when an
            # eval set is present, else the training loss.
            score = history.eval_rmse[-1] if eval_set is not None else epoch_loss
            tracker.update(epoch, score, self.model.state_dict())

            done = epoch + 1 == config.epochs
            stopping = stop_after_epoch is not None and epoch + 1 >= stop_after_epoch
            if checkpoint_dir is not None and (
                done or stopping or (epoch + 1) % checkpoint_every == 0
            ):
                self.last_checkpoint = self._save_checkpoint(
                    checkpoint_dir, epoch + 1, optimizer, scheduler, rng,
                    history, tracker, fingerprint,
                )
            if callback is not None:
                callback(epoch, history)
            if stopping and not done:
                _log.event(
                    "train.interrupted",
                    epoch=epoch + 1,
                    epochs=config.epochs,
                    checkpoint=self.last_checkpoint,
                )
                break

        best = tracker.best_epochs()
        self._set_ensemble(tracker.states())
        # Leave the live weights at the single best epoch; predict() then
        # ensembles over the best-k snapshots.
        if self._ensemble_states:
            self.model.load_state_dict(self._ensemble_states[0])
        record_training_history(history, get_registry())
        _log.event(
            "train.done",
            level=logging.DEBUG,
            epochs=history.n_epochs,
            best_epoch=best[0] if best else -1,
            seconds=float(sum(history.epoch_seconds)),
        )
        return history

    def _save_checkpoint(
        self,
        checkpoint_dir: str,
        epoch: int,
        optimizer: Adam,
        scheduler,
        rng: np.random.Generator,
        history: TrainingHistory,
        tracker: BestSnapshots,
        fingerprint: str,
    ) -> str:
        serving: Dict[str, object] = dict(self._train_meta)
        spec = getattr(self.model, "spec", None)
        if spec is not None:
            serving["model_spec"] = dict(spec)
        scales = getattr(self.model, "input_scales", None)
        if scales is not None:
            serving["input_scales"] = {
                name: float(value) for name, value in vars(scales).items()
            }
        if self.quantile_head is not None:
            serving["quantiles"] = self.quantile_head.to_config()
        checkpoint = Checkpoint(
            epoch=epoch,
            model_state=self.model.state_dict(),
            optimizer_state=optimizer.state_dict(),
            scheduler_state=scheduler.state_dict(),
            rng_state=rng.bit_generator.state,
            dropout_states=dropout_rng_states(self.model),
            history=history.to_dict(),
            best_entries=tracker.ordered(),
            fingerprint=fingerprint,
            config=vars(self.config).copy(),
            serving=serving,
        )
        path = checkpoint.save(checkpoint_dir)
        _log.event("train.checkpoint", level=logging.DEBUG, path=path, epoch=epoch)
        return path

    def _run_epoch(
        self,
        train_set: ExampleSet,
        optimizer: Adam,
        rng: np.random.Generator,
    ) -> Tuple[float, float]:
        """One pass over the training set.

        Returns the mean batch loss and the last batch's pre-clip global
        gradient norm (clip_gradients measures it either way; an infinite
        bound turns the call into a pure measurement when clipping is off).

        Batches come from one :class:`EpochBatches` permutation-gather
        over the fields the model declares it reads (``input_fields``) —
        the same rows in the same order as per-batch fancy indexing of the
        shuffled index array, so the arithmetic (and the RNG stream, one
        shuffle per epoch) is bitwise-identical to the historical loop,
        which gathered every ExampleSet field for every batch.
        """
        config = self.config
        tracer = get_tracer()
        self.model.train()
        total_loss = 0.0
        n_batches = 0
        grad_norm = 0.0
        max_norm = config.grad_clip if config.grad_clip else float("inf")
        with tracer.span("train.batch_gather", items=train_set.n_items):
            permutation = None
            if config.shuffle:
                permutation = np.arange(train_set.n_items)
                rng.shuffle(permutation)
            epoch_batches = EpochBatches(
                train_set, permutation, self._input_fields(), self._gather_buffers
            )
        # parameters() walks the module tree; resolve it once per epoch
        # instead of once per step.
        parameters = list(self.model.parameters())
        for batch, targets in epoch_batches.batches(config.batch_size):
            tape = self._train_tape(batch, targets) if self.use_tape else None
            if tape is not None:
                # Taped replay: bitwise-identical to the module-dispatch
                # path below (same arithmetic, same dropout RNG stream,
                # same gradient accumulation order), minus the dispatch.
                with tracer.span("train.forward"):
                    batch_loss = tape.run_forward(batch, targets)
                with tracer.span("train.backward"):
                    tape.run_backward()
                grad_norm = tape.run_clip(parameters, max_norm)
                with tracer.span("train.optim.step"):
                    if not tape.run_optim(optimizer):
                        optimizer.step()
                total_loss += batch_loss
                n_batches += 1
                continue
            optimizer.zero_grad()
            with tracer.span("train.forward"):
                predictions = self.model(batch)
                loss = self._loss_fn(predictions, Tensor(targets))
            with tracer.span("train.backward"):
                loss.backward()
            grad_norm = clip_gradients(parameters, max_norm)
            with tracer.span("train.optim.step"):
                optimizer.step()
            total_loss += loss.item()
            n_batches += 1
        return total_loss / max(n_batches, 1), grad_norm

    def _tape_divisors(self) -> Dict[str, float]:
        """Per-field divisors equivalent to ``InputScales.apply``, folded
        into the tapes' input-refill step."""
        scales = getattr(self.model, "input_scales", None)
        if scales is None:
            return {}
        divisors: Dict[str, float] = {}
        for key, fields in _SCALED_KEYS.items():
            factor = float(getattr(scales, key))
            if factor != 1.0:
                for name in fields:
                    divisors[name] = factor
        return divisors

    def _train_tape(self, batch, targets) -> Optional[TrainingTape]:
        """Cached per-row-count training tape; None => module dispatch."""
        if self._train_tapes is None:
            return None
        rows = len(targets)
        tape = self._train_tapes.get(rows)
        if tape is not None and not tape.is_valid(self.model):
            tape = None
        if tape is None:
            try:
                tape = TrainingTape.trace(
                    self.model,
                    self._loss_fn,
                    batch,
                    targets,
                    divisors=self._tape_divisors(),
                )
            except TapeUnsupported as exc:
                _log.info("training tape disabled", reason=str(exc))
                self._train_tapes = None
                return None
            self._train_tapes[rows] = tape
        return tape

    def _forward_tape(
        self, template, n_rows: int = INVARIANT_BLOCK
    ) -> Optional[ForwardTape]:
        """Cached inference tape traced at ``n_rows`` rows.

        One tape per block size: big batches replay INVARIANT_BLOCK-row
        blocks; short serving batches use the smallest power-of-two block
        that fits (see :meth:`_predict_current`).
        """
        if self._eval_tapes is None:
            return None
        scales = getattr(self.model, "input_scales", None)
        if self._eval_tape_scales is not scales:
            # Scales are folded into every tape's refill step; a new
            # scales object invalidates them all.
            self._eval_tapes = {}
            self._eval_tape_scales = scales
        tape = self._eval_tapes.get(n_rows)
        if tape is not None and (
            not tape.matches(template) or not tape.params_bound()
        ):
            tape = None
        if tape is None:
            dtype = None if self.tape_dtype == "float64" else self.tape_dtype
            # Trace in inference mode (no dropout); replay never consults
            # module modes, so the caller's mode is restored right away.
            was_training = self.model.training
            if was_training:
                self.model.eval()
            try:
                tape = ForwardTape.trace(
                    self.model,
                    template,
                    n_rows=n_rows,
                    divisors=self._tape_divisors(),
                    dtype=dtype,
                )
            except TapeUnsupported as exc:
                _log.info("inference tape disabled", reason=str(exc))
                self._eval_tapes = None
                return None
            finally:
                if was_training:
                    self.model.train()
            self._eval_tapes[n_rows] = tape
        tape.refresh_params()  # no-op for float64 tapes
        return tape

    def _input_fields(self):
        """The batch fields to gather: what the model says it reads.

        Models without an ``input_fields`` declaration get every field
        (the historical behaviour), so ad-hoc models keep working.
        """
        return tuple(getattr(self.model, "input_fields", None) or INPUT_FIELDS)

    def _build_scheduler(self, optimizer: Adam):
        config = self.config
        if config.lr_schedule == "step":
            return StepDecay(optimizer, step_size=max(config.epochs // 3, 1))
        if config.lr_schedule == "cosine":
            return CosineDecay(optimizer, total_epochs=config.epochs)
        return ConstantSchedule(optimizer)

    @classmethod
    def from_checkpoint(
        cls, source: "str | os.PathLike | Checkpoint"
    ) -> "Trainer":
        """Rebuild an inference-ready trainer from a checkpoint bundle.

        The bundle must carry serving metadata (every checkpoint written by
        :meth:`fit` does): the model's constructor spec, its input scales and
        the best-k snapshot references.  The returned trainer predicts with
        the same best-k ensemble the training run would have produced — the
        serving layer (:mod:`repro.serving`) builds on this.

        The training-set metadata travels on the trainer as
        ``serving_meta`` (window, n_areas, environment scalers).
        """
        from . import build_from_spec

        checkpoint = (
            source if isinstance(source, Checkpoint) else Checkpoint.load(source)
        )
        serving = checkpoint.serving
        spec = serving.get("model_spec")
        if not spec:
            raise ConfigError(
                f"checkpoint {checkpoint.path!r} carries no serving metadata "
                "(model_spec); re-train with a current version to serve from it"
            )
        model = build_from_spec(spec)
        scales = serving.get("input_scales")
        if scales is not None:
            model.input_scales = InputScales(**scales)
        try:
            trainer = cls(model, TrainingConfig(**checkpoint.config))
        except (TypeError, ConfigError, KeyError):
            # Configs carrying non-roundtrippable values (e.g. a custom loss
            # callable serialized by name) don't matter for inference.
            trainer = cls(model, TrainingConfig())
        trainer._set_ensemble(checkpoint.ensemble_states())
        model.load_state_dict(trainer._ensemble_states[0])
        model.eval()
        trainer.serving_meta = dict(serving)
        quantiles = serving.get("quantiles")
        if quantiles:
            from .quantiles import QuantileHead

            trainer.quantile_head = QuantileHead.from_config(quantiles)
        return trainer

    def predict(self, example_set: ExampleSet, batch_size: int = 1024) -> np.ndarray:
        """Gap predictions, ensembled over the best-k epoch snapshots.

        Before :meth:`fit` completes (or when it ran without snapshots) the
        live weights are used directly.  Predictions are independent of
        ``batch_size`` bitwise: inference runs under
        :func:`repro.nn.batch_invariant`, so serving the same item alone or
        inside any micro-batch yields identical bits (the serving
        determinism contract).
        """
        if not self._ensemble_arrays:
            return self._predict_current(example_set, batch_size)
        # Swap snapshots in by copying over the hoisted parameter list: no
        # module-tree walk per request.  Copies are in place, so tapes and
        # optimizers keep their references to the parameter arrays.
        params = self._ensemble_params
        live = [param.data.copy() for param in params]
        total = np.zeros(example_set.n_items)
        try:
            for arrays in self._ensemble_arrays:
                for param, value in zip(params, arrays):
                    np.copyto(param.data, value, casting="unsafe")
                total += self._predict_current(example_set, batch_size)
        finally:
            for param, value in zip(params, live):
                np.copyto(param.data, value)
        return total / len(self._ensemble_arrays)

    def _set_ensemble(self, states: List[Dict[str, np.ndarray]]) -> None:
        """Adopt best-k snapshots for :meth:`predict`, checked here (keys and
        shapes, as :meth:`Module.load_state_dict` checks) so that
        :meth:`predict` only copies."""
        matched = [self.model.match_state(state) for state in states]
        self._ensemble_states = list(states)
        self._ensemble_params = [param for param, _ in matched[0]] if matched else []
        self._ensemble_arrays = [[value for _, value in row] for row in matched]

    def _predict_current(
        self, example_set: ExampleSet, batch_size: int = 1024
    ) -> np.ndarray:
        """Predictions from the live weights (inference mode, no dropout).

        The model's prior train/eval mode is restored on exit, so running
        inference on a trained model does not leave dropout active for a
        later direct ``model(batch)`` call.
        """
        n_items = example_set.n_items
        outputs = np.empty(n_items)
        if n_items == 0:
            return outputs
        # Sequential order: serve zero-copy slice views of the set itself.
        epoch_batches = EpochBatches(example_set, fields=self._input_fields())
        tape = None
        if self.use_tape:
            # Short batches replay on a tape traced at the smallest
            # power-of-two block that fits (min 4): a sub-block plain
            # matmul is exactly what batch_invariant() computes for a
            # partial block, so every row's bits are unchanged — only the
            # padding work shrinks.
            block = INVARIANT_BLOCK
            if n_items < INVARIANT_BLOCK:
                block = 4
                while block < n_items:
                    block *= 2
            template, _ = epoch_batches.slice(0, min(n_items, block))
            tape = self._forward_tape(template, block)
        with get_tracer().span("trainer.predict", items=n_items):
            if tape is not None:
                # Taped replay in INVARIANT_BLOCK-row blocks: a full plain
                # block matmul is bitwise-identical to the blocked
                # batch_invariant() matmul, so padding short batches inside
                # the tape preserves the serving determinism contract.
                # The tape was traced in inference mode and replay never
                # consults module state, so no eval()/train() tree walks
                # are needed here (they dominate small-batch latency).
                block = tape.n_rows
                for start in range(0, n_items, block):
                    stop = min(start + block, n_items)
                    batch, _ = epoch_batches.slice(start, stop)
                    outputs[start:stop] = tape.replay(batch)
            else:
                was_training = self.model.training
                self.model.eval()
                try:
                    with batch_invariant():
                        for start in range(0, n_items, batch_size):
                            stop = min(start + batch_size, n_items)
                            batch, _ = epoch_batches.slice(start, stop)
                            outputs[start:stop] = self.model(batch).data
                finally:
                    if was_training:
                        self.model.train()
        return outputs


def predict_gaps(model: Module, example_set: ExampleSet, batch_size: int = 1024) -> np.ndarray:
    """Standalone inference helper for a trained model."""
    return Trainer(model).predict(example_set, batch_size=batch_size)
