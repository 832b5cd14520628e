"""Module and Parameter base classes for the :mod:`repro.nn` layer system.

A :class:`Module` owns :class:`Parameter` tensors and child modules.
Discovery is by attribute scan (no metaclass magic): ``parameters()`` walks
``__dict__`` recursively, also descending into lists and tuples of modules,
which is how the DeepSD blocks hold their per-weekday sublayers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..tensor import Tensor


class Parameter(Tensor):
    """A tensor that is optimised during training (``requires_grad=True``)."""

    def __init__(self, data, *, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and child :class:`Module` instances
    as plain attributes; :meth:`parameters`, :meth:`state_dict` and friends
    find them by scanning attributes.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # Parameter discovery
    # ------------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, child in self._children():
            path = f"{prefix}{name}"
            if isinstance(child, Parameter):
                yield path, child
            elif isinstance(child, Module):
                yield from child.named_parameters(prefix=f"{path}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def modules(self) -> Iterator["Module"]:
        """Yield self and every descendant module, depth-first."""
        yield self
        for _, child in self._children():
            if isinstance(child, Module):
                yield from child.modules()

    def _children(self) -> Iterator[Tuple[str, object]]:
        for name, value in vars(self).items():
            if name.startswith("_") or name == "training":
                continue
            if isinstance(value, (Parameter, Module)):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, (Parameter, Module)):
                        yield f"{name}.{index}", item

    # ------------------------------------------------------------------
    # Training state
    # ------------------------------------------------------------------

    def train(self) -> "Module":
        """Put the module (and descendants) in training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Put the module (and descendants) in inference mode."""
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar weights in the module."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter array, keyed by dotted path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter arrays produced by :meth:`state_dict`.

        With ``strict=False`` missing keys are left at their current values
        and unknown keys are ignored — this is what the paper's fine-tuning
        strategy relies on: an advanced model grown with new environment
        blocks loads the old model's weights for the shared blocks only.
        """
        # Copy in place: execution tapes and allocation-free optimizers
        # hold references to the parameter arrays, which must survive
        # checkpoint loads and ensemble state swaps.
        for param, value in self.match_state(state, strict):
            np.copyto(param.data, value, casting="unsafe")

    def match_state(
        self, state: Dict[str, np.ndarray], strict: bool = True
    ) -> List[Tuple[Parameter, np.ndarray]]:
        """``(parameter, array)`` pairs, in parameter order, that
        :meth:`load_state_dict` copies — checked for keys and shapes."""
        own = dict(self.named_parameters())
        missing = [k for k in own if k not in state]
        unexpected = [k for k in state if k not in own]
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={missing!r} unexpected={unexpected!r}"
            )
        pairs = []
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"checkpoint {value.shape} vs model {param.data.shape}"
                )
            pairs.append((param, value))
        return pairs
