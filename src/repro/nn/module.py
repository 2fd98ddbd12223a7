"""Module base class, parameters, containers, and flat-parameter views.

The framework is deliberately Torch7-shaped — the paper's implementation is
"implemented with Torch" — rather than autograd-shaped: each layer is a
:class:`Module` with an explicit ``forward(x)`` and ``backward(grad_out)``,
parameters accumulate gradients in ``param.grad``, and a whole network is a
:class:`Sequential` of layers.

Distributed SGD wants the model as *one flat vector*: Alg. 1 broadcasts ``x``
and allreduces ``gs`` as single buffers (Torch's ``getParameters()`` does the
same flattening).  :func:`flatten_module` re-points every parameter's data and
grad into two contiguous 1-D arrays and returns a :class:`FlatParams` handle;
after that, optimiser math and collectives are single vectorised NumPy ops on
those arrays, and layer code keeps working because it only ever reads
``param.data`` and ``+=``-accumulates ``param.grad`` (never rebinds).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Parameter", "Module", "Sequential", "FlatParams", "flatten_module"]

#: a layer's per-example ``(output shape, forward FLOPs, parameter count)``
Geometry = Tuple[Tuple[int, ...], float, int]


class Parameter:
    """A learnable tensor and its gradient accumulator."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.ascontiguousarray(data)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Parameter {self.name!r} {self.data.shape} {self.data.dtype}>"


class Module:
    """Base layer: explicit forward/backward with single-use cached context.

    Subclass contract:

    * ``forward(x)`` computes the output and caches whatever ``backward``
      needs on ``self`` (inputs, masks, ...).
    * ``backward(grad_out)`` consumes that cache exactly once, accumulates
      into each parameter's ``.grad`` and returns ``grad_in``.  Layers with
      parameters also take ``input_grad=False`` (their input is the network's
      input, nobody reads ``grad_in``) and then return ``None`` instead.
    * ``geometry(in_shape, *config)``, a classmethod, returns the per-example
      output shape (no batch dim), *forward* FLOP count and parameter count of
      the layer ``cls(*config)`` would build, without building it; the
      instance keeps its own ``config``, so ``output_shape`` and
      ``flops_per_example`` read the same arithmetic.  Training cost is
      conventionally ``3×`` forward (fwd + input grad + weight grad).

    ``gives_scratch`` declares that this layer keeps no reference to what its
    ``forward`` or ``backward`` returns, and that neither result is (a view
    of) an array it was handed unless :class:`Sequential` told it that one was
    scratch: the next layer in a chain may write over it.  ``Sequential``
    records on each layer whether its forward input (``_x_scratch``) and its
    backward ``grad_out`` (``_grad_scratch``) came from such a neighbour;
    standalone, neither is.

    ``per_example`` declares that an eval-mode forward computes each output
    row from its input row alone, to the bit, whatever the batch, so it may
    run on slabs; a GEMM over a batch's rows (``Linear``) is not: BLAS row
    results depend on the row count.  Eval-mode storage never grows a pool.
    """

    gives_scratch = False
    per_example = False
    config: Tuple = ()  # the constructor arguments ``geometry`` takes
    _x_scratch = False
    _grad_scratch = False

    def __init__(self) -> None:
        self.training = True
        self._params: List[Parameter] = []
        self._children: List["Module"] = []

    # -- registration ----------------------------------------------------

    def register_parameter(self, param: Parameter) -> Parameter:
        self._params.append(param)
        return param

    def register_child(self, child: "Module") -> "Module":
        self._children.append(child)
        return child

    def parameters(self) -> List[Parameter]:
        out = list(self._params)
        for child in self._children:
            out.extend(child.parameters())
        return out

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._children:
            yield from child.modules()

    # -- modes -------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        for mod in self.modules():
            mod.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def set_rng(self, rng: np.random.Generator) -> "Module":
        """Give every stochastic layer (Dropout) this generator."""
        for mod in self.modules():
            if hasattr(mod, "rng"):
                mod.rng = rng
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- compute contract ---------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @classmethod
    def geometry(cls, in_shape: Tuple[int, ...], *config) -> Geometry:
        """``(output shape, forward FLOPs, parameters)`` per example of ``cls(*config)``."""
        raise NotImplementedError

    def output_shape(self, in_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return self.geometry(in_shape, *self.config)[0]

    def flops_per_example(self, in_shape: Tuple[int, ...]) -> float:
        return self.geometry(in_shape, *self.config)[1]

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        head = f"{type(self).__name__}({self.extra_repr()})"
        if not self._children:
            return head
        lines = [head]
        for child in self._children:
            for ln in repr(child).splitlines():
                lines.append("  " + ln)
        return "\n".join(lines)


class Sequential(Module):
    """Chain of layers; backward replays them in reverse.

    Appending a layer tells it whether its input is scratch (the layer before
    it ``gives_scratch``), and tells that layer whether its ``grad_out`` is.
    The first layer's input is the caller's, the last layer's ``grad_out`` the
    loss gradient: neither is ever scratch.  Its ``config`` is one
    ``(layer class, *config)`` row per layer, the form ``geometry`` chains.

    In eval mode the leading ``per_example`` layers (a CIFAR net's conv
    stack) run on slabs of the largest training batch seen, whose requests
    fit the idle training pools, and the rest on the whole batch.
    """

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers: List[Module] = []
        self._lead = 0  # how many leading layers are per_example
        self._batch = 0  # the largest training batch seen: an eval slab
        for layer in layers:
            self.append(layer)

    def append(self, layer: Module) -> "Sequential":
        last = self.layers[-1] if self.layers else None
        layer._x_scratch = last is not None and last.gives_scratch
        layer._grad_scratch = False
        if last is not None:
            last._grad_scratch = layer.gives_scratch
        if self._lead == len(self.layers) and layer.per_example:
            self._lead += 1
        self.layers.append(layer)
        self.register_child(layer)
        self.config = self.config + ((type(layer), *layer.config),)
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, rest = len(x), self.layers
        if self.training:
            self._batch = max(self._batch, n)
        elif self._lead and 0 < self._batch < n:
            lead, rest = rest[: self._lead], rest[self._lead :]
            for lo in range(0, n, self._batch):
                y = x[lo : lo + self._batch]
                for layer in lead:
                    y = layer.forward(y)
                out = np.empty((n,) + y.shape[1:], y.dtype) if lo == 0 else out
                out[lo : lo + len(y)] = y
            x = out
        for layer in rest:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        for layer in reversed(self.layers[1:]):
            grad_out = layer.backward(grad_out)
        if not self.layers:
            return grad_out
        first = self.layers[0]
        if input_grad or not first.parameters():
            return first.backward(grad_out)
        return first.backward(grad_out, input_grad=False)

    @classmethod
    def geometry(cls, in_shape: Tuple[int, ...], *rows: tuple) -> Geometry:
        """The rows' geometry in order: the last output shape, FLOPs and
        parameters summed layer by layer."""
        flops, params = 0.0, 0
        for layer_cls, *config in rows:
            in_shape, layer_flops, layer_params = layer_cls.geometry(in_shape, *config)
            flops += layer_flops
            params += layer_params
        return in_shape, flops, params

    def layer_summary(self, in_shape: Tuple[int, ...]) -> List[dict]:
        """Per-layer table: name, output shape, params, forward FLOPs."""
        rows = []
        for layer in self.layers:
            out_shape = layer.output_shape(in_shape)
            rows.append(
                {
                    "layer": type(layer).__name__,
                    "config": layer.extra_repr(),
                    "in_shape": in_shape,
                    "out_shape": out_shape,
                    "params": layer.num_parameters(),
                    "flops": layer.flops_per_example(in_shape),
                }
            )
            in_shape = out_shape
        return rows


class FlatParams:
    """Contiguous views of a module's parameters and gradients.

    ``data`` and ``grad`` are 1-D float arrays; every layer Parameter's
    ``.data``/``.grad`` is a reshaped *view* into them, so vector math here is
    visible to the layers and vice versa.
    """

    def __init__(self, data: np.ndarray, grad: np.ndarray, params: Sequence[Parameter]) -> None:
        self.data = data
        self.grad = grad
        self._params = list(params)

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> float:
        return float(self.data.nbytes)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def copy_data(self) -> np.ndarray:
        return self.data.copy()

    def set_data(self, vec: np.ndarray) -> None:
        if vec.shape != self.data.shape:
            raise ValueError(f"shape mismatch: {vec.shape} vs {self.data.shape}")
        np.copyto(self.data, vec)


def flatten_module(module: Module) -> FlatParams:
    """Re-point all of ``module``'s parameters into two flat contiguous buffers.

    Equivalent of Torch's ``getParameters()``.  Safe to call once per model
    instance; calling again returns a fresh flattening (views move).
    """
    params = module.parameters()
    if not params:
        raise ValueError("module has no parameters")
    dtypes = {p.data.dtype for p in params}
    if len(dtypes) != 1:
        raise ValueError(f"mixed parameter dtypes: {dtypes}")
    dtype = dtypes.pop()
    total = sum(p.size for p in params)
    flat_data = np.empty(total, dtype=dtype)
    flat_grad = np.zeros(total, dtype=dtype)
    offset = 0
    for p in params:
        n = p.size
        flat_data[offset : offset + n] = p.data.ravel()
        flat_grad[offset : offset + n] = p.grad.ravel()
        view_d = flat_data[offset : offset + n].reshape(p.data.shape)
        view_g = flat_grad[offset : offset + n].reshape(p.data.shape)
        p.data = view_d
        p.grad = view_g
        offset += n
    return FlatParams(flat_data, flat_grad, params)
