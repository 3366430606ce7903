"""Dense tanh feed-forward model over a flat parameter vector.

All model state lives in a single 1-D float64 array so that second-order
consolidation can treat the network as a point in R^p. Forward, loss and
backpropagation are plain numpy, in one pass (`sample_factors`): the mean
loss over a batch and, per layer, its input activations A and the mean
loss's deltas D. The gradient (`grad_from_factors`, which `loss_and_grad`
returns) and any run of rows of per-sample gradients (`per_sample_grads`),
each row one sample's share of the gradient, are products of those factors.

`loss_and_grad` and `sample_factors` also take a (P, p) stack of parameter
vectors with a stacked (P, n, d) Batch, and `accuracy_eval` a stack scored
on one shared (n, d) Batch; each returns one result per row. Stacked
products go through np.matmul and the reductions run along the last axes,
so each row gets the same bits as a call on that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

ParamVector = np.ndarray  # flat float64 vector of length p

TASK_KINDS = ("classification", "regression")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of the dense tanh net: layer widths and task kind."""

    layer_widths: tuple[int, ...]
    task_kind: str = "classification"

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 2:
            raise ValueError("model needs at least an input and an output layer")
        if any(w <= 0 for w in self.layer_widths):
            raise ValueError(f"layer widths must be positive, got {self.layer_widths}")
        if self.task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.task_kind!r}")

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]

    @cached_property  # in the instance dict, so eq and hash still see the fields only
    def param_count(self) -> int:
        return sum(a * b + b for a, b in zip(self.layer_widths, self.layer_widths[1:]))


@dataclass
class Batch:
    """A batch of inputs plus integer class labels or real-valued targets.

    Inputs are (n, input_dim), or (P, n, input_dim) for a stack of P
    same-shape minibatches whose targets are stacked the same way."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim not in (2, 3):
            raise ValueError("inputs must be a 2-D (n, input_dim) array or a stack of them")
        if self.inputs.shape[-2] < 1:
            raise ValueError("batch must contain at least one sample")
        self.targets = np.asarray(self.targets)
        if self.targets.shape[: self.inputs.ndim - 1] != self.inputs.shape[:-1]:
            raise ValueError("inputs and targets disagree on sample count")

    @property
    def n(self) -> int:
        return self.inputs.shape[-2]


def _check_batch(batch: Batch, spec: ModelSpec):
    if batch.inputs.shape[-1] != spec.input_dim:
        raise ValueError(
            f"batch input dim {batch.inputs.shape[-1]} != model input dim {spec.input_dim}"
        )
    sample_axes = batch.inputs.ndim - 1
    if spec.task_kind == "classification":
        if batch.targets.ndim != sample_axes:
            raise ValueError("classification targets must be a label array, one label per sample")
        labels = batch.targets
        if labels.size and (labels.min() < 0 or labels.max() >= spec.output_dim):
            raise ValueError("class labels out of range for the output layer")
    elif batch.targets.ndim != sample_axes + 1 or batch.targets.shape[-1] != spec.output_dim:
        raise ValueError("regression targets do not match the output width")


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Deterministic init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    params = np.zeros(spec.param_count)
    for w, _ in _split_params(params, spec):
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _split_params(params: ParamVector, spec: ModelSpec):
    """View the flat vector, or each row of a stack with any leading axes,
    as per-layer (W, b) pairs without copying: W is (..., fan_in, fan_out)
    and b is (..., 1, fan_out). The only code that knows the flat layout."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim < 1 or params.shape[-1] != spec.param_count:
        raise ValueError(
            f"parameter array has shape {params.shape}, expected rows of length "
            f"{spec.param_count}"
        )
    lead = params.shape[:-1]
    layers = []
    off = 0
    for fan_in, fan_out in zip(spec.layer_widths, spec.layer_widths[1:]):
        w = params[..., off : off + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        off += fan_in * fan_out
        b = params[..., None, off : off + fan_out]
        off += fan_out
        layers.append((w, b))
    return layers


def _forward(layers, inputs: np.ndarray) -> list[np.ndarray]:
    """Forward pass keeping every layer's input activation for backprop.

    Hidden layers are tanh; the output layer is linear (logits for
    classification, raw values for regression).
    """
    acts = [np.asarray(inputs, dtype=np.float64)]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w
        z += b
        if i < len(layers) - 1:
            np.tanh(z, out=z)
        acts.append(z)
    return acts


def predict(params: ParamVector, inputs: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Network outputs: logits (classification) or values (regression)."""
    return _forward(_split_params(params, spec), inputs)[-1]


def _output_loss_and_delta(out: np.ndarray, batch: Batch, spec: ModelSpec):
    """Mean loss over the batch and its gradient w.r.t. the outputs; one
    loss per minibatch of a stack."""
    n = out.shape[-2]
    if spec.task_kind == "classification":
        y = np.asarray(batch.targets, dtype=np.intp)
        # the class-axis max, by out.max on a lone (n, c) batch and one column
        # at a time on a stack, the faster at each rank. max is exact, so both
        # give the same bits: NaN propagates in both, and a signed zero in m
        # cannot reach lse
        if out.ndim == 2:
            m = out.max(axis=-1, keepdims=True)
        else:
            m = out[..., :1].copy()
            for j in range(1, out.shape[-1]):
                np.maximum(m, out[..., j : j + 1], out=m)
        e = out - m
        np.exp(e, out=e)
        lse = e.sum(axis=-1, keepdims=True)
        np.log(lse, out=lse)
        lse += m
        logp = out - lse
        # flat position of each sample's target entry in the (..., n, c) array
        at = np.arange(0, logp.size, logp.shape[-1]) + y.reshape(-1)
        loss = -logp.reshape(-1)[at].reshape(y.shape).mean(axis=-1)
        delta = np.exp(logp, out=logp)  # only once the loss has its entries
        delta.reshape(-1)[at] -= 1.0
        delta /= n
        return loss, delta
    r = out - batch.targets
    loss = (r * r).reshape(*r.shape[:-2], -1).mean(axis=-1)
    r *= 2.0
    r /= n * r.shape[-1]
    return loss, r


def sample_factors(params: ParamVector, batch: Batch, spec: ModelSpec):
    """The one forward and backward pass over a batch: (loss, factors), with
    the mean loss and, per layer in layer order, the input activations A
    (n, fan_in) and the deltas D (n, fan_out) of the mean loss w.r.t. the
    layer's pre-activation output. D is already divided by n, so sample
    i's outer product of A_i and D_i is its share of the gradient, and the
    shares sum to it. A (P, p) stack with a stacked Batch gives P losses and
    (P, n, fan) factors, row i bitwise the call on row i alone.

    The tanh derivative reuses the stored activation a: 1 - a**2, the same
    bits as recomputing it from the pre-activations. It is multiplied in
    place into the fresh product D @ W^T. The first layer's A is the batch's
    own inputs, and no array is copied: callers must not write into them.
    """
    _check_batch(batch, spec)
    layers = _split_params(params, spec)
    acts = _forward(layers, batch.inputs)
    loss, delta = _output_loss_and_delta(acts[-1], batch, spec)
    factors = [(acts[-2], delta)]
    for i in range(len(layers) - 1, 0, -1):
        slope = np.square(acts[i])
        np.subtract(1.0, slope, out=slope)
        delta = delta @ layers[i][0].swapaxes(-1, -2)
        delta *= slope
        factors.append((acts[i - 1], delta))
    return loss, factors[::-1]


def grad_from_factors(factors, spec: ModelSpec) -> np.ndarray:
    """The gradient that sample_factors' factors carry: each layer's A^T D
    written into its W view of the flat vector and the column sums of D
    into its b view; (P, p) for a stack's factors."""
    grad = np.empty((*factors[0][1].shape[:-2], spec.param_count))
    for (w, b), (a, d) in zip(_split_params(grad, spec), factors):
        np.matmul(a.swapaxes(-1, -2), d, out=w)
        d.sum(axis=-2, keepdims=True, out=b)
    return grad


def loss_and_grad(params: ParamVector, batch: Batch, spec: ModelSpec):
    """Mean loss over the batch and its analytic gradient (length p).

    Classification: softmax cross-entropy. Regression: mean squared error
    over all output entries. A (P, p) stack of parameters with a stacked
    Batch gives P losses and a (P, p) gradient, row i bitwise equal to the
    call on row i and its minibatch alone.
    """
    loss, factors = sample_factors(params, batch, spec)
    return loss, grad_from_factors(factors, spec)


def per_sample_grads(factors, spec: ModelSpec, out: np.ndarray | None = None) -> np.ndarray:
    """The (rows, p) per-sample gradients of lone sample_factors rows, each
    row one sample's share of the gradient (its own gradient over n): each
    layer's bias block is D and its weight block, outer(A_i, D_i) per row,
    is written by np.einsum straight into its (rows, fan_in, fan_out)
    _split_params view. No entry sums over rows, so a row's gradient has
    the same bits whatever rows it is expanded with. einsum sums into a
    zeroed block, so each entry is 0 + a*d: the product a*d, except that a
    -0.0 product is stored as +0.0 (equal under ==). Pass a C-contiguous
    float64 (rows, p) `out` to have it filled, every entry written, and
    returned instead of a new array.
    """
    if out is None:
        out = np.empty((factors[0][0].shape[0], spec.param_count))
    for (w, b), (a, d) in zip(_split_params(out, spec), factors):
        b[:, 0] = d
        np.einsum("ni,nj->nij", a, d, out=w)
    return out


def accuracy_eval(params: ParamVector, batch: Batch, spec: ModelSpec):
    """Fraction of argmax-correct labels, or 1/(1+MSE) for regression.

    Both scores live in [0, 1] so permutation selection can argmax either
    task kind uniformly. A (P, p) stack of parameters scored on one Batch
    gives an array of P scores.
    """
    _check_batch(batch, spec)
    out = predict(params, batch.inputs, spec)
    if spec.task_kind == "classification":
        y = np.asarray(batch.targets, dtype=np.intp)
        return np.mean(out.argmax(axis=-1) == y, axis=-1)
    r = out - batch.targets
    mse = (r ** 2).reshape(*r.shape[:-2], -1).mean(axis=-1)
    return 1.0 / (1.0 + mse)

