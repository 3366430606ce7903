"""Reference kernels for the model tests.

`ref_per_sample_grads` and `ref_loss_and_grad` are the earlier model
kernels kept verbatim: per-layer einsum blocks joined by concatenation,
and a backward pass that recomputes each hidden derivative from the
pre-activations. The library kernels must match them bit for bit.
`fd_gradient` is the central-difference gradient oracle.
"""

import numpy as np

from hiercl.model import (Batch, ModelSpec, _check_batch, _coord_steps,
                          _output_loss_and_delta, _regression_targets,
                          _split_params)


def fd_gradient(fn, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    w = np.asarray(w, dtype=np.float64)
    steps = _coord_steps(w, h)
    g = np.empty_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = steps[i]
        g[i] = (fn(w + e) - fn(w - e)) / (2.0 * steps[i])
    return g


def _ref_forward(params, inputs, spec: ModelSpec):
    layers = _split_params(params, spec)
    acts = [np.asarray(inputs, dtype=np.float64)]
    pre = []
    a = acts[0]
    for i, (w, b) in enumerate(layers):
        z = a @ w + b
        pre.append(z)
        if i < len(layers) - 1:
            a = np.tanh(z) if spec.activation == "tanh" else np.maximum(z, 0.0)
        else:
            a = z
        acts.append(a)
    return acts, pre


def _ref_backward(acts, pre, delta, spec: ModelSpec, params):
    layers = _split_params(params, spec)
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw = acts[i].T @ delta
        gb = delta.sum(axis=0)
        grads[i] = (gw, gb)
        if i > 0:
            delta = delta @ w.T
            z = pre[i - 1]
            if spec.activation == "tanh":
                delta = delta * (1.0 - np.tanh(z) ** 2)
            else:
                delta = delta * (z > 0.0)
    return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])


def ref_loss_and_grad(params, batch: Batch, spec: ModelSpec):
    _check_batch(batch, spec)
    acts, pre = _ref_forward(params, batch.inputs, spec)
    loss, delta = _output_loss_and_delta(acts[-1], batch, spec)
    return loss, _ref_backward(acts, pre, delta, spec, params)


def ref_per_sample_grads(params, batch: Batch, spec: ModelSpec) -> np.ndarray:
    _check_batch(batch, spec)
    acts, pre = _ref_forward(params, batch.inputs, spec)
    out = acts[-1]
    n = out.shape[0]
    if spec.task_kind == "classification":
        y = np.asarray(batch.targets, dtype=np.intp)
        m = out.max(axis=1, keepdims=True)
        p = np.exp(out - m)
        p /= p.sum(axis=1, keepdims=True)
        delta = p.copy()
        delta[np.arange(n), y] -= 1.0
    else:
        t = _regression_targets(batch)
        delta = 2.0 * (out - t) / t.shape[1]

    layers = _split_params(params, spec)
    pieces = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw = np.einsum("ni,nj->nij", acts[i], delta).reshape(n, -1)
        pieces[i] = np.concatenate([gw, delta], axis=1)
        if i > 0:
            delta = delta @ w.T
            z = pre[i - 1]
            if spec.activation == "tanh":
                delta = delta * (1.0 - np.tanh(z) ** 2)
            else:
                delta = delta * (z > 0.0)
    return np.concatenate(pieces, axis=1)
