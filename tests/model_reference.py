"""Reference kernels for the model tests.

`ref_init_params` is the earlier initializer kept verbatim: one flat
uniform draw per weight block, joined with zero biases by concatenation.
`ref_per_sample_grads` and `ref_loss_and_grad` are the earlier model
kernels kept verbatim: per-layer einsum blocks joined by concatenation,
and a backward pass that recomputes each hidden derivative from the
pre-activations. They run on one unstacked batch, through their own
copies of the parameter split and the output loss
(`ref_output_loss_and_delta`: a whole-axis max, one expression for the
log-sum-exp, the softmax as exp(log-softmax)), so the library's stacked
kernels are checked against code they do not share. The library kernels
must match them bit for bit.

The finite-difference oracles: `fd_gradient` differences a scalar
function, `fd_hessian_from_grad` a gradient function, and
`exact_dense_hessian_oracle` is the Hessian of a pool's mean loss, from
central differences of the analytic gradient. The Hessian is dense p x p,
so the oracle serves small nets only (p <= MAX_ORACLE_DIM).
"""

import numpy as np

from hiercl.model import Batch, ModelSpec, _check_batch, loss_and_grad
from consolidation_reference import DenseCurvature

# finite-difference Hessians are dense p x p; keep oracle use small
MAX_ORACLE_DIM = 200


def _regression_targets(batch: Batch) -> np.ndarray:
    t = np.asarray(batch.targets, dtype=np.float64)
    return t[:, None] if t.ndim == 1 else t


def ref_init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    chunks = []
    for fan_in, fan_out in zip(spec.layer_widths, spec.layer_widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        chunks.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def _split_params(params, spec: ModelSpec):
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or params.size != spec.param_count:
        raise ValueError(
            f"parameter vector has length {params.size}, expected {spec.param_count}"
        )
    layers = []
    off = 0
    for fan_in, fan_out in zip(spec.layer_widths, spec.layer_widths[1:]):
        w = params[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = params[off : off + fan_out]
        off += fan_out
        layers.append((w, b))
    return layers


def ref_output_loss_and_delta(out: np.ndarray, batch: Batch, spec: ModelSpec):
    n = out.shape[0]
    if spec.task_kind == "classification":
        y = np.asarray(batch.targets, dtype=np.intp)
        m = out.max(axis=1, keepdims=True)
        lse = m + np.log(np.exp(out - m).sum(axis=1, keepdims=True))
        logp = out - lse
        loss = -logp[np.arange(n), y].mean()
        delta = np.exp(logp)
        delta[np.arange(n), y] -= 1.0
        return loss, delta / n
    t = _regression_targets(batch)
    r = out - t
    loss = float(np.mean(r * r))
    return loss, 2.0 * r / r.size


def _coord_steps(w: np.ndarray, h: float) -> np.ndarray:
    # relative step balances truncation against rounding error
    return h * (1.0 + np.abs(w))


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


def fd_hessian_from_grad(grad_fn, w: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Symmetrized central differences of a gradient function."""
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    w = np.asarray(w, dtype=np.float64)
    if w.size > MAX_ORACLE_DIM:
        raise ValueError(
            f"dense finite-difference Hessian limited to p <= {MAX_ORACLE_DIM}, got {w.size}"
        )
    steps = _coord_steps(w, h)
    cols = np.empty((w.size, w.size))
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = steps[i]
        cols[:, i] = (grad_fn(w + e) - grad_fn(w - e)) / (2.0 * steps[i])
    return 0.5 * (cols + cols.T)


def exact_dense_hessian_oracle(params, pool: Batch, spec: ModelSpec,
                               h: float = 1e-4) -> DenseCurvature:
    """Finite-difference Hessian of the pool's mean loss, by central
    differences of the analytic gradient. Small p only; the dimension
    guard lives in the differencing helper."""
    hess = fd_hessian_from_grad(lambda w: loss_and_grad(w, pool, spec)[1], params, h)
    return DenseCurvature(hess)


def _ref_forward(params, inputs, spec: ModelSpec):
    layers = _split_params(params, spec)
    acts = [np.asarray(inputs, dtype=np.float64)]
    pre = []
    a = acts[0]
    for i, (w, b) in enumerate(layers):
        z = a @ w + b
        pre.append(z)
        if i < len(layers) - 1:
            a = np.tanh(z)
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
            delta = delta * (1.0 - np.tanh(pre[i - 1]) ** 2)
    return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])


def ref_loss_and_grad(params, batch: Batch, spec: ModelSpec):
    _check_batch(batch, spec)
    acts, pre = _ref_forward(params, batch.inputs, spec)
    loss, delta = ref_output_loss_and_delta(acts[-1], batch, spec)
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
            delta = delta * (1.0 - np.tanh(pre[i - 1]) ** 2)
    return np.concatenate(pieces, axis=1)


def ref_accuracy_eval(params, batch: Batch, spec: ModelSpec) -> float:
    _check_batch(batch, spec)
    out = _ref_forward(params, batch.inputs, spec)[0][-1]
    if spec.task_kind == "classification":
        y = np.asarray(batch.targets, dtype=np.intp)
        return float(np.mean(out.argmax(axis=1) == y))
    t = _regression_targets(batch)
    mse = float(np.mean((out - t) ** 2))
    return 1.0 / (1.0 + mse)
