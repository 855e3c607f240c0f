"""Dense feedforward function approximation with hand-written reverse-mode
gradients and an Adam optimizer, in the DDPG form (arXiv:1509.02971).

Every hidden layer is ReLU. A network given output bounds squashes its
output with tanh into them, per dimension; one without bounds has a linear
output. Adam runs with the published constants ADAM_BETA1, ADAM_BETA2 and
ADAM_EPS (arXiv:1412.6980).

Each network keeps all of its parameters in one contiguous vector
``params``; ``weights[i]`` and ``biases[i]`` are views into it, laid out
A0, B0, A1, B1, ... Gradients and Adam moments are flat vectors of the same
layout, so an optimizer step is a handful of whole-vector operations.

``forward`` takes a single vector of shape (d,) or a batch of shape (n, d);
``forward_trace`` and the gradients take batches only, and the parameter
gradients are summed over the batch (the caller scales the upstream
gradient to get means). A batch's product ``x @ w.T`` may differ from the
single-vector product in the last bit, so ``forward_rows`` evaluates a stack
of single inputs with one stacked matrix-vector product per layer, each row
bit-equal to ``forward`` on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, TrainingError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _param_count(sizes) -> int:
    """Parameters of a network with these layer sizes, which must be at least
    two positive integers (ConfigError otherwise)."""
    if len(sizes) < 2:
        raise ConfigError(f"need at least 2 layer sizes, got {sizes}")
    if any((not isinstance(s, (int, np.integer))) or s <= 0 for s in sizes):
        raise ConfigError(f"layer sizes must be positive integers, got {sizes}")
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def layer_views(sizes, flat: np.ndarray):
    """(weights, biases): per-layer views into flat, laid out A0, B0, A1, B1, ...
    weights[i] has shape (sizes[i+1], sizes[i])."""
    if flat.shape != (_param_count(sizes),):
        raise ShapeError(f"parameter vector of shape {flat.shape} does not fit "
                         f"layer sizes {list(sizes)}")
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at:at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at:at + fan_out])
        at += fan_out
    return weights, biases


@dataclass
class Network:
    """A stack of affine layers whose parameters live in one vector, with
    ReLU between them.

    A network with bounds maps tanh(z) affinely onto [output_low,
    output_high] per dimension, so its outputs can never leave them.
    Construction checks the sizes, that the bounds are both absent or both
    finite with low < high and one pair per output, and that every
    parameter is finite, and raises ConfigError.
    """

    layer_sizes: list[int]
    params: np.ndarray
    output_low: np.ndarray | None = None
    output_high: np.ndarray | None = None
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)
    # a bounded output is mid + half * tanh(z); both are None without bounds
    mid: np.ndarray | None = field(init=False, repr=False, compare=False)
    half: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = self.layer_sizes
        self.weights, self.biases = layer_views(sizes, self.params)   # checks the sizes
        if not np.all(np.isfinite(self.params)):
            raise ConfigError("network parameters must all be finite")
        self.mid = self.half = None
        low, high = self.output_low, self.output_high
        if low is None and high is None:
            return
        if not (np.shape(low) == np.shape(high) == (sizes[-1],)
                and np.all(np.isfinite(low)) and np.all(np.isfinite(high))
                and np.all(low < high)):
            raise ConfigError(f"a bounded output needs both bounds, finite with low < high "
                              f"and one pair per output; got low={low} high={high}")
        self.mid = 0.5 * (high + low)
        self.half = 0.5 * (high - low)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class Optimizer:
    """Adam state; m and v are flat moments, allocated at the first step.
    Raises ConfigError unless lr is finite and >= 0 (0 freezes the network),
    steps >= 0, the moments finite and v >= 0."""

    learning_rate: float
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self):
        moments_ok = self.m is None or (np.isfinite(self.m).all() and np.isfinite(self.v).all()
                                        and (self.v >= 0.0).all())
        if not (0.0 <= self.learning_rate < np.inf and self.step_count >= 0 and moments_ok):
            raise ConfigError(
                f"Adam needs a finite lr >= 0, steps >= 0 and finite moments with v >= 0; "
                f"got lr={self.learning_rate}, steps={self.step_count}")


def network_init(
    layer_sizes: list[int],
    rng: np.random.Generator,
    output_bounds: tuple | None = None,
    final_scale: float = 1.0,
) -> Network:
    """Create a network with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) parameters.

    ``output_bounds`` is a (low, high) pair (scalars or per-dimension arrays)
    that the output is squashed into; without it the output is linear.
    ``final_scale`` multiplies the last layer's parameters; actors use 0.1 to
    start near the bounds' midpoint.
    """
    params = np.zeros(_param_count(layer_sizes))
    low = high = None
    if output_bounds is not None:
        low, high = (np.broadcast_to(np.asarray(b, dtype=float), (layer_sizes[-1],)).copy()
                     for b in output_bounds)
    net = Network(list(layer_sizes), params, low, high)
    for w, b in zip(net.weights, net.biases):
        limit = 1.0 / np.sqrt(w.shape[1])
        w[:] = rng.uniform(-limit, limit, size=w.shape)
        b[:] = rng.uniform(-limit, limit, size=b.shape)
    if final_scale != 1.0:
        net.weights[-1] *= final_scale
        net.biases[-1] *= final_scale
    return net


def _checked_input(net: Network, x, batch: bool = False) -> np.ndarray:
    """x as floats: an (n, d) batch or, unless batch, a (d,) vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in ((2,) if batch else (1, 2)) or x.shape[-1] != net.input_dim:
        raise ShapeError(f"input shape {x.shape} is not an (n, {net.input_dim}) batch"
                         + ("" if batch else f" or a ({net.input_dim},) vector"))
    return x


def _layers(net: Network, x: np.ndarray, acts: list | None = None, rows: bool = False):
    """The layer loop on x of shape (d,) or (n, d). Appends each layer's input
    to acts when given. Returns the output and, for a bounded output, the
    output tanh (else None). Activations are applied in place to each fresh
    product, which computes the same floats as allocating a new array. With
    rows, each row of a batch goes through the matrix-vector product that a
    single vector gets."""
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        if acts is not None:
            acts.append(x)
        if x.ndim == 1:
            z = w.dot(x)
        elif rows:
            z = np.matmul(w, x[:, :, None])[:, :, 0]
        else:
            z = x @ w.T
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z)
            x = z
    if net.half is None:
        return z, None
    t = np.tanh(z, out=z)
    out = net.half * t
    out += net.mid
    return out, t


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Evaluate the network; pure function of (net, x)."""
    return _layers(net, _checked_input(net, x))[0]


def forward_rows(net: Network, xs: np.ndarray) -> np.ndarray:
    """Evaluate the network on each row of xs, shape (n, d): row j of the
    result is bit-equal to forward(net, xs[j]). np.matmul of a layer's
    weights with the (n, d, 1) stack runs, row by row, the matrix-vector
    kernel of forward's w.dot(x); the batch product x @ w.T does not."""
    return _layers(net, _checked_input(net, xs, batch=True), rows=True)[0]


def forward_trace(net: Network, x: np.ndarray):
    """Forward pass over a batch x of shape (n, d) that keeps the
    intermediate values backward_trace and input_gradient need. Returns
    (output, trace); a single vector raises ShapeError."""
    acts = []
    out, t = _layers(net, _checked_input(net, x, batch=True), acts)
    return out, (acts, t)


def _propagate(net: Network, trace, upstream, grad: np.ndarray | None):
    """Carry the gradient of sum(output * upstream) back through the stored
    trace. When grad is given, the parameter gradients are written into it
    (Network.params layout) and the pass stops at the first layer; otherwise
    the gradient with respect to the input is returned. Neither upstream nor
    the trace is ever written."""
    acts, t = trace
    delta = np.asarray(upstream, dtype=float)
    if delta.ndim != 2 or delta.shape[1] != net.output_dim or delta.shape[0] != len(acts[0]):
        raise ShapeError(
            f"upstream shape {delta.shape} incompatible with output dim {net.output_dim}")
    if t is not None:
        delta = delta * net.half
        delta *= 1.0 - t * t

    if grad is not None:
        gw, gb = layer_views(net.layer_sizes, grad)
    for i in range(len(net.weights) - 1, -1, -1):
        if grad is not None:
            np.matmul(delta.T, acts[i], out=gw[i])
            delta.sum(axis=0, out=gb[i])
            if i == 0:
                return None
        w = net.weights[i]
        # a 1-wide delta times a row is an outer product; a K=1 gemm costs more
        delta = np.multiply(delta, w) if delta.shape[1] == 1 else delta @ w
        if i > 0:
            delta *= acts[i] > 0.0
    return delta


def backward_trace(net: Network, trace, upstream: np.ndarray) -> np.ndarray:
    """Parameter gradients of sum(output * upstream) from a stored forward
    trace, as one vector in the Network.params layout; see input_gradient for
    the gradient with respect to the input."""
    grad = np.empty_like(net.params)
    _propagate(net, trace, upstream, grad)
    return grad


def input_gradient(net: Network, trace, upstream: np.ndarray) -> np.ndarray:
    """Gradient of sum(output * upstream) with respect to the input only, from
    a stored forward trace."""
    return _propagate(net, trace, upstream, None)


def optimizer_step(net: Network, g: np.ndarray, opt: Optimizer) -> Network:
    """Apply one Adam update in place and return the network; g is a flat
    gradient in the Network.params layout.

    Rejects the whole update if any gradient entry is non-finite.
    """
    if g.shape != net.params.shape or (opt.m is not None and opt.m.shape != g.shape):
        raise ShapeError(f"gradient or moment shape does not match the network's "
                         f"{net.params.size} parameters")
    if not np.isfinite(g).all():
        first = np.flatnonzero(~np.isfinite(g))[0]
        ends = np.cumsum([w.size + b.size for w, b in zip(net.weights, net.biases)])
        layer = int(np.searchsorted(ends, first, side="right"))
        raise TrainingError(f"update rejected: non-finite gradient at layer {layer}")
    if opt.m is None:
        opt.m, opt.v = np.zeros_like(g), np.zeros_like(g)

    opt.step_count += 1
    b1c = 1.0 - ADAM_BETA1 ** opt.step_count
    b2c = 1.0 - ADAM_BETA2 ** opt.step_count
    opt.m *= ADAM_BETA1
    opt.m += (1.0 - ADAM_BETA1) * g
    opt.v *= ADAM_BETA2
    opt.v += (1.0 - ADAM_BETA2) * (g * g)
    net.params -= opt.learning_rate * (opt.m / b1c) / (np.sqrt(opt.v / b2c) + ADAM_EPS)
    return net
