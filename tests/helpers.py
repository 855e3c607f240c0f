"""Shared test oracles: finite differences, random network factories, a
reference forward/backward pass, gradients by name, a named view of packed
transition rows, relabel segments built from packed rows, replay-buffer
inspection helpers, and a snapshot line editor."""

import base64
from typing import NamedTuple

import numpy as np

from hacx import approx, hac


def fd_param_gradients(net, x, upstream, h=1e-5):
    """Central finite differences of sum(forward(net, x) * upstream) with
    respect to every parameter, as one vector in the net.params layout.
    Mutates and restores net in place."""
    x = np.asarray(x, dtype=float)
    upstream = np.asarray(upstream, dtype=float)

    def loss():
        return float(np.sum(approx.forward(net, x) * upstream))

    flat = net.params
    g = np.zeros_like(flat)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        lp = loss()
        flat[i] = old - h
        lm = loss()
        flat[i] = old
        g[i] = (lp - lm) / (2 * h)
    return g


def fd_input_gradient(net, x, upstream, h=1e-5):
    x = np.asarray(x, dtype=float).copy()
    upstream = np.asarray(upstream, dtype=float)

    def loss():
        return float(np.sum(approx.forward(net, x) * upstream))

    g = np.zeros_like(x)
    flat, gf = x.ravel(), g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        lp = loss()
        flat[i] = old - h
        lm = loss()
        flat[i] = old
        gf[i] = (lp - lm) / (2 * h)
    return g


class Gradients(NamedTuple):
    params: np.ndarray      # in the Network.params layout
    wrt_input: np.ndarray


def backward(net, x, upstream) -> Gradients:
    """Exact reverse-mode gradients of sum(forward(net, x) * upstream) with
    respect to every parameter and to the input, from one forward trace of
    the (n, d) batch x."""
    _, trace = approx.forward_trace(net, x)
    return Gradients(approx.backward_trace(net, trace, upstream),
                     approx.input_gradient(net, trace, upstream))


def parameter_count(net) -> int:
    return net.params.size


def rel_close(a, b, tol=1e-4, floor=1e-3):
    """Elementwise |a-b| <= tol * max(|a|, |b|, floor)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= tol * np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def random_small_net(rng, bounded=None):
    """A net with at most 3 weight layers and widths at most 8, whose output
    is squashed into random bounds when bounded (a coin flip when None)."""
    depth = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
    if bounded is None:
        bounded = rng.random() < 0.5
    bounds = None
    if bounded:
        low = rng.uniform(-3, 0, sizes[-1])
        bounds = (low, low + rng.uniform(0.5, 4, sizes[-1]))
    return approx.network_init(sizes, rng, output_bounds=bounds)


def input_off_relu_kinks(net, rng, margin=1e-3, tries=50):
    """A one-row batch whose hidden pre-activations stay away from relu
    kinks, so finite differences are trustworthy."""
    for _ in range(tries):
        x = rng.uniform(-1.5, 1.5, (1, net.layer_sizes[0]))
        a, hidden_pre = x, []
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            hidden_pre.append(a @ w.T + b)
            a = np.maximum(hidden_pre[-1], 0.0)
        if all(np.min(np.abs(z)) > margin for z in hidden_pre):
            return x
    return x


# Reference forward and backward passes: the plain allocating form of the
# approx layer loop (a new array per operation, a gemm for every delta
# propagation). approx must compute the same floats bit for bit.

def ref_layers(net, x, acts=None):
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        if acts is not None:
            acts.append(x)
        z = (w.dot(x) if x.ndim == 1 else x @ w.T) + b
        if i < last:
            x = np.maximum(z, 0.0)
    if net.output_low is None:
        return z, None
    t = np.tanh(z)
    mid = 0.5 * (net.output_high + net.output_low)
    half = 0.5 * (net.output_high - net.output_low)
    return mid + half * t, t


def ref_forward(net, x):
    return ref_layers(net, np.asarray(x, dtype=float))[0]


def ref_forward_trace(net, x):
    acts = []
    out, t = ref_layers(net, np.asarray(x, dtype=float), acts)
    return out, (acts, t)


def ref_backward_trace(net, trace, upstream):
    """(parameter gradient in the Network.params layout, input gradient)."""
    acts, t = trace
    delta = np.asarray(upstream, dtype=float)
    if t is not None:
        delta = delta * (0.5 * (net.output_high - net.output_low)) * (1.0 - t * t)
    gw, gb = [], []
    for i in range(len(net.weights) - 1, -1, -1):
        gw.insert(0, delta.T @ acts[i])
        gb.insert(0, delta.sum(axis=0))
        delta = delta @ net.weights[i]
        if i > 0:
            delta = delta * (acts[i] > 0.0)
    grad = np.concatenate([part for w, b in zip(gw, gb) for part in (w.ravel(), b)])
    return grad, delta


# Packed transition rows by name

class Transition(NamedTuple):
    """Named columns of one packed row state | goal | action | next_state |
    reward | discount (hac.pack_row); vectors are views into the row."""
    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    goal: object          # goal-space vector, or None for no goal
    discount: float


def transition(row) -> Transition:
    """Named view of one row (hac.columns); goal is None when the row has no
    goal columns."""
    s, g, a, ns, reward, discount = hac.columns(row)
    return Transition(s, a, float(reward), ns, g, float(discount))


def transitions(block) -> list:
    """Named views of the rows of a block, in order."""
    return [transition(row) for row in block]


def segment_rows(steps, goal=None) -> np.ndarray:
    """The block of packed rows a level stores for its (state, action,
    next_state) steps, as hac.hindsight_goal_transitions reads it: the goal
    columns hold goal (none when goal is None), and reward and discount,
    which relabeling replaces, are -1 and hac.DISCOUNT."""
    return np.array([hac.pack_row(s, goal, a, ns, -1.0, hac.DISCOUNT) for s, a, ns in steps])


# Snapshot editing

def resize_network(policy, role, sizes):
    """Give policy a fresh role ("actor" or "critic") network of the given
    sizes, with the old one's bounds (if any) on every output, and a fresh
    optimizer with the old one's learning rate, so that its snapshot stays
    well formed."""
    old = getattr(policy, role)
    bounds = None if old.output_low is None else (old.output_low[0], old.output_high[0])
    setattr(policy, role, approx.network_init(sizes, np.random.default_rng(1), bounds))
    setattr(policy, f"{role}_opt", approx.Optimizer(getattr(policy, f"{role}_opt").learning_rate))


def drop_values(vector, n):
    """A snapshot vector (base64 of float64 bytes) without its last n values."""
    return base64.b64encode(base64.b64decode(vector)[:-8 * n]).decode()


def edit_line(text, key, value, section=None, was=None):
    """text (a policy snapshot or any key = value text) with one `key = ...`
    line set to `key = value`; value None deletes the line, and a callable
    maps the old value to the new. The line edited is the first with that
    key, inside [section] if given, and holding the value was if given; an
    AssertionError says when there is none."""
    lines = text.split("\n")
    start = 0 if section is None else lines.index(f"[{section}]") + 1
    for i in range(start, len(lines)):
        if section is not None and lines[i].startswith("["):
            break
        k, sep, old = lines[i].partition(" = ")
        if sep and k == key and (was is None or old == was):
            if value is None:
                del lines[i]
            else:
                lines[i] = f"{key} = {value(old) if callable(value) else value}"
            return "\n".join(lines)
    raise AssertionError(f"no {key} = {was or '...'} line in [{section or 'any section'}]")


# Replay-buffer inspection

def buffer_sample(buf, batch_size, rng):
    """Uniform sample with replacement, as named transitions."""
    return transitions(hac.sample_arrays(buf, batch_size, rng))


def stored_columns(buf):
    """(state, goal_or_None, action, next_state, reward, discount) views of
    the rows pushed so far, in slot order."""
    return hac.columns(buf.rows[:buf.count])


def _vec_text(v) -> str:
    return ";".join(repr(float(x)) for x in np.asarray(v, dtype=float).ravel())


def dump_transitions(ts) -> str:
    """Debug dump: one transition per line; vector components joined by
    ';', fields by ','; an absent goal is the literal token EXPLORE."""
    lines = ["state,action,reward,next_state,goal,discount"]
    for t in ts:
        goal = "EXPLORE" if t.goal is None else _vec_text(t.goal)
        lines.append(",".join([_vec_text(t.state), _vec_text(t.action),
                               repr(float(t.reward)), _vec_text(t.next_state),
                               goal, repr(float(t.discount))]))
    return "\n".join(lines) + "\n"
