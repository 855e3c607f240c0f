"""Shared test oracles: finite differences and random network factories."""

import numpy as np

from hacx import approx


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


def rel_close(a, b, tol=1e-4, floor=1e-3):
    """Elementwise |a-b| <= tol * max(|a|, |b|, floor)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= tol * np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def random_small_net(rng, hidden_activation=None, output_activation=None):
    """A net with at most 3 weight layers and widths at most 8."""
    depth = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
    hact = hidden_activation or ("relu" if rng.random() < 0.5 else "tanh")
    oact = output_activation or ("identity" if rng.random() < 0.5 else "tanh_scaled")
    bounds = None
    if oact == "tanh_scaled":
        low = rng.uniform(-3, 0, sizes[-1])
        bounds = (low, low + rng.uniform(0.5, 4, sizes[-1]))
    return approx.network_init(sizes, rng, hidden_activation=hact,
                               output_activation=oact, output_bounds=bounds)


def input_off_relu_kinks(net, rng, margin=1e-3, tries=50):
    """An input whose hidden pre-activations stay away from relu kinks, so
    finite differences are trustworthy."""
    for _ in range(tries):
        x = rng.uniform(-1.5, 1.5, net.layer_sizes[0])
        if net.hidden_activation != "relu":
            return x
        a, hidden_pre = x, []
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            hidden_pre.append(w @ a + b)
            a = np.maximum(hidden_pre[-1], 0.0)
        if all(np.min(np.abs(z)) > margin for z in hidden_pre):
            return x
    return x
