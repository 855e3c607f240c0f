import numpy as np
import pytest

from hacx import approx, envsim, harness
from hacx.errors import ConfigError, ShapeError, TrainingError

from helpers import (
    backward,
    fd_param_gradients,
    fd_input_gradient,
    rel_close,
    random_small_net,
    input_off_relu_kinks,
    parameter_count,
    ref_backward_trace,
    ref_forward,
    ref_forward_trace,
)


def closed_form_count(sizes):
    return sum((sizes[i] + 1) * sizes[i + 1] for i in range(len(sizes) - 1))


def test_init_determinism_bitwise():
    a = approx.network_init([2, 4, 1], np.random.default_rng(7))
    b = approx.network_init([2, 4, 1], np.random.default_rng(7))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


def test_init_rejects_single_layer():
    with pytest.raises(ConfigError):
        approx.network_init([3], np.random.default_rng(0))


def test_init_rejects_inverted_bounds():
    with pytest.raises(ConfigError):
        approx.network_init([2, 3], np.random.default_rng(0), output_bounds=(1.0, -1.0))


@pytest.mark.parametrize("sizes,kw", [
    ([3, 0], {}),
    ([3, 2.0], {}),
    ([3, 2], dict(output_low=np.array([-1.0, -1.0]))),
    ([3, 2], dict(output_high=np.array([1.0, 1.0]))),
    ([3, 2], dict(output_low=np.array([1.0, 1.0]), output_high=np.array([-1.0, np.nan]))),
    ([3, 2], dict(output_low=np.array([-1.0]), output_high=np.array([1.0]))),
])
def test_network_construction_checks_itself(sizes, kw):
    # the one check network_init and restore both go through
    with pytest.raises(ConfigError):
        approx.Network(sizes, np.zeros(8), **kw)


def test_network_refuses_non_finite_parameters():
    params = np.zeros(8)
    params[3] = np.inf
    with pytest.raises(ConfigError, match="finite"):
        approx.Network([3, 2], params)


@pytest.mark.parametrize("kw", [
    dict(learning_rate=-1e-3), dict(learning_rate=np.inf), dict(learning_rate=np.nan),
    dict(step_count=-1),
    dict(m=np.array([np.nan, 0.0]), v=np.zeros(2)), dict(m=np.zeros(2), v=np.array([0.0, -1.0])),
])
def test_optimizer_construction_checks_itself(kw):
    # a learning rate of 0 freezes a network and is allowed
    approx.Optimizer(0.0, m=np.zeros(2), v=np.zeros(2))
    with pytest.raises(ConfigError):
        approx.Optimizer(**{"learning_rate": 1e-3, **kw})


def test_parameter_count():
    net = approx.network_init([2, 64, 64, 2], np.random.default_rng(3))
    assert parameter_count(net) == 4482
    for _ in range(20):
        rng = np.random.default_rng(_)
        sizes = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(2, 5)))]
        net = approx.network_init(sizes, rng)
        assert parameter_count(net) == closed_form_count(sizes)


def test_init_scale_is_fan_in_uniform():
    net = approx.network_init([4, 16, 2], np.random.default_rng(11))
    assert np.max(np.abs(net.weights[0])) <= 1 / np.sqrt(4)
    assert np.max(np.abs(net.weights[1])) <= 1 / np.sqrt(16)
    scaled = approx.network_init([4, 16, 2], np.random.default_rng(11), final_scale=0.1)
    assert np.array_equal(scaled.weights[0], net.weights[0])
    assert np.allclose(scaled.weights[1], 0.1 * net.weights[1])
    assert np.allclose(scaled.biases[1], 0.1 * net.biases[1])


def test_forward_hand_oracle():
    net = approx.network_init([2, 2, 1], np.random.default_rng(0))
    net.weights[0][:] = [[1.0, -1.0], [0.5, 2.0]]
    net.biases[0][:] = [0.0, -1.0]
    net.weights[1][:] = [[2.0, 3.0]]
    net.biases[1][:] = [0.25]
    x = np.array([1.0, 2.0])
    # z1 = (-1, 3.5), relu -> (0, 3.5), out = 2*0 + 3*3.5 + 0.25
    assert np.allclose(approx.forward(net, x), [10.75])


def test_forward_single_matches_batch():
    # forward and forward_trace share one layer loop, so a batch gives the
    # same bits through either; a row alone goes through a matrix-vector
    # product, which may round differently from the batched product
    rng = np.random.default_rng(42)
    for bounded in (False, True):
        for _ in range(5):
            net = random_small_net(rng, bounded)
            xs = rng.uniform(-2, 2, (5, net.layer_sizes[0]))
            batch = approx.forward(net, xs)
            assert batch.shape == (5, net.layer_sizes[-1])
            assert np.array_equal(approx.forward_trace(net, xs)[0], batch)
            for i in range(5):
                assert np.allclose(approx.forward(net, xs[i]), batch[i], atol=1e-12)


def test_forward_rows_is_row_exact():
    # each row of a stacked product has the bits forward gives it alone:
    # every network of a k=3 agent (RND included), and small nets with and
    # without bounds, for stacks of 1 to 64 rows
    ag = harness.build_agent(harness.RunConfig(), envsim.builtin_spec("four_rooms"),
                             np.random.default_rng(0))
    rng = np.random.default_rng(1)
    nets = [net for p in (*ag.levels, ag.explore_top) for net in (p.actor, p.critic)]
    nets += [ag.novelty.target, ag.novelty.predictor]
    nets += [random_small_net(rng, bounded) for bounded in (False, True)]
    for net in nets:
        for n in range(1, 65):
            xs = rng.normal(0.0, 3.0, (n, net.input_dim))
            rows = approx.forward_rows(net, xs)
            assert rows.shape == (n, net.output_dim)
            for j in range(n):
                assert rows[j].tobytes() == approx.forward(net, xs[j]).tobytes()
    with pytest.raises(ShapeError):
        approx.forward_rows(nets[0], np.zeros(nets[0].input_dim))


def test_forward_trace_agrees_with_forward():
    rng = np.random.default_rng(5)
    net = random_small_net(rng)
    x = rng.uniform(-1, 1, (4, net.layer_sizes[0]))
    out, _ = approx.forward_trace(net, x)
    assert np.allclose(out, approx.forward(net, x), atol=1e-12)


def test_forward_trace_refuses_a_single_vector():
    # traces and gradients take (n, d) batches only; forward takes both
    net = approx.network_init([3, 4, 2], np.random.default_rng(0))
    with pytest.raises(ShapeError):
        approx.forward_trace(net, np.zeros(3))
    assert approx.forward_trace(net, np.zeros((1, 3)))[0].shape == (1, 2)


def test_tanh_scaled_output_respects_bounds():
    rng = np.random.default_rng(9)
    low, high = np.array([-2.0, 0.5]), np.array([2.0, 1.5])
    net = approx.network_init([3, 8, 2], rng, output_bounds=(low, high))
    xs = rng.uniform(-50, 50, (10_000, 3))
    out = approx.forward(net, xs)
    assert np.all(np.isfinite(out))
    assert np.all(out >= low) and np.all(out <= high)


def test_forward_rejects_wrong_width():
    net = approx.network_init([3, 2], np.random.default_rng(0))
    with pytest.raises(ShapeError):
        approx.forward(net, np.zeros(4))
    with pytest.raises(ShapeError):
        approx.forward(net, np.zeros((5, 2)))


def test_backward_zero_upstream_gives_zero_gradients():
    rng = np.random.default_rng(13)
    net = random_small_net(rng)
    x = rng.uniform(-1, 1, (3, net.layer_sizes[0]))
    g = backward(net, x, np.zeros((3, net.layer_sizes[-1])))
    assert g.params.shape == net.params.shape
    assert np.all(g.params == 0.0)
    assert np.all(g.wrt_input == 0.0)


def test_backward_single_linear_neuron():
    net = approx.network_init([3, 1], np.random.default_rng(1))
    x = np.array([[0.5, -2.0, 4.0]])
    g = backward(net, x, np.ones((1, 1)))
    gw, gb = approx.layer_views(net.layer_sizes, g.params)
    assert np.allclose(gw[0], x)
    assert np.allclose(gb[0], [1.0])
    assert np.allclose(g.wrt_input, net.weights[0])


def test_backward_rejects_bad_upstream_shape():
    net = approx.network_init([2, 3], np.random.default_rng(0))
    for upstream in (np.zeros((1, 4)), np.zeros(3)):
        with pytest.raises(ShapeError):
            backward(net, np.zeros((1, 2)), upstream)
    with pytest.raises(ShapeError):
        backward(net, np.zeros((5, 2)), np.zeros((4, 3)))


def test_param_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        net = random_small_net(rng)
        x = input_off_relu_kinks(net, rng)
        upstream = rng.uniform(-1, 1, (1, net.layer_sizes[-1]))
        g = backward(net, x, upstream)
        assert rel_close(g.params, fd_param_gradients(net, x, upstream))


def test_input_gradients_match_finite_differences():
    rng = np.random.default_rng(77)
    for _ in range(20):
        net = random_small_net(rng)
        x = input_off_relu_kinks(net, rng)
        upstream = rng.uniform(-1, 1, (1, net.layer_sizes[-1]))
        g = backward(net, x, upstream)
        assert rel_close(g.wrt_input, fd_input_gradient(net, x, upstream))


def test_batch_gradients_sum_over_samples():
    rng = np.random.default_rng(4)
    net = random_small_net(rng)
    xs = rng.uniform(-1, 1, (6, net.layer_sizes[0]))
    ups = rng.uniform(-1, 1, (6, net.layer_sizes[-1]))
    g_batch = backward(net, xs, ups)
    acc = np.zeros_like(net.params)
    for i in range(6):
        acc += backward(net, xs[i:i + 1], ups[i:i + 1]).params
    assert np.allclose(g_batch.params, acc, atol=1e-10)
    # per-sample input gradients come back row by row
    g0 = backward(net, xs[:1], ups[:1])
    assert np.allclose(g_batch.wrt_input[:1], g0.wrt_input, atol=1e-12)


def test_zero_gradient_step_changes_nothing():
    net = random_small_net(np.random.default_rng(8))
    before = net.params.copy()
    zeros = np.zeros_like(net.params)
    approx.optimizer_step(net, zeros, approx.Optimizer(0.5))
    assert np.array_equal(net.params, before)


def test_layer_views_alias_the_parameter_vector():
    net = approx.network_init([3, 4, 2], np.random.default_rng(1))
    assert [w.shape for w in net.weights] == [(4, 3), (2, 4)]
    assert [b.shape for b in net.biases] == [(4,), (2,)]
    for a in net.weights + net.biases:
        assert np.shares_memory(a, net.params)
    # layout A0, B0, A1, B1
    assert np.array_equal(net.params, np.concatenate(
        [net.weights[0].ravel(), net.biases[0], net.weights[1].ravel(), net.biases[1]]))
    with pytest.raises(ShapeError):
        approx.layer_views([3, 4, 2], np.zeros(net.params.size + 1))


def test_optimizer_step_is_visible_through_weights():
    net = approx.network_init([2, 3, 1], np.random.default_rng(3))
    w0, b1 = net.weights[0].copy(), net.biases[1].copy()
    grads = np.ones_like(net.params)
    approx.optimizer_step(net, grads, approx.Optimizer(0.01))
    # a positive gradient moves every parameter down by lr on the first step
    assert np.allclose(net.weights[0], w0 - 0.01)
    assert np.allclose(net.biases[1], b1 - 0.01)


def test_adam_first_step_hand_oracle():
    # bias-corrected first step: m_hat = g, v_hat = g^2,
    # delta = lr * g / (|g| + eps)
    net = approx.network_init([1, 1], np.random.default_rng(0))
    net.weights[0][:] = 0.5
    net.biases[0][:] = -0.25
    g = 3.0
    grads = np.full(2, g)
    opt = approx.Optimizer(0.01)
    approx.optimizer_step(net, grads, opt)
    expected = 0.01 * g / (abs(g) + 1e-8)
    assert np.allclose(net.weights[0], 0.5 - expected, atol=1e-12)
    assert np.allclose(net.biases[0], -0.25 - expected, atol=1e-12)
    assert opt.step_count == 1


def test_adam_matches_reference_sequence():
    rng = np.random.default_rng(55)
    net = random_small_net(rng)
    # the published Adam constants, which ADAM_BETA1, ADAM_BETA2 and ADAM_EPS hold
    lr, b1, b2, eps = 2e-3, 0.9, 0.999, 1e-8
    opt = approx.Optimizer(lr)

    ref = net.params.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)

    for t in range(1, 6):
        g = rng.normal(size=ref.shape)
        approx.optimizer_step(net, g.copy(), opt)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        ref -= lr * mh / (np.sqrt(vh) + eps)

    assert np.allclose(net.params, ref, atol=1e-12)


def test_nonfinite_gradients_rejected_and_params_untouched():
    net = approx.network_init([2, 3, 1], np.random.default_rng(6))
    before = net.params.copy()
    grads = np.zeros_like(net.params)
    approx.layer_views(net.layer_sizes, grads)[0][1][0, 0] = np.nan
    opt = approx.Optimizer(0.1)
    with pytest.raises(TrainingError) as err:
        approx.optimizer_step(net, grads, opt)
    assert "layer 1" in str(err.value)
    assert np.array_equal(net.params, before)
    assert opt.step_count == 0


def test_mismatched_gradient_shapes_rejected():
    net = approx.network_init([2, 3, 1], np.random.default_rng(6))
    grads = np.zeros(net.params.size + 1)
    with pytest.raises(ShapeError):
        approx.optimizer_step(net, grads, approx.Optimizer(0.1))
    # moments sized for another network
    other = approx.network_init([2, 4, 1], np.random.default_rng(6))
    opt = approx.Optimizer(0.1)
    approx.optimizer_step(other, np.zeros_like(other.params), opt)
    with pytest.raises(ShapeError):
        approx.optimizer_step(net, np.zeros_like(net.params), opt)


# bitwise agreement with the allocating reference pass ----------------------

# each case is named by its hidden activation, its output and its width
REFERENCE_CASES = [pytest.param(bounded, out_dim, id=f"relu-{out}-{out_dim}")
                   for bounded, out in ((False, "identity"), (True, "tanh_scaled"))
                   for out_dim in (1, 3)]


def _net(rng, bounded, sizes):
    low = rng.uniform(-2.0, -0.5, sizes[-1])
    bounds = (low, low + rng.uniform(0.5, 3.0, sizes[-1])) if bounded else None
    return approx.network_init(sizes, rng, output_bounds=bounds)


def _trace_copy(trace):
    acts, t = trace
    return [a.copy() for a in acts], None if t is None else t.copy()


def _assert_traces_equal(a, b):
    assert len(a[0]) == len(b[0])
    assert all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))
    assert (a[1] is None) == (b[1] is None)
    assert a[1] is None or np.array_equal(a[1], b[1])


@pytest.mark.parametrize("bounded,out_dim", REFERENCE_CASES)
@pytest.mark.parametrize("one_row", [False, True])
def test_core_matches_reference_bitwise(bounded, out_dim, one_row):
    rng = np.random.default_rng(21)
    net = _net(rng, bounded, [6, 16, 12, out_dim])
    n = 1 if one_row else 33
    x = rng.normal(size=(n, 6))
    up = rng.normal(size=(n, out_dim))

    assert np.array_equal(approx.forward(net, x), ref_forward(net, x))
    out, trace = approx.forward_trace(net, x)
    ref_out, ref_trace = ref_forward_trace(net, x)
    assert np.array_equal(out, ref_out)
    _assert_traces_equal(trace, ref_trace)

    ref_grad, ref_wrt = ref_backward_trace(net, ref_trace, up)
    g = approx.backward_trace(net, trace, up)
    assert np.array_equal(g, ref_grad)
    assert np.array_equal(approx.input_gradient(net, trace, up), ref_wrt)


@pytest.mark.parametrize("bounded,out_dim", REFERENCE_CASES)
def test_column_slice_input_matches_contiguous_copy(bounded, out_dim):
    # update feeds column slices of a sampled row matrix straight to the nets
    rng = np.random.default_rng(22)
    net = _net(rng, bounded, [5, 16, out_dim])
    rows = rng.normal(size=(40, 9))
    view = rows[:, :5]
    assert not view.flags.c_contiguous
    copy = np.ascontiguousarray(view)
    assert np.array_equal(approx.forward(net, view), approx.forward(net, copy))
    up = rng.normal(size=(40, out_dim))
    gv, gc = backward(net, view, up), backward(net, copy, up)
    assert np.array_equal(gv.params, gc.params)
    assert np.array_equal(gv.wrt_input, gc.wrt_input)


@pytest.mark.parametrize("bounded,out_dim", REFERENCE_CASES)
@pytest.mark.parametrize("sizes", [[4, 7], [4, 7, 5]])
@pytest.mark.parametrize("one_row", [False, True])
def test_backward_leaves_upstream_and_trace_unmodified(bounded, out_dim, sizes, one_row):
    rng = np.random.default_rng(23)
    net = _net(rng, bounded, [*sizes, out_dim])
    n = 1 if one_row else 9
    x = rng.normal(size=(n, 4))
    up = rng.normal(size=(n, out_dim))
    _, trace = approx.forward_trace(net, x)
    up_before, trace_before = up.copy(), _trace_copy(trace)
    approx.backward_trace(net, trace, up)
    approx.input_gradient(net, trace, up)
    assert np.array_equal(up, up_before)
    _assert_traces_equal(trace, trace_before)


def test_input_gradient_rejects_bad_upstream():
    net = approx.network_init([3, 4, 2], np.random.default_rng(0))
    _, trace = approx.forward_trace(net, np.zeros((5, 3)))
    with pytest.raises(ShapeError):
        approx.input_gradient(net, trace, np.zeros((5, 3)))
    with pytest.raises(ShapeError):
        approx.input_gradient(net, trace, np.zeros((4, 2)))
