"""Finite-difference check of :class:`carpool_rl.nn.Mlp` backprop, shared by
the acceptance suite (criterion 4) and ``test_nn.py``."""

import numpy as np

from carpool_rl.nn import Mlp, half_mse


def gradient_check(net: Mlp, x, y, step: float = 1e-5) -> float:
    """Max relative error of backprop vs. central finite differences of the
    half-MSE loss (:func:`carpool_rl.nn.half_mse`).

    Relative error per parameter is
    ``|analytic - numeric| / max(1e-8, |analytic| + |numeric|)``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))

    def loss_at():
        out, _ = net.forward(x)
        loss, _ = half_mse(out, y)
        return loss

    out, cache = net.forward(x)
    _, gout = half_mse(out, y)
    net.backward(cache, gout)

    worst = 0.0
    for k in range(net.n_layers):
        for arr, g in ((net.weights[k], net.grads[k][0]),
                       (net.biases[k], net.grads[k][1])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                lp = loss_at()
                arr[idx] = orig - step
                lm = loss_at()
                arr[idx] = orig
                numeric = (lp - lm) / (2.0 * step)
                analytic = g[idx]
                denom = max(1e-8, abs(analytic) + abs(numeric))
                worst = max(worst, abs(analytic - numeric) / denom)
    return worst
