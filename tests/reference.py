"""Independent per-row reference code that the batch kernels are tested against.

Plain numpy on one state of shape (d,) at a time, written from the formulas
and sharing no code with the package:

* the field f(h, t) = w2 @ tanh(w1 @ [h; t] + b1) + b2 and its two
  vector-Jacobian products;
* a per-row classic RK4 loop that keeps every state and stage;
* the per-row reverse recursion through that loop.

It also holds :class:`LinearField`, a closed-form field in the package's
batch field protocol.
"""

import numpy as np


def field(params, h, t):
    """f(h, t) = w2 @ tanh(w1 @ [h; t] + b1) + b2."""
    x = np.concatenate([h, [t]])
    return params.w2 @ np.tanh(params.w1 @ x + params.b1) + params.b2


def vjp_state(params, h, t, a):
    """a.T @ df/dh = w1_h.T @ ((w2.T @ a) * (1 - tanh(z)^2)), w1_h being w1 without its time column."""
    x = np.concatenate([h, [t]])
    u = np.tanh(params.w1 @ x + params.b1)
    s = (params.w2.T @ a) * (1.0 - u * u)
    return params.w1[:, :-1].T @ s


def vjp_params(params, h, t, a):
    """a.T @ df/dparams flattened as w1, b1, w2, b2 (row-major)."""
    x = np.concatenate([h, [t]])
    u = np.tanh(params.w1 @ x + params.b1)
    s = (params.w2.T @ a) * (1.0 - u * u)
    return np.concatenate([np.outer(s, x).ravel(), s, np.outer(a, u).ravel(), a])


def rk4_solve(f, h0, t0, t1, n_steps):
    """Per-row RK4 of dh/dt = f(h, t) on a uniform grid; returns (hT, times, states, stages)."""
    times = t0 + (t1 - t0) * np.arange(n_steps + 1) / n_steps
    times[-1] = t1
    h = np.asarray(h0, dtype=np.float64)
    states, stages = [h], []
    for i in range(n_steps):
        t = times[i]
        dt = times[i + 1] - t
        k1 = f(h, t)
        k2 = f(h + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = f(h + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = f(h + dt * k3, t + dt)
        h = h + dt * (k1 / 6 + k2 / 3 + k3 / 3 + k4 / 6)
        states.append(h)
        stages.append([k1, k2, k3, k4])
    return h, times, np.array(states), np.array(stages)


def rk4_backprop(params, times, states, stages, d_hT):
    """Reverse recursion through :func:`rk4_solve` of the MLP field; returns (d_h0, d_params)."""
    g = np.asarray(d_hT, dtype=np.float64).copy()
    d_params = np.zeros(params.n_params)
    for i in range(len(times) - 2, -1, -1):
        t = times[i]
        dt = times[i + 1] - t
        h = states[i]
        k1, k2, k3, _ = stages[i]
        inputs = [(h, t), (h + 0.5 * dt * k1, t + 0.5 * dt), (h + 0.5 * dt * k2, t + 0.5 * dt),
                  (h + dt * k3, t + dt)]
        weights = [dt / 6, dt / 3, dt / 3, dt / 6]
        feed = [0.5 * dt, 0.5 * dt, dt]  # stage j+1 reads h + feed[j] * k_j
        v = [None] * 4
        for j in (3, 2, 1, 0):
            c = weights[j] * g
            if j < 3:
                c = c + feed[j] * v[j + 1]
            v[j] = vjp_state(params, *inputs[j], c)
            d_params += vjp_params(params, *inputs[j], c)
        g = g + v[0] + v[1] + v[2] + v[3]
    return g, d_params


class LinearField:
    """Closed-form field dh/dt = lam * h with the one parameter lam."""

    n_params = 1

    def __init__(self, lam):
        self.lam = lam

    def eval(self, states, t):
        return self.lam * states

    def vjp(self, states, t, cotangents):
        return self.lam * cotangents, np.array([float(np.sum(cotangents * states))])
