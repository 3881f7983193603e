"""Finite-difference validation of reverse-mode gradients."""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

import numpy as np

from .tensor import Graph, NumericError, Tensor

# a loss evaluation is taken to round by up to this many ulps of |L|, and an
# entry is scored only where that roundoff stays under this relative error
LOSS_ULPS = 10
RESOLUTION = 1e-4


class GradCheck(NamedTuple):
    """The worst relative error over the scored entries, and the number of
    probed entries skipped as ``below_noise``."""

    max_rel_error: float
    below_noise: int


def noise_bound(loss: float, epsilon: float) -> float:
    """The gradient magnitude below which central differences of ``loss``
    cannot resolve an entry to ``RESOLUTION``.

    Each loss evaluation rounds by up to ``LOSS_ULPS * eps * |loss|``, so a
    difference quotient over ``2 * epsilon`` carries up to
    ``LOSS_ULPS * eps * |loss| / epsilon`` of roundoff; on an entry smaller
    than that over ``RESOLUTION``, roundoff alone could make the relative
    error exceed ``RESOLUTION``.
    """
    return LOSS_ULPS * float(np.finfo(np.float64).eps) * abs(loss) / epsilon / RESOLUTION


def grad_check(build: Callable[[], Tensor],
               params: Mapping[str, Tensor],
               epsilon: float = 1e-5, *,
               max_entries_per_param: int,
               rng: np.random.Generator) -> GradCheck:
    """Max relative error between the tape's gradients and central differences.

    ``build()`` returns the scalar loss of the current ``params``.  One pass
    runs under a ``Graph`` and its backward leaves the analytic gradients in
    ``p.grad`` (zeroed first, and still there on return); each probe then
    calls ``build()`` outside any graph.  Parameters must be float64; probes
    perturb one entry at a time, so runtime is linear in the number of
    entries checked: a parameter with more than ``max_entries_per_param``
    entries has that many drawn from ``rng``, without replacement.  An entry
    whose analytic and numeric values both lie under ``noise_bound`` of the
    loss is not scored but counted in ``below_noise``.
    """
    if not 1e-7 <= epsilon <= 1e-4:
        raise ValueError(f"epsilon {epsilon} outside [1e-7, 1e-4]")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise NumericError(f"grad_check requires float64 parameters ({name!r} is "
                               f"{p.data.dtype})")
        p.zero_grad()

    with Graph() as graph:
        loss = build()
        if not np.isfinite(loss.data).all():
            raise NumericError("loss is non-finite at the checked point")
        graph.backward(loss)
    bound = noise_bound(float(loss.data), epsilon)

    worst = 0.0
    below_noise = 0
    for name in sorted(params):
        p = params[name]
        flat = p.data.reshape(-1)
        a_flat = np.zeros_like(flat) if p.grad is None else p.grad.reshape(-1)
        n = flat.shape[0]
        if n > max_entries_per_param:
            picks = rng.choice(n, size=max_entries_per_param, replace=False)
        else:
            picks = np.arange(n)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + epsilon
            plus = float(build().data)
            flat[i] = orig - epsilon
            minus = float(build().data)
            flat[i] = orig
            if not (np.isfinite(plus) and np.isfinite(minus)):
                raise NumericError(f"non-finite loss while probing {name}[{i}]")
            numeric = (plus - minus) / (2.0 * epsilon)
            scale = max(abs(a_flat[i]), abs(numeric))
            if scale <= bound:
                below_noise += 1
                continue
            rel = abs(a_flat[i] - numeric) / scale
            if rel > worst:
                worst = rel
    return GradCheck(float(worst), below_noise)
