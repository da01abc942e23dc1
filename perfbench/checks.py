"""Independent references for output checks; never timed, never traced.

Counts come from ``np.bincount`` over the generated rows, likelihoods from
``oracle.direct_loglik`` or from the probability blocks, and posterior
draws from a re-implementation of the documented stream-splitting rule.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

ROUND_TRIP_TOL = 1e-9  # acceptance tolerance for exact coordinate round trips
LOGLIK_REL_TOL = 1e-12


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close_rel(a: float, b: float, what: str, tol: float = LOGLIK_REL_TOL) -> None:
    require(abs(a - b) <= tol * max(abs(a), abs(b)), f"{what}: {a!r} vs {b!r}")


def max_theta_diff(a: dict, b: dict) -> float:
    if set(a) != set(b):
        raise CheckFailed("coordinate index sets differ")
    return max((abs(a[k] - b[k]) for k in a), default=0.0)


def marginal_counts(rows: np.ndarray, spec, vars_) -> np.ndarray:
    """Counts over ``vars_`` (axes in that order) by bincount of raveled cells."""
    cols = [spec.index(v) for v in vars_]
    shape = tuple(spec.size(v) for v in vars_)
    if not cols:
        return np.array(len(rows))
    flat = np.ravel_multi_index(rows[:, cols].T, shape)
    return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)


def block_counts(rows: np.ndarray, spec, blocks) -> list[np.ndarray]:
    """Per Dirichlet block, the counts of its slice over the block's axes."""
    out = []
    for b in blocks.blocks:
        arr = marginal_counts(rows, spec, b.given_vars + b.vars)
        out.append(arr[b.given_cell] if b.given_vars else arr)
    return out


def check_posterior(post, counts: list[np.ndarray]) -> None:
    """Every hyperparameter is its cell count plus exactly 1/2."""
    for b, n in zip(post.blocks, counts):
        want = tuple(float(n[cell]) + 0.5 for cell in b.cells)
        require(tuple(b.alpha) == want, f"posterior block {b.label}: alpha != counts + 1/2")


def pcond_loglik(cp, keys, counts: list[np.ndarray]) -> float:
    """Sum over blocks of slice counts times log block probabilities."""
    return float(sum((n * np.log(cp.blocks[k])).sum() for k, n in zip(keys, counts)))


def reference_draws(alphas: list[np.ndarray], seed: int, n_draws: int) -> list[list[np.ndarray]]:
    """Flat block vectors of each draw: SeedSequence(seed).spawn(n)[d] per draw.

    Within a draw the blocks consume the generator in canonical order; each
    block is gamma draws with the block's hyperparameters, normalized.
    """
    draws = []
    for child in np.random.SeedSequence(seed).spawn(n_draws):
        rng = np.random.default_rng(child)
        draws.append([(g := rng.gamma(shape=a)) / g.sum() for a in alphas])
    return draws


def digest(vectors) -> str:
    h = hashlib.sha256()
    for v in vectors:
        h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
    return h.hexdigest()


def condprobs_digest(cps, keys) -> str:
    """Digest of each block, in canonical block order, flattened in C order.

    C order over the block's axes is where the program places entry i of a
    sampled block vector (see README, "Known defect").
    """
    return digest(cp.blocks[k].reshape(-1) for cp in cps for k in keys)
