import numpy as np
import pytest

from insgen import autodiff
from insgen.perf import limit_blas_threads

limit_blas_threads(1)


@pytest.fixture(autouse=True)
def finite_checks():
    autodiff.set_finite_checks(True)
    yield
    autodiff.set_finite_checks(False)


def central_difference_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Independent gradient oracle: central finite differences, coordinate by coordinate."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    # floor the denominator at the central-difference noise scale so
    # coordinates whose true gradient is ~0 compare absolutely
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-5)
    return float(np.max(np.abs(analytic - numeric) / denom))


def numpy_item_loss(logp: np.ndarray, targets) -> float:
    """Independent oracle for one item's loss from its (slots, vocab) log-probs.

    Mean over slot targets of -sum_i w_i log p(token_i, location), read off
    the array by plain indexing.
    """
    per_slot = [
        -sum(w * logp[location, c] for c, w in zip(tokens, weights))
        for location, tokens, weights in targets
    ]
    return float(np.mean(per_slot))
