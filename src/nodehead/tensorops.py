"""Dense float64 array operations shared by the model's loss.

Operations are pure functions of their inputs and never mutate arguments,
so concurrent calls over shared arrays are safe.
"""

import numpy as np

EPS_LOG = 1e-12  # floor inside the cross-entropy so log(0) never occurs


def softmax(logits):
    """Softmax along the last axis, computed with max-subtraction.

    Components are positive and sum to 1 within 1e-12 for any finite input;
    the shift makes the exponentials overflow-safe.
    """
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)
