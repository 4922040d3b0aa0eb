"""The closed-form worst case of a linear score, the oracle that PGD
attacks are checked against (criterion 6 and ``tests/test_attack.py``)."""

import numpy as np

from srat.errors import DomainError


def linear_oracle(
    w: np.ndarray, b: float, x: np.ndarray, y, epsilon: float
) -> np.ndarray:
    """Closed-form worst case for a linear score w.x - b and labels +-1.

    Returns x - y*epsilon*sign(w): the point of the l-inf ball minimizing
    the signed margin y*(w.x' - b). Coordinates where w is 0 stay put.
    """
    if epsilon < 0:
        raise DomainError("epsilon must be >= 0")
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y)
    if not np.isin(y_arr, (-1, 1)).all():
        raise DomainError("labels must be +1 or -1")
    if x.ndim == 1:
        return x - float(y_arr) * epsilon * np.sign(w)
    return x - y_arr[:, None].astype(np.float64) * epsilon * np.sign(w)[None, :]
