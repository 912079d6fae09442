"""Draws from a truncated power law, the oracle for tail-slope fits."""

import numpy as np


def sample_power_law(exponent: float, lo: float, hi: float, n: int, rng) -> np.ndarray:
    """Inverse-transform draws from a density proportional to x**(-exponent)
    truncated to [lo, hi], for exponent != 1."""
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    if exponent == 1.0:
        raise ValueError("exponent 1 not supported")
    u = rng.random(n)
    g = 1.0 - exponent
    return (lo**g + u * (hi**g - lo**g)) ** (1.0 / g)
