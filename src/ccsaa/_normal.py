"""Scalar standard-normal helpers over ``scipy.special``."""

from scipy.special import ndtr, ndtri


def norm_cdf(z: float) -> float:
    """Standard normal CDF."""
    return float(ndtr(z))


def inv_norm_cdf(p: float) -> float:
    """Inverse standard normal CDF on the open interval (0, 1).

    Raises ValueError outside (0, 1) or for non-finite input.
    """
    if not 0.0 < p < 1.0:       # also rejects NaN
        raise ValueError(f"quantile probability must be in (0, 1), got {p!r}")
    return float(ndtri(p))
