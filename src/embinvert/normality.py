"""Omnibus normality test combining normalized skewness and kurtosis.

The two moment statistics are each transformed so that their null
distribution is approximately standard normal; the sum of squares is then
chi-square with 2 degrees of freedom, whose upper tail has the closed form
exp(-k2/2).  Used to screen generator latents for Gaussianity before any
expensive generation work.

Validity floors (n >= 8 for skewness, n >= 20 for kurtosis) follow the
published transforms; below them the functions raise instead of
approximating.

The transforms are written once, row-wise over a 2-D array, in numpy's
array arithmetic: the fourth moment from ``dd * dd`` (``dd = d * d``, which
also gives m2 and the third moment) and the skewness denominator as
``m2 ** 1.5``.  The public single-sample functions flatten their input to
one row; k2_pvalues tests many rows at once and gives each row exactly
k2_test's p-value.  The last bits of a p-value follow numpy's SIMD
dispatch: numpy's pow and transcendental loops may round differently on a
host without AVX-512.
"""
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, SampleTooSmall

_SKEW_MIN_N = 8
_KURT_MIN_N = 20


@dataclass(frozen=True)
class NormalityResult:
    z_skew: float
    z_kurt: float
    k2: float
    p_value: float


def _check_size(n: int, min_n: int, op: str):
    if n < min_n:
        raise SampleTooSmall(f"{op} requires n >= {min_n}, got n = {n}")


def _prepare(rows: np.ndarray, min_n: int, op: str):
    """(n, centred rows d, d * d, second central moment per row)."""
    n = rows.shape[1]
    _check_size(n, min_n, op)
    d = rows - rows.mean(axis=1, keepdims=True)
    dd = d * d
    m2 = np.mean(dd, axis=1)
    if np.any(m2 == 0.0):
        raise DegenerateSample(f"{op} undefined for zero-variance sample")
    return n, d, dd, m2


def _as_row(sample) -> np.ndarray:
    return np.asarray(sample, dtype=np.float64).reshape(1, -1)


def _skewness(n: int, d: np.ndarray, dd: np.ndarray, m2: np.ndarray) -> np.ndarray:
    g1 = np.mean(dd * d, axis=1) / m2 ** 1.5
    nf = float(n)
    y = g1 * np.sqrt((nf + 1.0) * (nf + 3.0) / (6.0 * (nf - 2.0)))
    beta2 = (
        3.0 * (nf * nf + 27.0 * nf - 70.0) * (nf + 1.0) * (nf + 3.0)
        / ((nf - 2.0) * (nf + 5.0) * (nf + 7.0) * (nf + 9.0))
    )
    w2 = -1.0 + np.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / np.sqrt(0.5 * np.log(w2))
    alpha = np.sqrt(2.0 / (w2 - 1.0))
    return delta * np.arcsinh(y / alpha)


def _kurtosis(n: int, dd: np.ndarray, m2: np.ndarray) -> np.ndarray:
    b2 = np.mean(dd * dd, axis=1) / (m2 * m2)
    nf = float(n)
    mean_b2 = 3.0 * (nf - 1.0) / (nf + 1.0)
    var_b2 = (
        24.0 * nf * (nf - 2.0) * (nf - 3.0)
        / ((nf + 1.0) ** 2 * (nf + 3.0) * (nf + 5.0))
    )
    x = (b2 - mean_b2) / np.sqrt(var_b2)
    sqrt_beta1 = (
        6.0 * (nf * nf - 5.0 * nf + 2.0) / ((nf + 7.0) * (nf + 9.0))
        * np.sqrt(6.0 * (nf + 3.0) * (nf + 5.0) / (nf * (nf - 2.0) * (nf - 3.0)))
    )
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + np.sqrt(1.0 + 4.0 / sqrt_beta1 ** 2))
    denom = 1.0 + x * np.sqrt(2.0 / (a - 4.0))
    if np.any(denom == 0.0):
        raise DegenerateSample("kurtosis transform denominator collapsed to zero")
    term = np.sign(denom) * np.cbrt((1.0 - 2.0 / a) / np.abs(denom))
    return ((1.0 - 2.0 / (9.0 * a)) - term) / np.sqrt(2.0 / (9.0 * a))


def _k2_rows(rows: np.ndarray):
    # Checks in the order k2_test has always raised them: the skewness
    # transform's, then the kurtosis transform's size floor.
    n, d, dd, m2 = _prepare(rows, _SKEW_MIN_N, "skewness_transform")
    _check_size(n, _KURT_MIN_N, "kurtosis_transform")
    z_skew = _skewness(n, d, dd, m2)
    z_kurt = _kurtosis(n, dd, m2)
    k2 = z_skew * z_skew + z_kurt * z_kurt
    # Chi-square(2) survival function, exact closed form.
    return z_skew, z_kurt, k2, np.exp(-0.5 * k2)


def skewness_transform(sample) -> float:
    """Normalized sample skewness; approximately N(0,1) under the null."""
    return float(_skewness(*_prepare(_as_row(sample), _SKEW_MIN_N,
                                     "skewness_transform"))[0])


def kurtosis_transform(sample) -> float:
    """Normalized sample kurtosis; approximately N(0,1) under the null."""
    n, _, dd, m2 = _prepare(_as_row(sample), _KURT_MIN_N, "kurtosis_transform")
    return float(_kurtosis(n, dd, m2)[0])


def k2_test(sample) -> NormalityResult:
    """Run the combined test on a flattened sample.

    The latent code is treated as one 1-D sample; callers that want
    per-channel screening can slice before calling.
    """
    z_skew, z_kurt, k2, p = (float(v[0]) for v in _k2_rows(_as_row(sample)))
    return NormalityResult(z_skew=z_skew, z_kurt=z_kurt, k2=k2, p_value=p)


def k2_pvalues(rows) -> np.ndarray:
    """k2_test's p-value for each row of a 2-D array, bit for bit.

    Raises as k2_test does, for the first failing check over all rows.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"k2_pvalues takes a 2-D array, got shape {rows.shape}")
    return _k2_rows(rows)[3]

