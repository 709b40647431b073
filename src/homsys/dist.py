"""Grid-backed distribution functions, the two limit laws, and sup-distance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["GridCDF", "LIMIT_LAWS", "limit_cdf", "limit_density", "ks", "from_samples", "rescale"]

_MONO_TOL = 1e-12


@dataclass(frozen=True)
class GridCDF:
    """CDF of log X on a uniform grid.

    ``cdf`` holds m+1 nondecreasing values from ``cdf[0]`` = 0 to ``cdf[m]`` = 1.
    """

    lo: float
    hi: float
    cdf: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cdf", np.asarray(self.cdf, dtype=float))
        if not -np.inf < self.lo < self.hi < np.inf:
            raise DomainError("need finite lo < hi")
        c = self.cdf
        if c.ndim != 1 or len(c) < 2:
            raise DomainError("cdf needs at least two nodes")
        if not np.all(np.diff(c) >= -_MONO_TOL):  # a NaN fails this too
            raise DomainError("cdf must be nondecreasing")
        if abs(c[0]) > _MONO_TOL:
            raise DomainError("cdf must start at 0")
        if abs(c[-1] - 1.0) > _MONO_TOL:
            raise DomainError("cdf must reach 1")

    @property
    def m(self) -> int:
        return len(self.cdf) - 1

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / self.m

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.m + 1)

    def __call__(self, v):
        """Piecewise-linear CDF value(s); 0 below lo, 1 above hi."""
        v = np.asarray(v, dtype=float)
        out = np.interp(v, self.grid(), self.cdf, left=0.0, right=1.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DomainError("quantile level must lie in [0, 1]")
        c = self.cdf
        x = self.grid()
        i = int(np.searchsorted(c, q, side="left"))
        if i == 0:
            return float(x[0])
        if i > self.m:
            return float(x[-1])
        c0, c1 = c[i - 1], c[i]
        if c1 == c0:
            return float(x[i])
        w = (q - c0) / (c1 - c0)
        return float(x[i - 1] + w * self.h)


def rescale(d: GridCDF | np.ndarray, s: float) -> GridCDF | np.ndarray:
    """Distribution of (log X)/s: a GridCDF's support mapped x -> x/s, values unchanged, or a sample
    sorted into a new array and divided by s."""
    if not s > 0:
        raise DomainError("scale must be positive")
    if isinstance(d, GridCDF):
        return GridCDF(d.lo / s, d.hi / s, d.cdf.copy())
    r = np.sort(np.asarray(d, dtype=float))
    r /= s
    return r


def from_samples(samples, m: int, pad: float = 0.5) -> GridCDF:
    """Empirical CDF of a sample on a padded uniform grid.

    All-equal samples produce a step at the common value.  A sample is sorted
    only if it is not nondecreasing already.
    """
    s = np.asarray(samples, dtype=float)
    if not _is_sorted(s):
        s = np.sort(s)
    if s.size == 0:
        raise DomainError("empty sample")
    if not pad > 0:
        raise DomainError("pad must be positive")
    lo, hi = float(s[0]) - pad, float(s[-1]) + pad
    x = np.linspace(lo, hi, m + 1)
    cdf = np.searchsorted(s, x, side="right") / s.size
    cdf[-1] = 1.0
    return GridCDF(lo, hi, cdf)


# -- limit laws ---------------------------------------------------------------

LIMIT_LAWS = ("cubic", "linear_half")


def limit_cdf(law: str, y):
    """CDF of the limit law: 'cubic' has density (3/4)(1-y^2) on (-1, 1) and
    CDF (2+3y-y^3)/4; 'linear_half' has density 2y on (0, 1) and CDF y^2."""
    y = np.asarray(y, dtype=float)
    if law == "cubic":
        yc = np.clip(y, -1.0, 1.0)
        out = (2.0 + 3.0 * yc - yc * yc * yc) / 4.0
    elif law == "linear_half":
        yc = np.clip(y, 0.0, 1.0)
        out = yc**2
    else:
        raise DomainError(f"unknown limit law {law!r}")
    return float(out) if out.ndim == 0 else out


def limit_density(law: str, y):
    y = np.asarray(y, dtype=float)
    if law == "cubic":
        out = 0.75 * (1.0 - y**2) * (np.abs(y) < 1.0)
    elif law == "linear_half":
        out = 2.0 * y * ((y > 0.0) & (y < 1.0))
    else:
        raise DomainError(f"unknown limit law {law!r}")
    return float(out) if out.ndim == 0 else out


def ks(a, b) -> float:
    """Sup-norm distance between two distribution representations.

    Accepts GridCDF, a sorted (or unsorted) sample array, or a limit-law tag
    on either side; the comparison runs over the grid or sample points.  A
    sample compared with a GridCDF or a law is sorted only if it is not
    nondecreasing already.
    """
    if isinstance(a, str) and not isinstance(b, str):
        return ks(b, a)
    if isinstance(a, GridCDF):
        x = a.grid()
        fa = a.cdf
        if isinstance(b, str):
            return float(np.max(np.abs(fa - limit_cdf(b, x))))
        if isinstance(b, GridCDF):
            xs = np.union1d(x, b.grid())
            return float(np.max(np.abs(a(xs) - b(xs))))
        return _ks_sample_vs(np.asarray(b, dtype=float), a)
    a = np.asarray(a, dtype=float)
    if isinstance(b, str):
        return _ks_sample_vs(a, lambda x: limit_cdf(b, x))
    if isinstance(b, GridCDF):
        return _ks_sample_vs(a, b)
    return _ks_two_sample(a, np.asarray(b, dtype=float))


def _ks_sample_vs(sample: np.ndarray, cdf) -> float:
    """The largest gap between the sample's empirical CDF and `cdf`, evaluated in blocks of _BLOCK
    points so that no temporary grows with the sample; each block's maxima are exact, so the value
    is the bits of the whole-array formula."""
    s = sample if _is_sorted(sample) else np.sort(sample)
    n = s.size
    if n == 0:
        raise DomainError("empty sample")
    peaks = []  # each block's largest upper and lower gap
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        ref = cdf(s[lo:hi])
        # the ranks i/n for i = lo..hi: the lower ones are [:-1], the upper ones [1:]
        ranks = np.arange(lo, hi + 1, dtype=float)
        ranks /= n
        lower = np.subtract(ref, ranks[:-1])
        upper = np.subtract(ranks[1:], ref, out=ranks[1:])
        peaks.append((upper.max(), lower.max()))
    upper, lower = np.max(peaks, axis=0)  # a NaN gap stays NaN, as in one max over the whole sample
    return float(max(upper, lower, 0.0))


_BLOCK = 32768  # elements a block loop handles at once: a 32 kB boolean or a 256 kB float temporary


def _is_sorted(x: np.ndarray) -> bool:
    """True when x is nondecreasing (a NaN makes it False), compared block by block so that no
    temporary grows with x."""
    for lo in range(0, x.size - 1, _BLOCK):
        hi = min(lo + _BLOCK, x.size - 1)
        if not np.all(x[lo + 1 : hi + 1] >= x[lo:hi]):
            return False
    return True


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 0 or b.size == 0:
        raise DomainError("empty sample")
    sa, sb = np.sort(a), np.sort(b)
    allv = np.concatenate([sa, sb])
    ca = np.searchsorted(sa, allv, side="right") / sa.size
    cb = np.searchsorted(sb, allv, side="right") / sb.size
    return float(np.max(np.abs(ca - cb)))
