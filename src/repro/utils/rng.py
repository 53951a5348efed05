"""Deterministic random-number streams.

Every stochastic element of the reproduction (synthetic path populations,
data-dependent delay jitter, random program generation) draws from a named
:class:`RngStream`.  Streams are derived from a root seed and a string name,
so two independent subsystems never share or perturb each other's sequence,
and every experiment is exactly reproducible from its configuration.
"""

import hashlib
from bisect import bisect_right

import numpy as np

#: Root seed used across the project unless an experiment overrides it.
DEFAULT_SEED = 0x0DA7E2015


def derive_seed(root_seed, name):
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 so that the mapping is stable across Python versions and
    platforms (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{root_seed:#x}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _kahan_sum(values):
    """Compensated sum in numpy's order (``Generator.choice`` uses it to
    check that probabilities sum to one)."""
    total = values[0]
    carry = 0.0
    for value in values[1:]:
        y = value - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


class WeightedChoice:
    """A fixed weighted choice over ``items``, validated once.

    :meth:`RngStream.draw` on it consumes the stream exactly as
    ``Generator.choice(len(items), p=p)`` does: one ``random()`` double
    located in the normalised cumulative table with ``side="right"``.
    ``p`` is checked as numpy checks it, raising the same
    ``ValueError`` for a wrong shape or length, a NaN or negative entry,
    or a sum that is not 1, but here at construction instead of per
    draw.  Build tables for fixed mixes once, at module level.
    """

    __slots__ = ("items", "cdf")

    def __init__(self, items, p):
        self.items = tuple(items)
        if not self.items:
            raise ValueError(
                "a must be a positive integer unless no samples are taken"
            )
        atol = np.sqrt(np.finfo(np.float64).eps)
        if isinstance(p, np.ndarray) and np.issubdtype(p.dtype, np.floating):
            atol = max(atol, np.sqrt(np.finfo(p.dtype).eps))
        p = np.ascontiguousarray(p, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("p must be 1-dimensional")
        if p.size != len(self.items):
            raise ValueError("a and p must have same size")
        p_sum = _kahan_sum(p.tolist())
        if np.isnan(p_sum):
            raise ValueError("Probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("Probabilities are not non-negative")
        if abs(p_sum - 1.0) > atol:
            raise ValueError(
                "Probabilities do not sum to 1. See Notes section of "
                "docstring for more information."
            )
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf.tolist()


class RngStream:
    """A named, seeded random stream backed by ``numpy.random.Generator``.

    Parameters
    ----------
    name:
        Identifier of the stream; two streams with different names derived
        from the same root seed are statistically independent.
    root_seed:
        Root seed of the experiment.
    """

    def __init__(self, name, root_seed=DEFAULT_SEED):
        self.name = name
        self.root_seed = root_seed
        self.seed = derive_seed(root_seed, name)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, suffix):
        """Derive an independent sub-stream, e.g. per benchmark or stage."""
        return RngStream(f"{self.name}/{suffix}", self.root_seed)

    # -- thin wrappers over numpy.random.Generator -------------------------

    def uniform(self, low=0.0, high=1.0):
        return float(self._gen.uniform(low, high))

    def normal(self, loc=0.0, scale=1.0):
        return float(self._gen.normal(loc, scale))

    def triangular(self, left, mode, right):
        return float(self._gen.triangular(left, mode, right))

    def beta(self, a, b):
        return float(self._gen.beta(a, b))

    def integers(self, low, high):
        """Uniform integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def choice(self, seq, p=None):
        """One element of ``seq``, drawn as ``Generator.choice`` draws it
        (uniform ``integers(0, len(seq))``, or :class:`WeightedChoice`
        when ``p`` is given)."""
        if p is not None:
            return self.draw(WeightedChoice(seq, p))
        return seq[int(self._gen.integers(0, len(seq)))]

    def draw(self, weighted):
        """One item of a prebuilt :class:`WeightedChoice`."""
        return weighted.items[bisect_right(weighted.cdf, self._gen.random())]

    def shuffle(self, items):
        """Shuffle a list in place."""
        self._gen.shuffle(items)

    def sample_array(self, distribution, size, **kwargs):
        """Draw ``size`` samples from a named numpy distribution."""
        fn = getattr(self._gen, distribution)
        return fn(size=size, **kwargs)


def hash_to_unit_float(*parts):
    """Map arbitrary hashable parts to a deterministic float in [0, 1).

    Used for *value-dependent* pseudo-randomness: the same operands always
    excite the same paths, which is what real hardware does.  This is pure
    (no stream state), unlike :class:`RngStream`.
    """
    text = "|".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") / float(1 << 64)
