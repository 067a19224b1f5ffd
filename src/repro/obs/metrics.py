"""The histogram primitive and the registry behind ``system.metrics()``.

:class:`Histogram` is a bounded distribution sketch: fixed (geometric by
default) buckets plus an exact sample prefix, so latency distributions
(Figs. 12-17 style analyses, Hadidi et al.'s characterization metrics)
stay available without unbounded Python lists.

Like the ``*Stats`` dataclasses (:class:`repro.obs.protocol.StatsMixin`)
it exposes ``snapshot()``, so both compose inside one
:class:`MetricsRegistry`, which flattens every registered source into a
single namespaced dict —
``{"mac.raw_requests": 71, "device.latency.p99": 431.0, ...}``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "flatten",
]

#: Geometric default bucket edges: 1, 2, 4, ... 2**30 cycles.
DEFAULT_BOUNDS: Tuple[int, ...] = tuple(1 << i for i in range(31))

#: Exact samples kept per histogram before falling back to buckets.
DEFAULT_SAMPLE_LIMIT = 8192


class Histogram:
    """Bounded distribution sketch: fixed buckets + exact sample prefix.

    Values land in geometric buckets (``bounds`` are inclusive upper
    edges; one overflow bucket catches the rest).  The first
    ``sample_limit`` values are additionally kept verbatim, in arrival
    order, so short runs (tests, single figures) get *exact* quantiles
    and a faithful ``samples`` list, while million-request sweeps stay
    O(buckets) in memory and fall back to interpolated bucket quantiles.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max",
                 "sample_limit", "_samples")

    def __init__(
        self,
        bounds: Optional[Iterable[int]] = None,
        sample_limit: int = DEFAULT_SAMPLE_LIMIT,
    ) -> None:
        self.bounds: Tuple[int, ...] = (
            tuple(bounds) if bounds is not None else DEFAULT_BOUNDS
        )
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        if sample_limit < 0:
            raise ValueError("sample_limit must be non-negative")
        self.sample_limit = sample_limit
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []

    # -- recording ---------------------------------------------------------

    def add(self, value: float, n: int = 1) -> None:
        # Hot path (one call per request per stage when attribution is
        # on): plain comparisons beat min()/max() calls here.
        if n < 1:
            raise ValueError("need a positive occurrence count")
        self.counts[bisect_left(self.bounds, value)] += n
        self.count += n
        self.total += value * n
        mn = self.min
        if mn is None or value < mn:
            self.min = value
        mx = self.max
        if mx is None or value > mx:
            self.max = value
        samples = self._samples
        if len(samples) < self.sample_limit:
            if n == 1:
                samples.append(value)
            else:
                samples.extend([value] * min(n, self.sample_limit - len(samples)))

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self.count

    @property
    def exact(self) -> bool:
        """Whether every recorded value is still held verbatim."""
        return len(self._samples) == self.count

    @property
    def samples(self) -> List[float]:
        """The exact sample prefix — NOT the full value set after capacity.

        The histogram keeps the first ``sample_limit`` values verbatim
        (an arrival-order prefix, not a random reservoir) and drops the
        rest into buckets: check :attr:`dropped` (or :attr:`exact`)
        before treating this list as the full distribution.
        """
        return list(self._samples)

    @property
    def dropped(self) -> int:
        """How many recorded values are *not* in :attr:`samples`.

        Zero while under ``sample_limit`` (``exact`` is True); beyond
        it, every further value is counted here and only bucket-level
        information (counts, total, min/max, interpolated quantiles)
        remains for the dropped tail.
        """
        return self.count - len(self._samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """q-quantile (0..1); exact while under the sample limit,
        linearly interpolated over buckets afterwards.

        The switch is all-or-nothing: once any value has been dropped
        from the sample prefix (``dropped > 0``) the estimate comes
        entirely from the geometric buckets — the retained prefix is
        arrival-ordered, not a uniform reservoir, so mixing it into the
        estimate would bias quantiles towards early-run behaviour.
        """
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        if self.exact:
            data = sorted(self._samples)
            pos = q * (len(data) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(data) - 1)
            frac = pos - lo
            return data[lo] * (1 - frac) + data[hi] * frac
        return self._bucket_quantile(q)

    def _bucket_quantile(self, q: float) -> float:
        rank = q * (self.count - 1)
        seen = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if seen + n > rank:
                lo = self.bounds[i - 1] if i > 0 else (self.min or 0)
                hi = self.bounds[i] if i < len(self.bounds) else (self.max or lo)
                lo = max(lo, self.min if self.min is not None else lo)
                hi = min(hi, self.max if self.max is not None else hi)
                if n == 1:
                    return float(hi)
                frac = (rank - seen) / (n - 1)
                return lo + (hi - lo) * frac
            seen += n
        return float(self.max or 0)

    # -- protocol ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "dropped": self.dropped,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": {
                str(self.bounds[i]) if i < len(self.bounds) else "inf": n
                for i, n in enumerate(self.counts)
                if n
            },
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.bounds == other.bounds
            and self.counts == other.counts
            and self.count == other.count
            and self.total == other.total
            and self.min == other.min
            and self.max == other.max
            and self._samples == other._samples
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, mean={self.mean:.1f})"

    # Pickling support for slotted class (fork-less pool workers, tests).
    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)


#: Anything the registry can read: an object with ``snapshot()``, a
#: plain dict, or a zero-arg callable returning a dict.
MetricSource = Union[Any, Callable[[], Mapping[str, Any]]]


def flatten(data: Mapping[str, Any], prefix: str = "") -> Dict[str, Any]:
    """Flatten nested dicts into dotted keys; leaves stay as-is."""
    out: Dict[str, Any] = {}
    for key, value in data.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            out.update(flatten(value, f"{name}."))
        else:
            out[name] = value
    return out


class MetricsRegistry:
    """Namespaced view over every stats source of a simulation.

    Sources register under a namespace; :meth:`collect` snapshots each
    one and flattens the result into a single dict keyed
    ``namespace.field[.subfield]``.  Registering is cheap (no copies);
    collection walks live objects, so one registry built at setup time
    stays valid for the whole run.
    """

    def __init__(self) -> None:
        self._sources: Dict[str, MetricSource] = {}

    def register(self, namespace: str, source: MetricSource) -> None:
        if not namespace or "." in namespace:
            raise ValueError("namespace must be a non-empty dot-free string")
        if namespace in self._sources:
            raise ValueError(f"namespace {namespace!r} already registered")
        self._sources[namespace] = source

    @staticmethod
    def _read(source: MetricSource) -> Mapping[str, Any]:
        if callable(source) and not hasattr(source, "snapshot"):
            data = source()
        elif hasattr(source, "snapshot"):
            data = source.snapshot()
        elif isinstance(source, Mapping):
            data = source
        else:
            raise TypeError(
                f"metric source {source!r} has no snapshot()/dict interface"
            )
        if not isinstance(data, Mapping):
            raise TypeError(f"metric source produced {type(data).__name__}, not dict")
        return data

    def collect(self) -> Dict[str, Any]:
        """One flat namespaced dict over every registered source."""
        out: Dict[str, Any] = {}
        for namespace in sorted(self._sources):
            out.update(flatten(self._read(self._sources[namespace]), f"{namespace}."))
        return out
