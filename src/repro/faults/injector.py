"""Seeded, deterministic fault injector.

The injector answers point queries from the recovery layers ("is this
packet corrupted?", "is this link dead at cycle N?") by evaluating its
fault models.  All randomness comes from one private
``random.Random(seed)`` stream, so a run is exactly reproducible from
``(workload seed, fault seed)``; scheduled faults (``LinkFailure``,
``Window``-gated models) consume no randomness at all.

Models can be supplied up front via :class:`FaultConfig` or injected at
runtime with :meth:`FaultInjector.schedule` /
:meth:`~FaultInjector.schedule_at` — the programmatic half of the
injection-schedule API.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .config import FaultConfig
from .models import (
    AckError,
    FlitBitError,
    LinkDegradation,
    LinkFailure,
    ResponseFault,
    TransientVaultError,
    Window,
)
from .stats import FaultStats


class FaultInjector:
    """Evaluates fault models against point queries from the sim."""

    def __init__(
        self, config: Optional[FaultConfig] = None, stats: Optional[FaultStats] = None
    ) -> None:
        self.config = config or FaultConfig()
        self.stats = stats if stats is not None else FaultStats()
        self._rng = random.Random(self.config.seed)
        self._flit: List[FlitBitError] = []
        self._ack: List[AckError] = []
        self._vault: List[TransientVaultError] = []
        self._response: List[ResponseFault] = []
        self._degrade: List[LinkDegradation] = []
        self._failures: List[LinkFailure] = []
        for model in self.config.models:
            self.schedule(model)

    # -- schedule API --------------------------------------------------------

    def schedule(self, model) -> "FaultInjector":
        """Arm one fault model (chainable); accepts any model type."""
        if isinstance(model, FlitBitError):
            self._flit.append(model)
        elif isinstance(model, AckError):
            self._ack.append(model)
        elif isinstance(model, TransientVaultError):
            self._vault.append(model)
        elif isinstance(model, ResponseFault):
            self._response.append(model)
        elif isinstance(model, LinkDegradation):
            self._degrade.append(model)
        elif isinstance(model, LinkFailure):
            self._failures.append(model)
        else:
            raise TypeError(f"unknown fault model {model!r}")
        return self

    def schedule_at(self, cycle: int, model) -> "FaultInjector":
        """Arm ``model`` for exactly one cycle (inject-at-cycle-N)."""
        return self.schedule(_rewindow(model, Window.at(cycle)))

    # -- link data path ------------------------------------------------------

    def flit_corrupted(self, link: int, cycle: int, nflits: int, site: str) -> bool:
        """Whether a packet of ``nflits`` FLITs is corrupted in flight."""
        survive = 1.0
        for m in self._flit:
            if m.window.contains(cycle) and (m.links is None or link in m.links):
                survive *= (1.0 - m.rate) ** nflits
        if survive >= 1.0:
            return False
        hit = self._rng.random() >= survive
        if hit:
            self.stats.record(site, "injected_flit_error")
        return hit

    def ack_corrupted(self, link: int, cycle: int, site: str) -> bool:
        """Whether the one-FLIT ACK of a delivered packet is lost."""
        survive = 1.0
        for m in self._ack:
            if m.window.contains(cycle) and (m.links is None or link in m.links):
                survive *= 1.0 - m.rate
        if survive >= 1.0:
            return False
        hit = self._rng.random() >= survive
        if hit:
            self.stats.record(site, "injected_ack_error")
        return hit

    def link_failed(self, link: int, cycle: int) -> bool:
        """Whether a scheduled hard failure has hit ``link`` by ``cycle``."""
        return any(f.link == link and cycle >= f.at_cycle for f in self._failures)

    def degrade_factor(self, link: int, cycle: int) -> float:
        """Serialization slow-down of ``link`` (1.0 = healthy)."""
        factor = 1.0
        for m in self._degrade:
            if m.link == link and m.window.contains(cycle):
                factor = max(factor, m.factor)
        return factor

    # -- vault / response path -----------------------------------------------

    def vault_error(self, vault: int, cycle: int) -> bool:
        """Whether one bank access suffers a transient error."""
        survive = 1.0
        for m in self._vault:
            if m.window.contains(cycle) and (m.vaults is None or vault in m.vaults):
                survive *= 1.0 - m.rate
        if survive >= 1.0:
            return False
        hit = self._rng.random() >= survive
        if hit:
            self.stats.record(f"vault{vault}", "injected_vault_error")
        return hit

    def response_fate(self, cycle: int) -> Tuple[str, int]:
        """Fate of one completed response: (kind, delay_cycles).

        Models are evaluated in schedule order; the first one that fires
        wins.  Returns ``("ok", 0)`` when none fire.
        """
        for m in self._response:
            if not m.window.contains(cycle) or m.rate <= 0.0:
                continue
            if self._rng.random() < m.rate:
                self.stats.record("response", f"injected_{m.kind}")
                return m.kind, m.delay_cycles
        return "ok", 0


def _rewindow(model, window: Window):
    """Copy a windowed model with a new schedule window."""
    if isinstance(model, LinkFailure):
        return LinkFailure(link=model.link, at_cycle=window.start)
    try:
        cls = type(model)
        kwargs = {
            name: getattr(model, name)
            for name in cls.__dataclass_fields__  # type: ignore[attr-defined]
            if name != "window"
        }
        return cls(window=window, **kwargs)
    except (AttributeError, TypeError) as exc:  # pragma: no cover
        raise TypeError(f"cannot re-window {model!r}") from exc
