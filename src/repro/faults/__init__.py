"""Cross-layer fault injection and recovery (ROADMAP: robustness).

The paper evaluates the MAC on an ideal, error-free HMC; the real HMC
protocol carries per-packet CRC, token-based flow control and a link
retry buffer, and Hadidi et al.'s characterization shows those
mechanisms materially shape observed bandwidth.  This package provides
the *injection* half of that story: a seeded, deterministic
:class:`FaultInjector` driven by pluggable fault models and an
injection-schedule API, with per-site error counters.

The *recovery* half lives with the components it protects:
:mod:`repro.hmc.link` implements the CRC/NAK/replay retry protocol,
:mod:`repro.hmc.device` steers traffic off failed links, and
:mod:`repro.core.router` re-issues timed-out packets and suppresses
duplicate responses.

Everything is off by default: with no :class:`FaultConfig` attached to
an :class:`repro.hmc.config.HMCConfig`, every simulation is
cycle-identical to the fault-free model.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    config=("FaultConfig",),
    injector=("FaultInjector",),
    models=(
        "AckError", "FlitBitError", "LinkDegradation", "LinkFailure", "ResponseFault",
        "TransientVaultError", "Window",
    ),
    stats=("FaultStats",),
)

__all__ = [
    "AckError",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "FlitBitError",
    "LinkDegradation",
    "LinkFailure",
    "ResponseFault",
    "TransientVaultError",
    "Window",
]
