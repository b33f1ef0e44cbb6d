"""Named scheme configurations (Section 5.3, "Compared Schemes").

Each factory returns a :class:`~repro.config.SchemeConfig`; the names match
the labels used in the paper's figures.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..config import SchemeConfig
from ..errors import ConfigError


def din() -> SchemeConfig:
    """DIN-enhanced 8F^2 PCM: WD-free bit-lines, no VnC (the comparison
    upper bound)."""
    return SchemeConfig(bitlines="wd_free")


def baseline() -> SchemeConfig:
    """Basic verify-and-correct on super dense 4F^2 PCM."""
    return SchemeConfig()


def lazyc(ecp_entries: int = 6) -> SchemeConfig:
    """LazyCorrection on top of basic VnC (ECP-6 by default)."""
    return SchemeConfig(lazy_correction=True, ecp_entries=ecp_entries)


def preread() -> SchemeConfig:
    """PreRead on top of basic VnC."""
    return SchemeConfig(preread=True)


def lazyc_preread(ecp_entries: int = 6) -> SchemeConfig:
    """LazyC + PreRead combined."""
    return SchemeConfig(lazy_correction=True, ecp_entries=ecp_entries, preread=True)


def nm_alloc(n: int, m: int, with_lazyc: bool = False, with_preread: bool = False) -> SchemeConfig:
    """(n:m)-Alloc on top of basic VnC, optionally with LazyC/PreRead."""
    return SchemeConfig(
        nm_ratio=(n, m), lazy_correction=with_lazyc, preread=with_preread
    )


def all_combined(ecp_entries: int = 6) -> SchemeConfig:
    """LazyC + PreRead + (2:3)-Alloc (the paper's best VnC-bearing combo)."""
    return SchemeConfig(
        lazy_correction=True, ecp_entries=ecp_entries, preread=True, nm_ratio=(2, 3)
    )


def write_cancellation() -> SchemeConfig:
    """Basic VnC with write cancellation [22] (Figure 19's WC)."""
    return SchemeConfig(read_priority="cancel")


def wc_lazyc(ecp_entries: int = 6) -> SchemeConfig:
    """Write cancellation + LazyCorrection (Figure 19's WC+LazyC)."""
    return SchemeConfig(
        lazy_correction=True, ecp_entries=ecp_entries, read_priority="cancel"
    )


def eager() -> SchemeConfig:
    """Basic VnC with eager write scheduling but no pre-emption; isolates
    the scheduling component of WC/WP's gains."""
    return SchemeConfig(read_priority="eager")


def write_pausing() -> SchemeConfig:
    """Basic VnC with write pausing [22] (extension study)."""
    return SchemeConfig(read_priority="pause")


def wp_lazyc(ecp_entries: int = 6) -> SchemeConfig:
    """Write pausing + LazyCorrection (extension study)."""
    return SchemeConfig(
        lazy_correction=True, ecp_entries=ecp_entries, read_priority="pause"
    )


def lazyc_dense_ecp(ecp_entries: int = 6) -> SchemeConfig:
    """Ablation: LazyCorrection over a naive super dense ECP chip whose
    entry writes need their own VnC (Section 4.2's rejected design)."""
    return SchemeConfig(
        lazy_correction=True, ecp_entries=ecp_entries, low_density_ecp=False
    )


#: The Figure 11 scheme line-up, in plot order.
FIGURE11_SCHEMES: Dict[str, Callable[[], SchemeConfig]] = {
    "DIN": din,
    "baseline": baseline,
    "LazyC": lazyc,
    "LazyC+PreRead": lazyc_preread,
    "LazyC+(2:3)": lambda: nm_alloc(2, 3, with_lazyc=True),
    "LazyC+PreRead+(2:3)": all_combined,
    "(1:2)": lambda: nm_alloc(1, 2),
}


#: Every named scheme: what ``by_name`` resolves and the CLI offers.
SCHEMES: Dict[str, Callable[[], SchemeConfig]] = {
    **FIGURE11_SCHEMES,
    "PreRead": preread,
    "VnC": baseline,
    "WC": write_cancellation,
    "WC+LazyC": wc_lazyc,
    "WP": write_pausing,
    "WP+LazyC": wp_lazyc,
    "eager": eager,
    "LazyC-denseECP": lazyc_dense_ecp,
}


def by_name(name: str) -> SchemeConfig:
    """Look up any named scheme used in the experiments."""
    factory = SCHEMES.get(name)
    if factory is None:
        raise ConfigError(f"unknown scheme {name!r}; known: {sorted(SCHEMES)}")
    return factory()
