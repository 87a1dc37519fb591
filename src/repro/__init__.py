"""rdns-privacy: a reproduction of "Saving Brian's Privacy: the Perils
of Privacy Exposure through Reverse DNS" (van der Toorn et al., IMC 2022).

The package splits into the *substrate* — everything the paper's
measurements run against — and the *analysis* the paper contributes:

=================  ==========================================================
``repro.dns``      reverse-DNS machinery: names, messages, zones with
                   dynamic update, authoritative servers, stub resolver
``repro.dhcp``     DHCP: options (Host Name / Client FQDN / RFC 7844),
                   leases, pools, server and client state machines
``repro.ipam``     the DHCP-to-DNS bridge and its update policies
``repro.netsim``   the simulated Internet: people, devices, schedules,
                   networks, worlds
``repro.scan``     measurement instruments: snapshots, ICMP sweeps, the
                   reactive back-off campaign
``repro.core``     the paper's analyses: dynamicity, leak identification,
                   grouping/timing, tracking, occupancy
``repro.datasets`` given names and term lexicons
``repro.reporting`` text renderers for the reproduced tables and figures
=================  ==========================================================

Entry points::

    from repro import ReproductionStudy, StudyConfig, build_world

    study = ReproductionStudy(StudyConfig(seed=42))
    study.leaks().identified         # the paper's "197 networks" (scaled)
    study.lingering().fraction_within(60)   # ~0.9 (Section 6.2)
"""

from repro.core.pipeline import ReproductionStudy, StudyConfig
from repro.netsim.internet import World, WorldScale, build_world

__version__ = "1.0.0"

__all__ = [
    "ReproductionStudy",
    "StudyConfig",
    "World",
    "WorldScale",
    "__version__",
    "build_world",
]
