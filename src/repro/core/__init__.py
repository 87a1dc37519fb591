"""The paper's analysis pipeline.

Everything in this package operates on *measurement data* (snapshot
series, supplemental observations) rather than on simulation ground
truth:

* :mod:`repro.core.dynamicity` — the Section 4.1 heuristic that flags
  /24 prefixes whose daily PTR population is dynamic;
* :mod:`repro.core.prefixes` — mapping dynamic /24s to announced
  prefixes (Figure 1);
* :mod:`repro.core.terms` / :mod:`repro.core.names` — hostname term
  extraction, router-level filtering and given-name matching;
* :mod:`repro.core.leaks` — the Section 5.1 drill-down to identified,
  identity-leaking networks (Figures 2-3);
* :mod:`repro.core.classify` — network-type inference (Figure 4);
* :mod:`repro.core.grouping` / :mod:`repro.core.timing` — activity
  groups and PTR-lingering analysis (Table 5, Figure 7);
* :mod:`repro.core.tracking` — following named devices over time
  (Figure 8);
* :mod:`repro.core.occupancy` — longitudinal and hourly occupancy
  (Figures 9-11).
"""

from repro.core.dynamicity import (
    DynamicityAnalyzer,
    DynamicityReport,
    DynamicityThresholds,
    IncrementalDynamicityAnalyzer,
    PrefixDynamicity,
)
from repro.core.prefixes import AnnouncedPrefixMap, dynamic_fraction_summary
from repro.core.terms import (
    extract_terms,
    hostname_suffix,
    is_router_level,
)
from repro.core.names import GivenNameMatcher
from repro.core.leaks import (
    LeakIdentifier,
    LeakReport,
    LeakThresholds,
    LeakWindow,
    SuffixStats,
)
from repro.core.classify import NetworkTypeClassifier
from repro.core.exposure import ExposureAuditor, ExposureReport, audit_by_network
from repro.core.grouping import ActivityGroup, GroupBuilder, GroupFunnel
from repro.core.timing import LingeringAnalysis, lingering_analysis
from repro.core.tracking import DeviceTracker, TrackedDevice
from repro.core.occupancy import (
    HeistPlanner,
    hourly_activity,
    relative_daily_presence,
    subnet_presence_split,
)

__all__ = [
    "ActivityGroup",
    "AnnouncedPrefixMap",
    "DeviceTracker",
    "DynamicityAnalyzer",
    "DynamicityReport",
    "DynamicityThresholds",
    "ExposureAuditor",
    "ExposureReport",
    "GivenNameMatcher",
    "GroupBuilder",
    "GroupFunnel",
    "HeistPlanner",
    "IncrementalDynamicityAnalyzer",
    "LeakIdentifier",
    "LeakReport",
    "LeakThresholds",
    "LeakWindow",
    "LingeringAnalysis",
    "NetworkTypeClassifier",
    "PrefixDynamicity",
    "SuffixStats",
    "TrackedDevice",
    "audit_by_network",
    "dynamic_fraction_summary",
    "extract_terms",
    "hostname_suffix",
    "hourly_activity",
    "is_router_level",
    "lingering_analysis",
    "relative_daily_presence",
    "subnet_presence_split",
]
