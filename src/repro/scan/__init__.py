"""Measurement infrastructure.

Implements the three data-collection instruments of the paper:

* :mod:`repro.scan.snapshot` — full-address-space rDNS snapshot
  collectors at daily (OpenINTEL-style) and weekly (Rapid7-style)
  cadence (Section 3, Table 1);
* :mod:`repro.scan.icmp` — a ZMap-style ICMP sweeper with rate limiting
  and an opt-out blocklist (Section 6.1);
* :mod:`repro.scan.reactive` — the reactive fine-grained measurement
  with the Table 2 back-off schedule, orchestrated per Figure 5;
* :mod:`repro.scan.campaign` — the supplemental campaign tying the
  above together against the nine selected networks.
"""

from repro.scan.observations import (
    IcmpObservation,
    RdnsObservation,
    read_icmp_csv,
    read_rdns_csv,
    write_icmp_csv,
    write_rdns_csv,
)
from repro.scan.ratelimit import TokenBucket
from repro.scan.cache import CampaignCache, SnapshotCache
from repro.scan.icmp import IcmpScanner
from repro.scan.parallel import worker_cap
from repro.scan.rdns import RdnsLookupEngine
from repro.scan.snapshot import (
    CollectionMetrics,
    SampleMetrics,
    SnapshotCollector,
    SnapshotSeries,
    SnapshotStats,
)
from repro.scan.reactive import BackoffSchedule, ReactiveMonitor
from repro.scan.campaign import (
    CampaignMetrics,
    SupplementalCampaign,
    SupplementalDataset,
    run_network_campaign,
)
from repro.scan.storage import (
    DATASET_FORMAT_VERSION,
    CountMatrix,
    IcmpColumns,
    PrefixTable,
    RdnsColumns,
)
from repro.scan.persistence import load_dataset, save_dataset

__all__ = [
    "BackoffSchedule",
    "CampaignCache",
    "CampaignMetrics",
    "CollectionMetrics",
    "CountMatrix",
    "DATASET_FORMAT_VERSION",
    "IcmpColumns",
    "IcmpObservation",
    "IcmpScanner",
    "PrefixTable",
    "RdnsColumns",
    "RdnsLookupEngine",
    "RdnsObservation",
    "ReactiveMonitor",
    "SampleMetrics",
    "SnapshotCache",
    "SnapshotCollector",
    "SnapshotSeries",
    "SnapshotStats",
    "SupplementalCampaign",
    "SupplementalDataset",
    "TokenBucket",
    "worker_cap",
    "run_network_campaign",
    "load_dataset",
    "read_icmp_csv",
    "read_rdns_csv",
    "save_dataset",
    "write_icmp_csv",
    "write_rdns_csv",
]
