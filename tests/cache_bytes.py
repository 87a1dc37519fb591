"""The byte-identity oracles for snapshot series and campaign datasets.

Equivalence tests (serial vs parallel, sharded vs unsharded, cold vs
warm cache) compare series and datasets by the exact bytes a cache
entry holds for them: the ``.rbf`` blockfile (through the same call the
cache's store makes) plus the document metadata that is not derived
from the blockfile itself.
"""

import json

#: The snapshot document fields that describe the series (the rest name
#: and checksum the sidecar).
METADATA_FIELDS = ("name", "networks", "at_offset", "cadence_days", "days", "total_responses")


def series_bytes(series) -> bytes:
    """Canonical metadata JSON, a newline, then the blockfile bytes."""
    document = series.to_cache_payload()
    metadata = {field: document[field] for field in METADATA_FIELDS}
    blob = series.encode_blockfile()
    return json.dumps(metadata, sort_keys=True).encode("utf-8") + b"\n" + blob


def dataset_bytes(dataset) -> bytes:
    """Canonical metadata JSON, a newline, then the ICMP/RDNS blockfile bytes."""
    metadata = json.dumps(dataset.to_payload(), sort_keys=True).encode("utf-8")
    return metadata + b"\n" + dataset.encode_blockfile()
