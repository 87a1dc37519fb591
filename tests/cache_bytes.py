"""The byte-identity oracle for snapshot series.

Equivalence tests (serial vs parallel, sharded vs unsharded, cold vs
warm cache) compare series by the exact bytes a
:class:`~repro.scan.cache.SnapshotCache` entry holds for them: the
``.rbf`` blockfile (counts, PTR pool and record columns, through the
same call ``store_series`` makes) plus the document metadata that is
not derived from the blockfile itself.
"""

import json

#: The cache document fields that describe the series (the rest name
#: and checksum the sidecar).
METADATA_FIELDS = ("name", "networks", "at_offset", "cadence_days", "days", "total_responses")


def series_bytes(series) -> bytes:
    """Canonical metadata JSON, a newline, then the blockfile bytes."""
    document = series.to_cache_payload("", "", 0)
    metadata = {field: document[field] for field in METADATA_FIELDS}
    blob = series.encode_blockfile()
    return json.dumps(metadata, sort_keys=True).encode("utf-8") + b"\n" + blob
