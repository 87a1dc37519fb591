"""DNS-update policies: how a lease becomes (or doesn't become) a PTR.

The policy decides what hostname, if any, an IPAM system publishes for
a newly bound lease.  The four implementations span the spectrum the
paper discusses:

* :class:`CarryOverPolicy` — the leaky practice under study: sanitize
  the DHCP Host Name and publish it under the network's suffix
  (``brians-iphone.campus.example.edu``).
* :class:`StaticTemplatePolicy` — fixed-form records such as
  ``host1234.dynamic.institute.edu`` (the 83 additional prefixes in the
  paper's validation); dynamicity is hidden because the record content
  never changes, and the record can be pre-provisioned for every
  address.
* :class:`HashedPolicy` — the "some sort of hash seems prudent"
  mitigation from Section 8: publish a keyed digest instead of the
  identifier.
* :class:`NoUpdatePolicy` — do not couple DHCP to DNS at all.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Optional

from repro.dhcp.lease import Lease
from repro.dns.name import as_ip
from repro.ipam.hostname import sanitize_host_name


class DnsUpdatePolicy(abc.ABC):
    """Decides the published hostname for a lease.

    ``hostname_for`` returns the fully-qualified hostname to publish in
    the PTR record, or ``None`` to publish nothing.
    """

    #: True when the policy changes zone content as clients come and go.
    exposes_dynamics: bool = True

    def __init__(self, suffix: str):
        self.suffix = suffix.strip(".")
        if not self.suffix:
            raise ValueError("policy needs a non-empty hostname suffix")

    @abc.abstractmethod
    def hostname_for(self, lease: Lease) -> Optional[str]:
        """The FQDN to publish for ``lease``, or None."""

    def _token_params(self) -> tuple:
        """Identity parameters beyond the suffix (for :meth:`cache_token`)."""
        return ()

    def cache_token(self) -> str:
        """A deterministic fingerprint of the policy's published output.

        Two policies share a token only when they publish identical
        zone content for identical leases; every constructor parameter
        that shapes the output is folded in.  The world-level
        :meth:`~repro.netsim.internet.Internet.cache_token` embeds this
        per subnet, so on-disk snapshot/campaign caches can never serve
        one policy's records for another (the class name alone could:
        two ``HashedPolicy`` instances with different keys publish
        different zones).
        """
        parts = [self.suffix, *self._token_params()]
        return f"{type(self).__name__}({','.join(parts)})"

    def static_hostname_for(self, address) -> Optional[str]:
        """The record to restore once the lease goes away, or None.

        Policies that pre-provision fixed-form records (static
        templates) return that form here; carry-over policies return
        None, meaning the PTR is simply removed.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(suffix={self.suffix!r})"


class CarryOverPolicy(DnsUpdatePolicy):
    """Publish the client-provided Host Name — the privacy leak."""

    exposes_dynamics = True

    def __init__(self, suffix: str, *, fallback_prefix: str = "dhcp"):
        super().__init__(suffix)
        self.fallback_prefix = fallback_prefix
        # Sanitisation is a pure string transform, and renewals re-ask
        # for the same host names every half lease-time; the population
        # of distinct names is bounded by the device population.
        self._sanitized: dict = {}

    def _token_params(self) -> tuple:
        return (f"fallback={self.fallback_prefix}",)

    def hostname_for(self, lease: Lease) -> Optional[str]:
        name = lease.host_name
        if name:
            label = self._sanitized.get(name)
            if label is None:
                label = sanitize_host_name(name)
                self._sanitized[name] = label
        else:
            label = self._fallback_label(lease.address)
        return f"{label}.{self.suffix}"

    def _fallback_label(self, address) -> str:
        dashed = str(address).replace(".", "-")
        return f"{self.fallback_prefix}-{dashed}"


class StaticTemplatePolicy(DnsUpdatePolicy):
    """Fixed-form records derived from the address only.

    Because the published name is a pure function of the IP address,
    the record can exist permanently: the zone content does not change
    as clients come and go (``exposes_dynamics`` is False).  This is
    the behaviour of the 83 confirmed-DHCP-but-static prefixes in the
    paper's validation (Section 4.1).
    """

    exposes_dynamics = False

    def __init__(self, suffix: str, *, template: str = "host-{dashed}"):
        super().__init__(suffix)
        if "{dashed}" not in template and "{last_octet}" not in template:
            raise ValueError("template must reference {dashed} or {last_octet}")
        self.template = template

    def _token_params(self) -> tuple:
        return (f"template={self.template}",)

    def _label(self, address) -> str:
        # An IPv4 address as an int, object or text; an int is
        # formatted as is, with no address object built.
        value = address if isinstance(address, int) else int(as_ip(address))
        last = value & 0xFF
        return self.template.format(
            dashed=f"{value >> 24}-{(value >> 16) & 0xFF}-{(value >> 8) & 0xFF}-{last}",
            last_octet=str(last),
        )

    def hostname_for(self, lease: Lease) -> Optional[str]:
        return f"{self._label(lease.address)}.{self.suffix}"

    def static_hostname_for(self, address) -> Optional[str]:
        return f"{self._label(address)}.{self.suffix}"


class HashedPolicy(DnsUpdatePolicy):
    """Publish a keyed digest of the client identifier (Section 8).

    The hostname still changes per client (so two devices do not
    collide) but carries no recoverable identity.  Dynamics remain
    observable — the mitigation removes the *content* leak only, which
    is exactly the nuance the paper's discussion draws.
    """

    exposes_dynamics = True

    def __init__(self, suffix: str, *, key: bytes = b"", digest_length: int = 12):
        super().__init__(suffix)
        if not 4 <= digest_length <= 32:
            raise ValueError("digest_length must be between 4 and 32")
        self.key = key
        self.digest_length = digest_length
        self._digests: dict = {}

    def _token_params(self) -> tuple:
        # The raw key is a secret; a digest prefix identifies it just
        # as well without writing it into cache-key material on disk.
        key_digest = hashlib.sha256(self.key).hexdigest()[:16]
        return (f"key={key_digest}", f"len={self.digest_length}")

    def hostname_for(self, lease: Lease) -> Optional[str]:
        hostname = self._digests.get(lease.client_id)
        if hostname is None:
            material = self.key + lease.client_id.encode("utf-8")
            digest = hashlib.sha256(material).hexdigest()[: self.digest_length]
            hostname = f"h-{digest}.{self.suffix}"
            self._digests[lease.client_id] = hostname
        return hostname


class NoUpdatePolicy(DnsUpdatePolicy):
    """Never publish anything: DHCP and DNS are fully decoupled."""

    exposes_dynamics = False

    def hostname_for(self, lease: Lease) -> Optional[str]:
        return None


#: Plan-level policy names, in the order the paper discusses them.
#: These are the values a :class:`~repro.netsim.worldplan.WorldPlan`
#: entry's ``update_policy`` key may carry, and the policy axis of the
#: countermeasure evaluation matrix (:mod:`repro.eval`).
POLICY_NAMES = ("carry-over", "hashed", "static-template", "no-update")

#: Fixed key for plan-declared hashed policies.  A plan is a pure JSON
#: value, so the key must be derivable from it; a constant keeps two
#: processes holding the same plan publishing the same digests.
_PLAN_HASH_KEY = b"plan-zone-key"


def make_policy(name: str, suffix: str) -> DnsUpdatePolicy:
    """Build the named policy for ``suffix`` (plan/CLI entry point)."""
    if name == "carry-over":
        return CarryOverPolicy(suffix)
    if name == "hashed":
        return HashedPolicy(suffix, key=_PLAN_HASH_KEY)
    if name == "static-template":
        return StaticTemplatePolicy(suffix)
    if name == "no-update":
        return NoUpdatePolicy(suffix)
    raise ValueError(f"unknown policy {name!r} (want one of {POLICY_NAMES})")
