"""The columnar ``GroupBuilder.build`` against the object-at-a-time oracle.

Hypothesis draws ICMP and rDNS rows around the builder's edges:
duplicate (address, 5-minute) pairs, gaps of exactly ``gap_threshold``,
lookups on the ``-30 min`` and ``+post_window`` window edges, runs of
one address close enough for their windows to clamp, and one address
seen under two networks.  The build must equal
:func:`tests.oracles.reference_groups` on list input and on
``IcmpColumns`` input alike.
"""

import datetime as dt
import ipaddress

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GroupBuilder
from repro.dns.resolver import ResolutionStatus
from repro.netsim.simtime import HOUR, MINUTE, from_date
from repro.scan.campaign import SupplementalDataset
from repro.scan.observations import TRUNCATION, IcmpObservation, RdnsObservation
from repro.scan.storage import IcmpColumns, RdnsColumns
from tests.oracles import reference_groups

DAY0 = from_date(dt.date(2021, 11, 1))
ADDRESSES = [ipaddress.IPv4Address("20.0.10.10") + offset for offset in (0, 1, 256)]
NETWORKS = ["Academic-A", "ISP-B"]

builders = st.builds(
    GroupBuilder,
    gap_threshold=st.sampled_from([70 * MINUTE, 10 * MINUTE, TRUNCATION]),
    post_window=st.sampled_from([26 * HOUR, HOUR, 30 * MINUTE]),
)


@st.composite
def datasets(draw, builder):
    """ICMP rows as per-address step chains, rDNS rows pinned to their edges."""
    gap = builder.gap_threshold // TRUNCATION
    # 5-minute slot steps: 0 repeats a slot, ``gap`` is exactly the
    # threshold, ``gap + 1`` just past it; a few hours clamps windows.
    steps = st.sampled_from([0, 1, gap, gap + 1, 12, 300])
    icmp, slots = [], []
    for address in ADDRESSES:
        slot = draw(st.integers(0, 20))
        for step in draw(st.lists(steps, max_size=12)):
            slot += step
            slots.append(slot)
            icmp.append(
                IcmpObservation(
                    address,
                    DAY0 + slot * TRUNCATION + draw(st.integers(0, TRUNCATION - 1)),
                    draw(st.sampled_from(NETWORKS)),
                )
            )
    icmp = draw(st.permutations(icmp))
    edges = [-30 * MINUTE, -30 * MINUTE - 1, 0, -1, builder.post_window, builder.post_window + 1]
    rdns = []
    for _ in range(draw(st.integers(0, 25))):
        if slots:
            base = DAY0 + draw(st.sampled_from(slots)) * TRUNCATION
        else:
            base = DAY0
        offset = draw(st.one_of(st.sampled_from(edges), st.integers(-2 * HOUR, 30 * HOUR)))
        status = draw(st.sampled_from(list(ResolutionStatus)))
        rdns.append(
            RdnsObservation(
                draw(st.sampled_from(ADDRESSES)),
                base + offset,
                status,
                f"h{draw(st.integers(0, 3))}.example" if status is ResolutionStatus.NOERROR else "",
                draw(st.sampled_from(NETWORKS)),
            )
        )
    return icmp, rdns


def dataset(icmp, rdns):
    return SupplementalDataset(
        start=dt.date(2021, 11, 1),
        end=dt.date(2021, 11, 8),
        icmp=icmp,
        rdns=rdns,
        targets_by_network={},
        network_types={},
    )


def shape(groups):
    return [
        (group.group_id, group.address, group.network, group.icmp_times, group.rdns)
        for group in groups
    ]


@st.composite
def cases(draw):
    builder = draw(builders)
    return builder, draw(datasets(builder))


@given(cases())
@settings(max_examples=200, deadline=None)
def test_columnar_build_equals_the_oracle(case):
    builder, (icmp, rdns) = case
    expected = shape(reference_groups(builder, dataset(icmp, rdns)))
    assert shape(builder.build(dataset(list(icmp), list(rdns)))) == expected

    icmp_columns, rdns_columns = IcmpColumns(), RdnsColumns()
    icmp_columns.extend(icmp)
    rdns_columns.extend(rdns)
    groups = builder.build(dataset(icmp_columns, rdns_columns))
    assert shape(groups) == expected
    assert all(type(group.address) is ipaddress.IPv4Address for group in groups)


def test_an_address_takes_the_network_of_its_last_row_in_dataset_order():
    address = ADDRESSES[0]
    icmp = [
        IcmpObservation(address, DAY0 + 10 * MINUTE, "ISP-B"),
        IcmpObservation(address, DAY0, "Academic-A"),
    ]
    [group] = GroupBuilder().build(dataset(icmp, []))
    assert group.network == "Academic-A"
    assert group.icmp_times == [DAY0, DAY0 + 10 * MINUTE]
