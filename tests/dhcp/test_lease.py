"""Tests for leases and the lease database."""

import ipaddress

import pytest

from repro.dhcp import Lease, LeaseDatabase, LeaseState, UnknownLeaseError


def make_lease(address="10.0.0.5", client="client-1", duration=3600, bound_at=0):
    return Lease(
        address=ipaddress.IPv4Address(address),
        client_id=client,
        duration=duration,
        bound_at=bound_at,
    )


class TestLease:
    def test_expiry_follows_binding(self):
        lease = make_lease(bound_at=100, duration=3600)
        assert lease.expires_at == 3700

    def test_renewal_extends_expiry(self):
        lease = make_lease(bound_at=0, duration=3600)
        lease.renew(1800)
        assert lease.expires_at == 1800 + 3600
        assert lease.renewals == 1

    def test_is_active_window(self):
        lease = make_lease(bound_at=0, duration=3600)
        assert lease.is_active(0)
        assert lease.is_active(3599)
        assert not lease.is_active(3600)

    def test_released_lease_is_not_active(self):
        lease = make_lease()
        lease.state = LeaseState.RELEASED
        assert not lease.is_active(1)

    def test_renewing_non_bound_lease_fails(self):
        lease = make_lease()
        lease.state = LeaseState.EXPIRED
        with pytest.raises(ValueError):
            lease.renew(10)

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError):
            make_lease(duration=0)


class TestLeaseDatabase:
    def test_add_and_lookup(self):
        db = LeaseDatabase()
        lease = make_lease()
        db.add(lease)
        assert list(db) == [lease]
        assert db.find_by_client("client-1") is lease
        assert len(db) == 1

    def test_duplicate_address_rejected(self):
        db = LeaseDatabase()
        db.add(make_lease())
        with pytest.raises(ValueError):
            db.add(make_lease(client="client-2"))

    def test_duplicate_client_rejected(self):
        db = LeaseDatabase()
        db.add(make_lease())
        with pytest.raises(ValueError):
            db.add(make_lease(address="10.0.0.6"))

    def test_missing_lease_raises(self):
        db = LeaseDatabase()
        lease = make_lease()
        db.add(lease)
        db.drop(lease, LeaseState.RELEASED)
        with pytest.raises(UnknownLeaseError):
            db.drop(lease, LeaseState.EXPIRED)

    def test_find_returns_none_for_missing(self):
        db = LeaseDatabase()
        assert db.find_by_client("nope") is None

    def test_drop_release_moves_to_history(self):
        db = LeaseDatabase()
        lease = make_lease()
        db.add(lease)
        db.drop(lease, LeaseState.RELEASED)
        assert len(db) == 0
        assert lease.state is LeaseState.RELEASED
        assert db.history == [lease]
        assert db.find_by_client("client-1") is None

    def test_drop_rejects_bad_state(self):
        db = LeaseDatabase()
        lease = make_lease()
        db.add(lease)
        with pytest.raises(ValueError):
            db.drop(lease, LeaseState.BOUND)

    def test_drop_rejects_stale_lease(self):
        db = LeaseDatabase()
        lease = make_lease()
        with pytest.raises(UnknownLeaseError):
            db.drop(lease, LeaseState.EXPIRED)

    def test_expired_scan(self):
        db = LeaseDatabase()
        fresh = make_lease(address="10.0.0.5", client="a", bound_at=1000, duration=3600)
        stale = make_lease(address="10.0.0.6", client="b", bound_at=0, duration=600)
        db.add(fresh)
        db.add(stale)
        assert db.expired(700) == [stale]
        assert db.active(700) == [fresh]

    def test_client_can_rebind_after_drop(self):
        db = LeaseDatabase()
        lease = make_lease()
        db.add(lease)
        db.drop(lease, LeaseState.EXPIRED)
        rebound = make_lease(address="10.0.0.7")
        db.add(rebound)
        assert db.find_by_client("client-1") is rebound
