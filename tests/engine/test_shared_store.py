"""Shared-memory plane stores: packed semantics plus explicit lifecycle.

:class:`SharedPlaneStore` must be indistinguishable from
:class:`PackedArrayFleet` on every lockstep sequence — bit-exact state,
identical cycle counters, ragged tail words included — because the pool
workers' entire bit-exactness story rests on the store seam being
behaviour-preserving. On top of that it adds the lifecycle the packed
store never needed: segments that other processes can attach, a close
that releases (or recycles) them, and loud failures on every use-after-
close path.
"""

import numpy as np
import pytest

from repro.common.errors import ArrayStateError
from repro.engine import (
    FleetBitSerialUnit,
    Operand,
    PackedArrayFleet,
    make_fleet,
)
from repro.engine.shared import (
    SharedPlaneStore,
    SharedSegment,
    release_pooled_segments,
    set_segment_scope,
    shared_segment_stats,
    unlink_scope,
)

RNG = np.random.default_rng(31)

#: Whole-word and ragged-tail geometries, as in the packed-store tests.
GEOMETRIES = [
    pytest.param(2, 64, id="one-word"),
    pytest.param(3, 256, id="four-words"),
    pytest.param(2, 100, id="ragged-100"),
    pytest.param(1, 37, id="ragged-37"),
]


class TestSharedStoreEquivalence:
    """Same bits, same cycles as the private packed store."""

    @pytest.mark.parametrize("n_arrays,cols", GEOMETRIES)
    def test_arithmetic_sequences_match_packed(self, n_arrays, cols):
        packed = FleetBitSerialUnit(PackedArrayFleet(n_arrays, 256, cols))
        shared = FleetBitSerialUnit(SharedPlaneStore(n_arrays, 256, cols))
        av = RNG.integers(0, 256, (n_arrays, cols)).astype(np.int64)
        bv = RNG.integers(1, 256, (n_arrays, cols)).astype(np.int64)
        a, b = Operand(0, 8), Operand(8, 8)
        for unit in (packed, shared):
            unit.write_values(a, av)
            unit.write_values(b, bv)
            unit.add(a, b, Operand(16, 9))
            unit.multiply(a, b, Operand(32, 16))
            unit.mac(a, b, Operand(48, 16), Operand(64, 20))
        assert np.array_equal(shared.read_values(Operand(16, 9)), av + bv)
        assert np.array_equal(shared.fleet.dump_bits(0, 256),
                              packed.fleet.dump_bits(0, 256))
        assert shared.cycles == packed.cycles
        assert shared.fleet.compute_cycles == packed.fleet.compute_cycles
        assert shared.fleet.access_cycles == packed.fleet.access_cycles
        shared.fleet.close()

    def test_make_fleet_routes_shared(self, monkeypatch):
        # Pin the sanitizer env gate off: under NEURALCACHE_SANITIZE=1
        # the store arrives wrapped (TestOptIn in test_sanitizer.py
        # covers that), and a failed isinstance here would leak the
        # segment into the stats tests below.
        monkeypatch.delenv("NEURALCACHE_SANITIZE", raising=False)
        fleet = make_fleet(2, rows=8, cols=64, packed="shared")
        assert isinstance(fleet, SharedPlaneStore)
        assert isinstance(fleet, PackedArrayFleet)
        assert fleet.owner
        fleet.close()

    def test_make_fleet_rejects_unknown_store_string(self):
        with pytest.raises(ArrayStateError, match="unknown plane store"):
            make_fleet(1, packed="mmap")


class TestSharedStoreLifecycle:
    def test_attach_sees_the_owners_planes(self):
        owner = SharedPlaneStore(2, rows=8, cols=100)
        bits = RNG.integers(0, 2, (2, 8, 100)).astype(np.uint8)
        owner.load_bits(0, bits)
        attached = SharedPlaneStore.attach(owner.segment_name, 2,
                                           rows=8, cols=100)
        assert not attached.owner
        assert np.array_equal(attached.dump_bits(0, 8), bits)
        # Writes through the attachment are the owner's writes: one
        # allocation, two mappings — the zero-copy property itself.
        attached.load_bits(0, 1 - bits)
        assert np.array_equal(owner.dump_bits(0, 8), 1 - bits)
        attached.close()
        owner.close()

    def test_row_plane_is_contiguous_and_attach_sees_owner_writes(self):
        owner = SharedPlaneStore(3, rows=16, cols=100)
        plane = owner.row_plane(12)
        assert plane.shape == (3, owner.n_words)
        assert plane.flags.c_contiguous and plane.flags.writeable
        assert owner.nbytes == 16 * 3 * owner.n_words * 8
        attached = SharedPlaneStore.attach(owner.segment_name, 3,
                                           rows=16, cols=100)
        assert attached.nbytes == owner.nbytes
        values = RNG.integers(0, 256, (3, 1, 100))
        owner.load_values(2, values, 8)
        assert np.array_equal(attached.dump_values(2, 8), values[:, 0])
        plane[...] = owner.const_plane(1)   # all ones, tail clear
        assert attached.dump_bits(12, 1).all()
        del plane
        attached.close()
        owner.close()

    def test_attach_validates_size_and_existence(self):
        owner = SharedPlaneStore(1, rows=4, cols=64)
        with pytest.raises(ArrayStateError, match="bytes"):
            SharedPlaneStore.attach(owner.segment_name, 16,
                                    rows=256, cols=256)
        name = owner.segment_name
        owner.close(unlink=True)
        with pytest.raises(ArrayStateError, match="does not exist"):
            SharedPlaneStore.attach(name, 1, rows=4, cols=64)

    def test_close_is_idempotent_and_then_loud(self):
        store = SharedPlaneStore(1, rows=4, cols=64)
        store.close()
        store.close()
        with pytest.raises(ArrayStateError, match="closed"):
            store.dump_bits(0, 1)
        with pytest.raises(ArrayStateError, match="closed"):
            store.load_bits(0, np.zeros((1, 1, 64), dtype=np.uint8))
        with pytest.raises(ArrayStateError, match="closed"):
            store.load_values(0, np.zeros((1, 1, 64), dtype=np.uint8), 1)
        with pytest.raises(ArrayStateError, match="closed"):
            store.dump_values(0, 1)
        with pytest.raises(ArrayStateError, match="closed"):
            store.sense(0, 1)
        with pytest.raises(ArrayStateError, match="closed"):
            store.segment_name
        with pytest.raises(ArrayStateError, match="closed"):
            store.nbytes

    def test_recycler_reuses_then_releases_segments(self):
        release_pooled_segments()      # a clean slate for the counts
        first = SharedPlaneStore(1, rows=4, cols=64)
        name = first.segment_name
        first.close()                  # owner + recyclable -> pooled
        assert shared_segment_stats()["pooled"] >= 1
        second = SharedPlaneStore(1, rows=4, cols=64)
        assert second.segment_name == name     # same segment, reused
        assert not np.any(second.dump_bits(0, 4))   # zero-filled
        second.close()
        assert release_pooled_segments() >= 1
        with pytest.raises(ArrayStateError, match="does not exist"):
            SharedSegment.attach(name)

    def test_scoped_create_skips_the_recycler(self):
        """A recycled segment keeps its birth name, so a create that
        asks for an explicit scope (a pool arena, swept by prefix on
        crash) must allocate fresh instead of popping the free list."""
        release_pooled_segments()
        pooled = SharedSegment.create(512, recycle=True)
        pooled_name = pooled.name
        pooled.close()      # into the recycler, still linked
        try:
            scoped = SharedSegment.create(512, scope="repro-scoped-arena")
            assert scoped.name != pooled_name
            assert scoped.name.startswith("repro-scoped-arena-")
            scoped.close(unlink=True)
            # The recycled segment was left untouched for the next
            # scopeless create.
            reused = SharedSegment.create(512, recycle=True)
            assert reused.name == pooled_name
            reused.close(unlink=True)
        finally:
            release_pooled_segments()

    def test_forced_unlink_bypasses_the_recycler(self):
        store = SharedPlaneStore(1, rows=4, cols=64)
        name = store.segment_name
        store.close(unlink=True)
        with pytest.raises(ArrayStateError, match="does not exist"):
            SharedSegment.attach(name)

    def test_active_ledger_counts_mappings(self):
        release_pooled_segments()
        before = shared_segment_stats()["active"]
        owner = SharedPlaneStore(1, rows=4, cols=64)
        attached = SharedSegment.attach(owner.segment_name)
        assert shared_segment_stats()["active"] == before + 1
        attached.close()
        # The owner still maps the segment: closing an attachment must
        # not retire the name from the ledger.
        assert shared_segment_stats()["active"] == before + 1
        owner.close(unlink=True)
        assert shared_segment_stats()["active"] == before

    def test_scope_sweep_unlinks_by_prefix(self):
        set_segment_scope("repro-test-sweep")
        try:
            segment = SharedSegment.create(64)
            assert segment.name.startswith("repro-test-sweep")
            segment.close(unlink=False)    # leak it on purpose
        finally:
            set_segment_scope("repro")
        assert unlink_scope("repro-test-sweep") >= 1
        with pytest.raises(ArrayStateError, match="does not exist"):
            SharedSegment.attach(segment.name)

    def test_stats_check_reports_open_mappings_by_name(self):
        release_pooled_segments()
        assert shared_segment_stats().check() == []
        store = SharedPlaneStore(1, rows=4, cols=64)
        name = store.segment_name
        problems = shared_segment_stats().check()
        assert any("still open" in p and name in p for p in problems)
        store.close(unlink=True)
        assert shared_segment_stats().check() == []

    def test_stats_check_reports_unreleased_pooled_segments(self):
        release_pooled_segments()
        store = SharedPlaneStore(1, rows=4, cols=64)
        store.close()                  # recycled, not unlinked
        problems = shared_segment_stats().check()
        assert any("release_pooled_segments" in p for p in problems)
        release_pooled_segments()
        assert shared_segment_stats().check() == []

    def test_stats_check_reports_unswept_files(self):
        release_pooled_segments()
        set_segment_scope("repro-test-leak")
        try:
            segment = SharedSegment.create(64)
            name = segment.name
            segment.close(unlink=False)    # leak: linked but unaccounted
            problems = shared_segment_stats().check()
            assert any("leaked" in p and name in p for p in problems)
        finally:
            set_segment_scope("repro")
            unlink_scope("repro-test-leak")
        assert shared_segment_stats().check() == []

    def test_invalid_scope_and_size_rejected(self):
        with pytest.raises(ArrayStateError, match="invalid segment scope"):
            set_segment_scope("has/slash")
        with pytest.raises(ArrayStateError, match="at least one byte"):
            SharedSegment.create(0)
