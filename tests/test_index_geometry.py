"""Tests for MBR geometry and the disk-access model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.index.diskmodel import DiskAccessCounter
from repro.index.geometry import MBR


def box(lo, hi):
    return MBR(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


class TestMBRConstruction:
    def test_from_points_tight(self):
        pts = np.array([[0.0, 5.0], [2.0, 1.0], [1.0, 3.0]])
        b = MBR.from_points(pts)
        assert np.array_equal(b.lo, [0.0, 1.0])
        assert np.array_equal(b.hi, [2.0, 5.0])

    def test_from_points_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            MBR.from_points(np.empty((0, 2)))

    def test_lo_above_hi_rejected(self):
        with pytest.raises(ConfigurationError):
            box([1.0, 0.0], [0.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            MBR(np.zeros(2), np.zeros(3))



class TestMBRGeometry:
    def test_diagonal(self):
        b = box([0, 0], [3, 4])
        assert b.diagonal() == pytest.approx(5.0)

    def test_min_distance_inside_is_zero(self):
        assert box([0, 0], [2, 2]).min_distance(
            np.array([1.0, 1.0])
        ) == 0.0

    def test_min_distance_outside(self):
        assert box([0, 0], [1, 1]).min_distance(
            np.array([4.0, 5.0])
        ) == pytest.approx(5.0)

    def test_equality_and_hash(self):
        a = box([0, 0], [1, 1])
        b = box([0, 0], [1, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != box([0, 0], [1, 2])


class TestDiskAccessCounter:
    def test_unbuffered_counts_every_access(self):
        counter = DiskAccessCounter()
        for _ in range(3):
            counter.access(7)
        assert counter.physical_reads == 3
        assert counter.logical_reads == 3

    def test_buffer_absorbs_repeats(self):
        counter = DiskAccessCounter(buffer_pages=2)
        counter.access(1)
        counter.access(1)
        counter.access(1)
        assert counter.physical_reads == 1
        assert counter.logical_reads == 3

    def test_lru_eviction(self):
        counter = DiskAccessCounter(buffer_pages=2)
        counter.access(1)
        counter.access(2)
        counter.access(3)  # evicts 1
        counter.access(1)  # miss again
        assert counter.physical_reads == 4

    def test_lru_touch_refreshes(self):
        counter = DiskAccessCounter(buffer_pages=2)
        counter.access(1)
        counter.access(2)
        counter.access(1)  # refresh 1
        counter.access(3)  # evicts 2, not 1
        assert counter.access(1) is False  # hit

    def test_categories(self):
        counter = DiskAccessCounter()
        counter.access(1, "feedback")
        counter.access(2, "feedback")
        counter.access(3, "knn")
        snap = counter.snapshot()
        assert snap["reads[feedback]"] == 2
        assert snap["reads[knn]"] == 1

    def test_buffer_hits_attributed_per_category(self):
        """Logical per-category counts include buffer hits; physical
        counts do not."""
        counter = DiskAccessCounter(buffer_pages=4)
        counter.access(1, "feedback")
        counter.access(1, "feedback")  # buffer hit
        counter.access(1, "knn")       # hit, different category
        assert counter.per_category == {"feedback": 1}
        assert counter.per_category_logical == {
            "feedback": 2, "knn": 1
        }
        snap = counter.snapshot()
        assert snap["reads[feedback]"] == 1
        assert snap["logical_reads[feedback]"] == 2
        assert snap["logical_reads[knn]"] == 1

    def test_reset(self):
        counter = DiskAccessCounter(buffer_pages=2)
        counter.access(1, "knn")
        counter.reset()
        assert counter.physical_reads == 0
        assert counter.logical_reads == 0
        assert counter.per_category == {}
        assert counter.per_category_logical == {}
        assert counter.snapshot() == {
            "physical_reads": 0, "logical_reads": 0, "bytes_read": 0
        }
