"""Tests for the extended RDD API (max, min)."""


class TestNumericActions:

    def test_max_min(self, ctx):
        rdd = ctx.parallelize([3, -1, 7, 2], 3)
        assert rdd.max() == 7
        assert rdd.min() == -1
