"""Oracle testing: random transformation chains vs a pure-Python model.

A hypothesis-driven sequence of RDD transformations is applied in
parallel to (a) the engine and (b) a plain Python list. After every
action the two must agree — the strongest correctness net over the
narrow/shuffle machinery, alignment, caching, and partitioner routing.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf


def fresh_ctx():
    return AnalyticsContext(
        uniform_cluster(n_workers=2, cores=2), EngineConf(default_parallelism=4)
    )


# Each op transforms (rdd, pyvalues) in lockstep. All records stay
# (int, int) pairs so every pair op is applicable at any point.
def op_map_values(rdd, vals):
    return (
        rdd.map_values(lambda v: v * 2 - 1),
        [(k, v * 2 - 1) for k, v in vals],
    )


def op_filter(rdd, vals):
    return (
        rdd.filter(lambda kv: kv[1] % 3 != 0),
        [(k, v) for k, v in vals if v % 3 != 0],
    )


def op_rekey(rdd, vals):
    return (
        rdd.map(lambda kv: (kv[1] % 5, kv[0])),
        [(v % 5, k) for k, v in vals],
    )


def op_reduce_by_key(rdd, vals):
    acc = {}
    for k, v in vals:
        acc[k] = acc.get(k, 0) + v
    return (rdd.reduce_by_key(lambda a, b: a + b, 3), sorted(acc.items()))


def op_repartition(rdd, vals):
    return (rdd.repartition(5), list(vals))


def op_cache(rdd, vals):
    return (rdd.cache(), list(vals))


def op_union_self(rdd, vals):
    return (rdd.union(rdd.map_values(lambda v: v + 100)),
            list(vals) + [(k, v + 100) for k, v in vals])


def op_distinct(rdd, vals):
    return (rdd.distinct(3), sorted(set(vals)))


OPS = [
    op_map_values,
    op_filter,
    op_rekey,
    op_reduce_by_key,
    op_repartition,
    op_cache,
    op_union_self,
    op_distinct,
]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.lists(
        st.tuples(st.integers(0, 9), st.integers(-20, 20)),
        min_size=0, max_size=40,
    ),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=6),
    parts=st.integers(1, 6),
)
def test_random_chains_match_python_oracle(data, ops, parts):
    ctx = fresh_ctx()
    rdd = ctx.parallelize(data, parts)
    vals = list(data)
    for op in ops:
        rdd, vals = op(rdd, vals)
    assert sorted(rdd.collect()) == sorted(vals)
    # count agrees too (and exercises a second job over the same graph,
    # including shuffle reuse).
    assert rdd.count() == len(vals)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.lists(
        st.tuples(st.integers(0, 6), st.integers(-10, 10)),
        min_size=1, max_size=30,
    ),
    ops_a=st.lists(st.sampled_from(OPS[:5]), min_size=0, max_size=3),
    ops_b=st.lists(st.sampled_from(OPS[:5]), min_size=0, max_size=3),
)
def test_random_joins_match_python_oracle(data, ops_a, ops_b):
    ctx = fresh_ctx()
    left, lvals = ctx.parallelize(data, 3), list(data)
    right, rvals = ctx.parallelize(data[::-1], 2), list(data[::-1])
    for op in ops_a:
        left, lvals = op(left, lvals)
    for op in ops_b:
        right, rvals = op(right, rvals)

    joined = left.join(right, 3).collect()

    expected = []
    rmap = {}
    for k, v in rvals:
        rmap.setdefault(k, []).append(v)
    for k, v in lvals:
        for rv in rmap.get(k, []):
            expected.append((k, (v, rv)))
    assert sorted(joined) == sorted(expected)
