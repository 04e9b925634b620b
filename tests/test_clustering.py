"""Similarity aggregation, data-message handling, election and extraction."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdisim.clustering import (ClusterConfig, NeighborRecord, NeighborTable,
                               build_data_message, extract_clusters, handle_data_message,
                               is_similar, prune_ids)
from fdisim.domain import DataMessage

from conftest import bfs_clusters, elect_leaders, similar_graph, similar_table


def rec(ar, nr, ir=None, seen=0):
    return NeighborRecord(individual_reading=ir if ir is not None else ar,
                          aggregate_reading=ar, neighbor_count=nr, last_seen_round=seen)


def direct_aggregate(own, neighbors):
    """Weighted mean of the own reading and the neighbors' aggregates, each
    weighted by its count, summed from scratch."""
    num = float(own)
    den = 1.0
    for record in neighbors:
        num += record.aggregate_reading * record.neighbor_count
        den += record.neighbor_count
    return num / den


def test_aggregate_worked_examples():
    assert abs(similar_table([rec(15, 1), rec(18, 1)]).aggregate(16) - 49 / 3) < 1e-9
    assert similar_table([rec(16, 1)]).aggregate(15) == 15.5
    assert NeighborTable().aggregate(42) == 42


def test_aggregate_empty_is_identity():
    for own in (-3.5, 0.0, 16.0, 1e6):
        assert NeighborTable().aggregate(own) == own


def test_aggregate_weighted_mean_bounds():
    """Output always sits inside [min, max] of the inputs (1000 random cases)."""
    rng = random.Random(77)
    for _ in range(1000):
        own = rng.uniform(-100, 100)
        neighbors = [rec(rng.uniform(-100, 100), rng.randint(0, 5))
                     for _ in range(rng.randint(0, 8))]
        values = [own] + [n.aggregate_reading for n in neighbors]
        out = similar_table(neighbors).aggregate(own)
        assert min(values) - 1e-9 <= out <= max(values) + 1e-9


def test_is_similar_basic():
    cfg = ClusterConfig(cthresh=3.0)
    assert not is_similar(45.0, 45.0, 16.0, 49 / 3, cfg)
    assert is_similar(16.0, 16.0, 16.0, 16.0, cfg)


def test_is_similar_strict_boundary():
    cfg = ClusterConfig(cthresh=3.0)
    # exactly at the threshold on either side is dissimilar
    assert not is_similar(19.0, 16.0, 16.0, 16.0, cfg)
    assert not is_similar(16.0, 19.0, 16.0, 16.0, cfg)
    assert is_similar(18.999999, 16.0, 16.0, 16.0, cfg)


def test_handle_data_message_similar_and_dissimilar():
    cfg = ClusterConfig()
    table = NeighborTable()
    # close reading joins the similar set
    assert handle_data_message(table, DataMessage(1, 16.0, 16.0, 0), 15.0, cfg, 0)
    assert 1 in table.similar
    # a wildly off reading gets recorded but stays out
    assert not handle_data_message(table, DataMessage(2, 45.0, 45.0, 0), 15.0, cfg, 0)
    assert 2 in table.records and 2 not in table.similar


def test_handle_data_message_duplicate_is_idempotent():
    cfg = ClusterConfig()
    table = NeighborTable()
    msg = DataMessage(1, 16.0, 16.0, 2)
    handle_data_message(table, msg, 15.0, cfg, 0)
    agg_before = table.aggregate(15.0)
    similar_before = set(table.similar)
    handle_data_message(table, msg, 15.0, cfg, 1)
    assert table.aggregate(15.0) == agg_before
    assert table.similar == similar_before
    assert table.records[1].last_seen_round == 1


def test_handle_data_message_updates_similar_membership():
    cfg = ClusterConfig()
    table = NeighborTable()
    handle_data_message(table, DataMessage(1, 16.0, 16.0, 1), 15.0, cfg, 0)
    assert 1 in table.similar
    # same neighbor drifts away: dropped from the similar set, record kept
    handle_data_message(table, DataMessage(1, 40.0, 40.0, 1), 15.0, cfg, 1)
    assert 1 not in table.similar
    assert 1 in table.records
    assert table.aggregate(15.0) == 15.0


def test_incremental_aggregate_matches_direct_form():
    rng = random.Random(5)
    cfg = ClusterConfig(cthresh=8.0)
    table = NeighborTable()
    own = 16.0
    for step in range(300):
        sender = rng.randint(1, 12)
        reading = rng.uniform(10, 22)
        handle_data_message(table, DataMessage(sender, reading, rng.uniform(10, 22),
                                               rng.randint(0, 4)), own, cfg, step)
        direct = direct_aggregate(own, [table.records[i] for i in table.similar])
        assert abs(table.aggregate(own) - direct) < 1e-9


def test_build_data_message_lone_node():
    table = NeighborTable()
    msg = build_data_message(7, 16.0, table)
    assert (msg.individual_reading, msg.aggregate_reading, msg.neighbor_count) == (16.0, 16.0, 0)


def test_build_data_message_with_similar_neighbors():
    cfg = ClusterConfig()
    table = NeighborTable()
    handle_data_message(table, DataMessage(1, 15.0, 15.0, 1), 16.0, cfg, 0)
    handle_data_message(table, DataMessage(2, 18.0, 18.0, 1), 16.0, cfg, 0)
    msg = build_data_message(0, 16.0, table)
    assert abs(msg.aggregate_reading - 49 / 3) < 1e-9
    assert msg.neighbor_count == 2


def test_elect_leaders_max_and_ties():
    assert elect_leaders({10: 3, 11: 1, 12: 2}) == {10}
    assert elect_leaders({10: 3, 11: 3, 12: 2}) == {10, 11}
    assert elect_leaders({}) == set()


def test_elect_leaders_order_invariant():
    base = [(1, 4), (2, 2), (3, 4), (4, 1)]
    rng = random.Random(3)
    expected = elect_leaders(dict(base))
    for _ in range(20):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert elect_leaders(dict(shuffled)) == expected


def test_prune_stale_neighbors():
    cfg = ClusterConfig(neighbor_ttl_rounds=2)
    table = NeighborTable()
    handle_data_message(table, DataMessage(1, 16.0, 16.0, 0), 16.0, cfg, 3)
    handle_data_message(table, DataMessage(2, 16.0, 16.0, 0), 16.0, cfg, 10)
    prune_ids(table, [1, 2], 10, cfg)
    assert 1 not in table.records and 1 not in table.similar
    assert 2 in table.records


def test_prune_empty_table():
    table = NeighborTable()
    prune_ids(table, range(5), 5, ClusterConfig())
    assert not table.records


def test_prune_ids_matches_full_scan():
    """Given every id, prune_ids keeps exactly the records a full scan of
    the table finds within the TTL; ids it does not hold change nothing."""
    cfg = ClusterConfig(neighbor_ttl_rounds=3)
    rng = random.Random(11)
    table = NeighborTable()
    for sender in range(10):
        handle_data_message(table, DataMessage(sender, 16.0, 16.0, 0), 16.0, cfg,
                            rng.randint(0, 6))
    fresh = {nid for nid, record in table.records.items() if 8 - record.last_seen_round <= 3}
    assert 0 < len(fresh) < 10
    prune_ids(table, range(20), 8, cfg)
    assert table.records.keys() == fresh
    assert table.similar == fresh


def _oracle_components(similar_sets, excluded):
    """Brute-force mutual-edge components for cross-checking extract_clusters."""
    nodes = [n for n in similar_sets if n not in excluded]
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in nodes:
                if v in comp:
                    continue
                if v in similar_sets[u] and u in similar_sets[v]:
                    comp.add(v)
                    frontier.append(v)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return sorted((c for c in comps if len(c) >= 2), key=min)


def extract(sets, n, rnd=0, excluded=frozenset()):
    """extract_clusters over a fresh graph holding the given similar sets."""
    return extract_clusters(similar_graph(sets, n), rnd, excluded=excluded)


def test_extract_clusters_clique():
    sets = {i: {j for j in range(5) if j != i} for i in range(5)}
    snap = extract(sets, 5)
    assert snap.clusters == [(0, 1, 2, 3, 4)]
    assert snap.leaders == [(0, 1, 2, 3, 4)]


def test_extract_clusters_two_groups():
    sets = {0: {1}, 1: {0}, 2: {3, 4}, 3: {2, 4}, 4: {2, 3}, 5: set()}
    snap = extract(sets, 6, 1)
    assert snap.clusters == [(0, 1), (2, 3, 4)]
    assert all(5 not in members for members in snap.clusters)


def test_extract_clusters_requires_mutual_edges():
    # one-sided similarity must not link nodes
    sets = {0: {1}, 1: set(), 2: {3}, 3: {2}}
    snap = extract(sets, 4)
    assert snap.clusters == [(2, 3)]


def test_extract_clusters_excluded_node_never_appears():
    sets = {i: {j for j in range(4) if j != i} for i in range(4)}
    snap = extract(sets, 4, 2, excluded={1})
    assert snap.clusters == [(0, 2, 3)]


def test_extract_clusters_matches_bruteforce_oracle():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 14)
        sets = {i: set() for i in range(n)}
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.3:
                    sets[i].add(j)
        excluded = {i for i in range(n) if rng.random() < 0.15}
        snap = extract(sets, n, excluded=excluded)
        assert snap == bfs_clusters(sets, 0, excluded)
        assert snap.clusters == _oracle_components(sets, excluded)
        # disjointness and min size
        seen = set()
        for members in snap.clusters:
            assert len(members) >= 2
            assert not seen.intersection(members)
            seen.update(members)
        for members, leads in zip(snap.clusters, snap.leaders):
            assert set(leads) <= set(members)


def _oracle_leaders(similar_sets, cluster):
    counts = {m: len(similar_sets[m] & set(cluster)) for m in cluster}
    top = max(counts.values())
    return tuple(sorted(m for m, c in counts.items() if c == top))


@st.composite
def similarity_graphs(draw):
    """Similar sets over ids 0..n+2 keyed by a subset of them, so that
    edges can be one-sided and can point at ids missing from the mapping,
    plus an excluded set that may also name ids outside the mapping; and
    the id count."""
    n = draw(st.integers(min_value=0, max_value=12))
    ids = range(n + 3)
    keys = draw(st.sets(st.sampled_from(ids), max_size=n + 3))
    sets = {k: draw(st.sets(st.sampled_from(ids).filter(lambda v, k=k: v != k)))
            for k in keys}
    excluded = draw(st.sets(st.sampled_from(ids), max_size=4))
    return sets, excluded, n + 3


@settings(max_examples=300, deadline=None)
@given(similarity_graphs())
def test_extract_clusters_property_matches_bruteforce(graph):
    sets, excluded, n = graph
    snap = extract(sets, n, 7, excluded=excluded)
    expected = _oracle_components(sets, excluded)
    assert snap.round == 7
    assert snap.clusters == expected
    assert snap.leaders == [_oracle_leaders(sets, c) for c in expected]
    assert snap == bfs_clusters(sets, 7, excluded)


def test_graph_view_reads_the_flags():
    sets = {0: {1, 3}, 1: {0}, 3: {2}}
    graph = similar_graph(sets, 5)
    assert dict(graph.items()) == {0: {1, 3}, 1: {0}, 2: set(), 3: {2}, 4: set()}
    assert 5 not in graph and graph.get(-1) is None
    # a live view: a flag written in place shows at once
    graph.flag[2, 0] = True  # node 2's only neighbor is 3
    assert graph[2] == {3}


def test_slots_are_a_mapping_of_the_similar_sets():
    sets = {0: {1, 4}, 1: {0, 2}, 2: set(), 3: {2, 4}, 4: {0}}
    slots = similar_graph(sets, 5)
    assert dict(slots.items()) == sets
    assert len(slots) == 5
    for node in (-1, 5):
        with pytest.raises(KeyError):
            slots[node]


def test_no_mutual_edge_gives_no_cluster():
    snap = extract({0: {1}, 2: {1}, 3: set()}, 4, 3)
    assert snap.clusters == [] and snap.leaders == [] and snap.round == 3
    assert extract({}, 3) == bfs_clusters({}, 0)


def test_every_node_excluded_gives_no_cluster():
    sets = {i: {j for j in range(4) if j != i} for i in range(4)}
    assert extract(sets, 4, excluded=set(range(4))).clusters == []


def test_one_sided_flags_count_for_leaders_but_link_nothing():
    # 0-1 and 1-2 are mutual; 0 -> 2 is one-sided, so 0 counts two similar
    # neighbors in its cluster; 3 -> 2 links nothing
    sets = {0: {1, 2}, 1: {0, 2}, 2: {1}, 3: {2}}
    snap = extract(sets, 4)
    assert snap == bfs_clusters(sets, 0)
    assert snap.clusters == [(0, 1, 2)] and snap.leaders == [(0, 1)]


def test_unchanged_flags_and_excluded_reuse_the_snapshot():
    graph = similar_graph({0: {1}, 1: {0}, 2: {3}, 3: {2}}, 4)
    first = extract_clusters(graph, 0)
    again = extract_clusters(graph, 1, excluded=set())
    assert again.round == 1 and again.clusters is first.clusters
    assert graph.leaders_of(2) == (2, 3) and graph.leaders_of(0) == (0, 1)


def test_reuse_misses_when_only_excluded_changes():
    sets = {0: {1}, 1: {0}, 2: {3}, 3: {2}}
    graph = similar_graph(sets, 4)
    first = extract_clusters(graph, 0)
    second = extract_clusters(graph, 1, excluded={3})
    assert second.clusters is not first.clusters
    assert second == bfs_clusters(sets, 1, {3})
    assert graph.leaders_of(2) == ()
    # and back again, with the excluded set as it was
    assert extract_clusters(graph, 2) == bfs_clusters(sets, 2)


def test_reuse_misses_after_an_in_place_flag_change():
    sets = {0: {1}, 1: {0}, 2: {3}, 3: {2}}
    graph = similar_graph(sets, 4)
    extract_clusters(graph, 0)
    graph.flag[2, 0] = False  # 2 no longer holds 3
    snap = extract_clusters(graph, 1)
    assert snap == bfs_clusters({0: {1}, 1: {0}, 3: {2}}, 1)
    assert graph.leaders_of(3) == ()


# table operations: a message (new record or refresh, then a similarity
# verdict that adds or drops), an add of a held record to the similar set,
# a drop from it, or a removal
_IDS = st.integers(min_value=0, max_value=11)
_VALUES = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
_TABLE_OPS = st.lists(st.one_of(
    st.tuples(st.just("message"), _IDS, _VALUES, _VALUES, st.integers(0, 50)),
    st.tuples(st.just("add"), _IDS),
    st.tuples(st.just("drop"), _IDS),
    st.tuples(st.just("remove"), _IDS),
), max_size=200)


@settings(max_examples=200, deadline=None)
@given(_TABLE_OPS)
def test_running_sums_stay_within_rounding_of_recomputation(ops):
    """The incremental sums differ from a from-scratch sum over the similar
    set by no more than the roundings of the steps taken: at most four per
    step, each of at most one ulp of the largest magnitude a sum or term can
    reach. The count sum is a sum of small integers and stays exact."""
    cfg = ClusterConfig(cthresh=50.0)
    table = NeighborTable()
    magnitude = 100.0 * 50 * (12 + 2)
    eps = 2.0 ** -52
    for step, op in enumerate(ops, start=1):
        if op[0] == "message":
            _, sender, reading, aggregate, count = op
            handle_data_message(table, DataMessage(sender, reading, aggregate, count),
                                0.0, cfg, step)
        elif op[0] == "add":
            if op[1] in table.records:
                table.add_similar(op[1])
        elif op[0] == "drop":
            table.drop_similar(op[1])
        else:
            table.remove(op[1])
        similar = [table.records[i] for i in table.similar]
        direct_aw = sum(r.aggregate_reading * r.neighbor_count for r in similar)
        assert abs(table._sum_aw - direct_aw) <= 4 * step * eps * magnitude
        assert table._sum_w == sum(r.neighbor_count for r in similar)


def test_reuse_over_a_sequence_of_in_place_changes():
    """One graph extracted round after round while flags flip in place and
    the excluded set changes now and then: every snapshot and every node's
    leaders equal the traversal oracle's over the flags as they stand."""
    rng = random.Random(5)
    n = 12
    sets = {i: {j for j in range(n) if j != i and rng.random() < 0.5} for i in range(n)}
    graph = similar_graph(sets, n)
    # a padding cell's reverse is the cell itself
    real = list(zip(*np.nonzero(graph.rev != np.arange(graph.rev.size).reshape(graph.rev.shape))))
    excluded, last, reused = set(), None, 0
    for rnd in range(200):
        for _ in range(rng.choice((0, 0, 1, 2))):
            i, k = rng.choice(real)
            graph.flag[i, k] = not graph.flag[i, k]
        if rng.random() < 0.1:
            excluded = {i for i in range(n) if rng.random() < 0.1}
        snap = extract_clusters(graph, rnd, excluded=excluded)
        want = bfs_clusters(dict(graph.items()), rnd, excluded)
        assert snap == want
        lead = {m: leads for members, leads in zip(want.clusters, want.leaders) for m in members}
        assert [graph.leaders_of(i) for i in range(n)] == [lead.get(i, ()) for i in range(n)]
        reused += last is not None and snap.clusters is last.clusters
        last = snap
    assert 0 < reused < 200
