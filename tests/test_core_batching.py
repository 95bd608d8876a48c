"""Group-based message batching tests (the Section 4.4 arithmetic)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import GroupLayout
from repro.errors import ConfigError


def test_matrix_coordinates():
    g = GroupLayout(12, 4)  # 3 groups of 4
    assert g.num_groups == 3
    assert g.group_of(0) == 0 and g.group_of(5) == 1 and g.group_of(11) == 2
    assert g.member_of(5) == 1
    assert list(g.group_members(1)) == [4, 5, 6, 7]


def test_relay_is_destination_row_source_column():
    g = GroupLayout(16, 4)
    # src 1 = (row 0, col 1); dst 14 = (row 3, col 2) -> relay (row 3, col 1) = 13
    assert g.relay_for(1, 14) == 13


def test_relay_intra_group_is_source():
    g = GroupLayout(16, 4)
    # dst in the source's own group -> relay = source itself (stage two only).
    assert g.relay_for(5, 6) == 5


def test_relay_same_column_is_destination():
    g = GroupLayout(16, 4)
    # dst shares the source's column -> relay = destination.
    assert g.relay_for(1, 13) == 13


def test_relay_vectorised_matches_scalar():
    g = GroupLayout(20, 5)
    dsts = np.arange(20, dtype=np.int64)
    vec = g.relay_vectorised(3, dsts)
    assert vec.tolist() == [g.relay_for(3, int(d)) for d in dsts]


def test_connection_reduction_the_paper_quotes():
    """40,000 nodes as 200x200: connections drop 40,000 -> ~400; memory
    4 GB -> ~40 MB at 100 KB per connection (Section 4.4)."""
    g = GroupLayout(40_000, 200)
    direct = g.direct_connections()
    relay = g.relay_connections(12_345)
    assert direct == 39_999
    assert relay <= 200 + 200 - 1
    assert direct * 100_000 > 3.9e9
    assert relay * 100_000 < 41e6


def test_relay_connections_bound_holds_every_node():
    g = GroupLayout(64, 8)
    for node in range(64):
        assert g.relay_connections(node) <= 8 + 8 - 1
    # The one-group layout is direct routing: every other node is a group
    # mate, so the relay connection set is the direct one.
    one = GroupLayout(64, 64)
    for node in range(64):
        assert one.peers(node) == [p for p in range(64) if p != node]
        assert one.relay_connections(node) == one.direct_connections()


def test_ragged_final_group():
    g = GroupLayout(10, 4)  # groups of 4, 4, 2
    assert g.num_groups == 3
    assert g.group_size(2) == 2
    assert list(g.group_members(2)) == [8, 9]
    # Relay for a destination in the ragged group wraps the member index.
    r = g.relay_for(7, 9)  # member 3 wraps into a 2-node group
    assert g.group_of(r) == 2


def test_for_topology_uses_super_node_size():
    g = GroupLayout.for_topology(1024, 256)
    assert g.width == 256
    assert g.num_groups == 4
    small = GroupLayout.for_topology(8, 256)
    assert small.width == 8


def test_validation():
    with pytest.raises(ConfigError):
        GroupLayout(0, 1)
    with pytest.raises(ConfigError):
        GroupLayout(4, 8)
    g = GroupLayout(8, 4)
    with pytest.raises(ConfigError):
        g.group_of(8)
    with pytest.raises(ConfigError):
        g.group_size(5)


@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=40),
    st.data(),
)
def test_relay_properties(num_nodes, width, data):
    width = min(width, num_nodes)
    g = GroupLayout(num_nodes, width)
    src = data.draw(st.integers(0, num_nodes - 1))
    dst = data.draw(st.integers(0, num_nodes - 1))
    r = g.relay_for(src, dst)
    # The relay always lives in the destination's group...
    assert g.group_of(r) == g.group_of(dst)
    # ...and a two-hop path src -> r -> dst exists (both legs valid nodes).
    assert 0 <= r < num_nodes
    # Full groups preserve the source's column exactly.
    if g.group_size(g.group_of(dst)) == width:
        assert g.member_of(r) == g.member_of(src)
    # Relay routing never needs more connections than the bound.
    assert g.relay_connections(src) <= g.num_groups + width - 1
