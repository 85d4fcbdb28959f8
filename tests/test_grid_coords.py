"""Unit and property tests for triangular grid coordinates."""

import json
import logging
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.coords import Node, grid_distance, parallelogram_nodes
from repro.grid.directions import Axis, Direction
from repro.obs.logs import JsonLogFormatter

coords = st.integers(min_value=-50, max_value=50)
nodes = st.builds(Node, coords, coords)


class TestNodeBasics:
    def test_six_neighbors(self):
        u = Node(0, 0)
        assert len(u.neighbors()) == 6
        assert len(set(u.neighbors())) == 6

    def test_neighbor_direction_roundtrip(self):
        u = Node(3, -2)
        for d in Direction:
            v = u.neighbor(d)
            assert u.direction_to(v) == d

    def test_adjacency_symmetry(self):
        u = Node(0, 0)
        for v in u.neighbors():
            assert u.is_adjacent(v)
            assert v.is_adjacent(u)

    def test_not_adjacent_to_self(self):
        assert not Node(1, 1).is_adjacent(Node(1, 1))

    def test_ordering_and_hash(self):
        assert Node(0, 0) < Node(1, 0)
        assert len({Node(1, 2), Node(1, 2)}) == 1

    def test_iter_unpacking(self):
        x, y = Node(4, 5)
        assert (x, y) == (4, 5)

    def test_cartesian_y_spacing(self):
        _x0, y0 = Node(0, 0).cartesian()
        _x1, y1 = Node(0, 1).cartesian()
        assert y1 - y0 == pytest.approx(math.sqrt(3) / 2)


class TestNodeValueContract:
    """``Node`` is a tuple; these pin what callers may rely on."""

    @given(coords, coords)
    def test_hash_is_the_plain_pair_hash(self, x, y):
        # The frozen dataclass hashed (x, y) too: set and dict iteration
        # orders -- and with them round totals and forests -- depend on it.
        assert hash(Node(x, y)) == hash((x, y))

    @given(nodes, nodes)
    def test_ordering_is_lexicographic(self, u, v):
        assert (u < v) == ((u.x, u.y) < (v.x, v.y))
        assert (u <= v) == ((u.x, u.y) <= (v.x, v.y))

    def test_sorted(self):
        assert sorted([Node(1, 0), Node(0, 5), Node(0, -1)]) == [
            Node(0, -1),
            Node(0, 5),
            Node(1, 0),
        ]

    def test_repr(self):
        assert repr(Node(3, -2)) == "Node(3, -2)"
        assert str(Node(0, 0)) == "Node(0, 0)"

    def test_keyword_construction(self):
        assert Node(x=1, y=2) == Node(1, 2)
        assert Node(y=2, x=1).y == 2

    def test_equals_plain_pair(self):
        assert Node(1, 2) == (1, 2)
        assert {Node(1, 2): "a"}[(1, 2)] == "a"
        assert len(Node(1, 2)) == 2

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        u = Node(-7, 11)
        back = pickle.loads(pickle.dumps(u, protocol=protocol))
        assert back == u and type(back) is Node

    def test_immutable(self):
        u = Node(1, 2)
        with pytest.raises(AttributeError):
            u.x = 5
        with pytest.raises(AttributeError):
            u.z = 0  # no instance __dict__

    def test_json_encodes_as_pair(self):
        assert json.dumps({"node": Node(3, -1)}) == '{"node": [3, -1]}'

    def test_json_log_line_renders_node_as_pair(self):
        # ``default=str`` never fires for a tuple: the daemon's JSON logs
        # carry a node as ``[x, y]``, not as the string "Node(x, y)".
        record = logging.LogRecord("repro.test", logging.INFO, __file__, 1, "m", (), None)
        record.node = Node(3, -1)
        line = JsonLogFormatter().format(record)
        assert '"node": [3, -1]' in line
        assert json.loads(line)["node"] == [3, -1]

    def test_direction_to_rejects_non_neighbors(self):
        with pytest.raises(ValueError, match=r"nodes \(0, 0\) and \(2, 0\) are not adjacent"):
            Node(0, 0).direction_to(Node(2, 0))
        with pytest.raises(ValueError):
            Node(0, 0).direction_to(Node(0, 0))


class TestAxisCoordinate:
    def test_x_lines_have_constant_y(self):
        u = Node(2, 3)
        v = u.neighbor(Direction.E)
        assert u.axis_coordinate(Axis.X) == v.axis_coordinate(Axis.X)

    def test_y_lines_have_constant_x(self):
        u = Node(2, 3)
        v = u.neighbor(Direction.NE)
        assert u.axis_coordinate(Axis.Y) == v.axis_coordinate(Axis.Y)

    def test_z_lines_have_constant_sum(self):
        u = Node(2, 3)
        v = u.neighbor(Direction.NW)
        assert u.axis_coordinate(Axis.Z) == v.axis_coordinate(Axis.Z)

    @given(nodes)
    def test_moving_along_axis_preserves_coordinate(self, u):
        for axis in Axis:
            for d in axis.directions:
                assert u.neighbor(d).axis_coordinate(axis) == u.axis_coordinate(axis)

    @given(nodes)
    def test_moving_off_axis_changes_coordinate(self, u):
        for axis in Axis:
            for d in Direction:
                if d.axis is axis:
                    continue
                assert u.neighbor(d).axis_coordinate(axis) != u.axis_coordinate(axis)


class TestGridDistance:
    def test_zero_distance(self):
        assert grid_distance(Node(3, 4), Node(3, 4)) == 0

    def test_neighbors_distance_one(self):
        u = Node(0, 0)
        for v in u.neighbors():
            assert grid_distance(u, v) == 1

    @given(nodes, nodes)
    def test_symmetry(self, u, v):
        assert grid_distance(u, v) == grid_distance(v, u)

    @given(nodes, nodes, nodes)
    @settings(max_examples=60)
    def test_triangle_inequality(self, u, v, w):
        assert grid_distance(u, w) <= grid_distance(u, v) + grid_distance(v, w)

    @given(nodes, nodes)
    def test_one_step_changes_distance_by_one(self, u, v):
        if u == v:
            return
        # Some neighbor of v is strictly closer to u.
        assert min(grid_distance(u, w) for w in v.neighbors()) == grid_distance(u, v) - 1


class TestParallelogramNodes:
    def test_count(self):
        assert len(parallelogram_nodes(4, 3)) == 12

    def test_invalid(self):
        with pytest.raises(ValueError):
            parallelogram_nodes(0, 3)
