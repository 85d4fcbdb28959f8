"""Property tests for the flat grid index (``repro.grid.compiled``).

The :class:`GridIndex` arrays must agree with the independent,
dict-based adjacency queries of :class:`AmoebotStructure` on arbitrary
structures — including after arbitrary (validated) dynamics edit
batches, where the index is *derived* rather than rebuilt and every
surviving node keeps its integer id.
"""

from __future__ import annotations

import gc
import random
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.edits import StructureEditor, generate_churn
from repro.grid.compiled import GRID_STATS, GridIndex
from repro.grid.coords import Node
from repro.grid.directions import Axis, Direction, all_directions_ccw
from repro.grid.structure import AmoebotStructure
from repro.portals.portals import Portal
from repro.portals.primitives import portal_runs_key
from repro.sim.engine import CircuitEngine
from repro.workloads import random_hole_free


def assert_index_matches(structure: AmoebotStructure, index: GridIndex) -> None:
    """The index arrays agree with the structure's dict-based queries."""
    assert len(index) == len(structure)
    live = 0
    for nid in range(index.n_slots):
        node = index.nodes[nid]
        if node is None:
            # Tombstone: fully cleared.
            assert all(index.nbr[nid * 6 + d] == -1 for d in range(6))
            assert index.deg[nid] == 0
            continue
        live += 1
        assert node in structure
        assert index.id_of(node) == nid
        # Neighbor row vs AmoebotStructure.neighbors (independent path:
        # the structure filters node.neighbors() against its node set).
        expected = structure.neighbors(node)
        row = [
            index.nodes[index.nbr[nid * 6 + int(d)]]
            for d in all_directions_ccw()
            if index.nbr[nid * 6 + int(d)] >= 0
        ]
        assert tuple(row) == expected
        # Degree and boundary vs occupied_directions/degree.
        directions = structure.occupied_directions(node)
        assert index.deg[nid] == structure.degree(node) == len(directions)
        assert index.occupied_direction_values(nid) == [int(d) for d in directions]
        assert bool(index.boundary[nid]) == (structure.degree(node) < 6)
    assert live == len(structure)
    # Mirror-edge table: every present edge points back at itself.
    mate = index.mate_edges()
    for e in range(len(mate)):
        if mate[e] >= 0:
            assert index.nbr[e] == mate[e] // 6
            assert mate[mate[e]] == e


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_fresh_index_matches_structure(seed):
    rng = random.Random(seed)
    structure = random_hole_free(rng.randint(1, 60), seed=seed)
    assert_index_matches(structure, structure.grid_index())


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None)
def test_index_ids_are_canonical_for_equal_node_sets(seed):
    structure = random_hole_free(30, seed=seed)
    other = AmoebotStructure(set(structure.nodes))
    a, b = structure.grid_index(), other.grid_index()
    assert a.nodes == b.nodes  # sorted order => identical id assignment
    assert a.nbr == b.nbr
    assert bytes(a.deg) == bytes(b.deg)


@given(
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from(["growth", "erosion", "mixed", "block_move"]),
)
@settings(max_examples=20, deadline=None)
def test_derived_index_matches_after_churn(seed, kind):
    rng = random.Random(seed)
    structure = random_hole_free(rng.randint(8, 40), seed=seed)
    structure.grid_index()  # force the basis index so edits derive it
    script = generate_churn(
        structure, kind=kind, steps=3, batch_size=rng.randint(1, 4), seed=seed
    )
    editor = StructureEditor(structure)
    current = structure
    builds_before = GRID_STATS.full_builds
    for batch in script:
        previous = current
        id_snapshot = {
            u: current.grid_index().id_of(u)
            for u in current.nodes
            if u not in set(batch.remove)
        }
        editor.apply(batch)
        current = editor.structure(
            basis=previous, dirty=tuple(batch.remove) + tuple(batch.add)
        )
        index = current.grid_index()
        assert_index_matches(current, index)
        # Ids of surviving nodes are stable across the derive.
        for u, nid in id_snapshot.items():
            assert index.id_of(u) == nid
        # Departed nodes stay resolvable until re-added.
        for u in batch.remove:
            assert index.id_of(u) is None
            assert index.slot_of(u) is not None
        assert index.root is structure.grid_index().root
    # Churn never re-indexed from scratch.
    assert GRID_STATS.full_builds == builds_before


def test_single_node_and_full_ring():
    lone = AmoebotStructure([Node(0, 0)])
    index = lone.grid_index()
    assert len(index) == 1
    assert index.deg[0] == 0
    assert index.boundary[0] == 1

    ring = AmoebotStructure([Node(0, 0)] + Node(0, 0).neighbors())
    center = ring.grid_index().id_of(Node(0, 0))
    assert ring.grid_index().deg[center] == 6
    assert ring.grid_index().boundary[center] == 0


def test_mate_edges_rebuilt_after_derive():
    structure = AmoebotStructure([Node(0, 0), Node(1, 0)])
    index = structure.grid_index()
    mate = index.mate_edges()
    e = index.id_of(Node(0, 0)) * 6 + int(Direction.E)
    assert mate[e] == index.id_of(Node(1, 0)) * 6 + int(Direction.W)
    derived = index.derive(added=[Node(2, 0)], removed=[])
    fresh = derived.mate_edges()
    e2 = derived.id_of(Node(1, 0)) * 6 + int(Direction.E)
    assert fresh[e2] == derived.id_of(Node(2, 0)) * 6 + int(Direction.W)


# ----------------------------------------------------------------------
# reference cycles: indexes are freed by reference counting alone
# ----------------------------------------------------------------------

LINE = [Node(x, 0) for x in range(5)]
GROWN = LINE + [Node(5, 0)]


def derived_line() -> AmoebotStructure:
    """A from-scratch 5-cell line, grown by one cell through a derive."""
    basis = AmoebotStructure(LINE)
    basis.grid_index()
    return AmoebotStructure.from_validated(GROWN, basis=basis, dirty=[Node(5, 0)])


def test_indexes_are_freed_without_the_cyclic_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        structure = AmoebotStructure(LINE)
        index = structure.grid_index()
        index.mate_edges()
        grown = AmoebotStructure.from_validated(
            GROWN, basis=structure, dirty=[Node(5, 0)]
        )
        derived = grown.grid_index()
        assert not derived.canonical
        refs = [weakref.ref(index), weakref.ref(derived)]
        del structure, index, grown, derived
        assert [ref() for ref in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_derive_chain_shares_one_root_and_fresh_indexes_do_not():
    index = GridIndex(LINE)
    derived = index.derive(added=[Node(5, 0)], removed=[])
    again = derived.derive(added=[], removed=[Node(0, 0)])
    assert derived.root is index.root and again.root is index.root
    assert GridIndex(LINE).root is not index.root


def test_portal_runs_keys_never_collide_across_derive_chains():
    def key(structure):
        portal = Portal(Axis.X, tuple(sorted(structure.nodes)))
        return portal_runs_key(CircuitEngine(structure), [(Axis.X, portal)])

    # Canonical (from-scratch) indexes may share keys across structures.
    assert key(AmoebotStructure(GROWN)) == key(AmoebotStructure(GROWN))
    # Derived ids are chain-local: equal node sets, distinct keys — even
    # once the first chain is freed and its memory could be reused.
    first = key(derived_line())
    assert first != key(derived_line())
