"""Tree primitives lifted to portal graphs (Section 3.5).

All information flows through the node-level ETT on the *implicit*
portal tree: by Lemma 32 the portal-graph prefix difference between
adjacent portals equals the node-level difference across their unique
connector edge.  What remains is intra-portal communication:

* portal circuits (each portal fuses its portal-internal pins, Fig. 4a)
  broadcast membership bits in one round;
* the parent direction is announced on per-directed-edge circuits
  (Fig. 4b) in one further round — charged explicitly;
* ``T_Q``-degrees are counted by PASC prefix sums along each portal
  (Lemma 34).  An amoebot has at most one north-side and one south-side
  connector role (the local tree rule picks at most one of NW/NE and one
  of SW/SE), so two parallel chains per portal avoid the paper's
  "simulate two amoebots" device while counting the same participants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Direction
from repro.ett.election import ElectionRequest, elect_first_marked_many
from repro.ett.technique import ETTOp, ETTResult, mark_one_outgoing_edge
from repro.ett.tour import EulerTour, build_euler_tour
from repro.pasc.chain import PascChainRun, chain_links_for_nodes
from repro.pasc.runner import run_pasc
from repro.portals.portals import Portal, PortalSystem
from repro.sim.engine import CircuitEngine

PORTAL_CIRCUIT_CHANNEL = 4  # portal-internal broadcast wire
# Two PASC pairs for degree counting; the ETT channels (0-3) are free
# again by the time the counting layout is built.
PORTAL_COUNT_CHANNELS = (0, 1, 2, 3)


@dataclass
class PortalRootPruneResult:
    """Portal-level root and prune outcome (Lemma 33 / 34)."""

    root: Portal
    in_vq: Set[Portal]
    parent: Dict[Portal, Portal]
    degree_q: Dict[Portal, int]
    augmentation: Set[Portal]
    q_size: int
    ett: ETTResult


class PortalScope:
    """A connected set of portals with its restricted implicit tree.

    The primitives all run either on the whole portal tree or on a
    connected portal subtree (the decomposition's recursions, the forest
    algorithm's regions); this helper owns the restriction plumbing.
    """

    def __init__(self, system: PortalSystem, portals: Optional[Iterable[Portal]] = None):
        self.system = system
        if portals is None:
            # Whole-system scope: no filtering needed — adopt the
            # system's adjacency structures verbatim (read-only).
            self.portals = set(system.portals)
            self.nodes: Set[Node] = set(system.structure.nodes)
            self.adjacency: Dict[Node, List[Node]] = system.implicit_adjacency
            self.portal_adjacency: Dict[Portal, List[Portal]] = (
                system.portal_adjacency
            )
        else:
            self.portals = set(portals)
            unknown = self.portals.difference(system.portals)
            if unknown:
                raise ValueError("scope contains portals of a different system")
            self.nodes = set()
            for p in self.portals:
                self.nodes.update(p.nodes)
            self.adjacency = {
                u: [v for v in system.implicit_adjacency[u] if v in self.nodes]
                for u in self.nodes
            }
            self.portal_adjacency = {
                p: [q for q in system.portal_adjacency[p] if q in self.portals]
                for p in self.portals
            }
        self._circuit_edges: Optional[List[Tuple[Node, Node]]] = None
        self._circuit_key: Optional[Tuple] = None

    def tour(self, root_portal: Portal) -> EulerTour:
        """Euler tour of the scope's implicit tree, rooted at the portal's representative."""
        if root_portal not in self.portals:
            raise ValueError("root portal outside the scope")
        return build_euler_tour(root_portal.representative, self.adjacency)

    def representatives(self, portals: Iterable[Portal]) -> List[Node]:
        """Representative amoebots of the given portals."""
        return [p.representative for p in portals]

    def portal_circuit_layout(self, engine: CircuitEngine, label: str = "portal"):
        """One circuit per portal: its internal (axis-parallel) edges.

        The edge list is computed once per scope and the layout itself
        is memoized by the engine's cache under a run-shaped key — one
        ``(representative id, length)`` pair per portal instead of one
        coordinate pair per edge, so repeated per-label broadcasts cost
        one small frozenset lookup each.
        """
        if self._circuit_edges is None:
            edges: List[Tuple[Node, Node]] = []
            for p in self.portals:
                for u, v in zip(p.nodes, p.nodes[1:]):
                    edges.append((u, v))
            self._circuit_edges = edges
        key = self._circuit_key
        if key is None:
            key = self._circuit_key = portal_runs_key(
                engine, ((self.system.axis, p) for p in self.portals)
            )
        return engine.edge_subset_layout(
            self._circuit_edges,
            label=label,
            channel=PORTAL_CIRCUIT_CHANNEL,
            key=key,
        )


def portal_runs_key(
    engine: CircuitEngine, runs: Iterable[Tuple[object, Portal]]
) -> Tuple:
    """A cheap canonical cache key for a set of portal runs.

    A portal is a maximal contiguous run of grid cells, so ``(axis,
    representative id, length)`` triples — ids taken from the *engine
    structure's* grid index — uniquely name its edge set without
    hashing per-edge coordinate pairs.  From-scratch indexes assign
    ids canonically (sorted node order), so these keys may be shared
    across equal structures (the campaign workers' node-set-scoped
    layout cache relies on that); *derived* indexes (churn) are not
    canonical, so their keys carry the index's root token itself (not
    its ``id()``, which a later chain could reuse once this one is
    freed) and never collide across derive chains.  Used to key
    :meth:`CircuitEngine.edge_subset_layout` for portal circuits (here
    and in the propagation algorithm).
    """
    index = engine.structure.grid_index()
    id_of = index.id_of
    return (
        "pruns",
        None if index.canonical else index.root,
        frozenset(
            (int(axis), id_of(p.representative), len(p.nodes))
            for axis, p in runs
        ),
    )


def _portal_diffs(
    scope: PortalScope, ett: ETTResult
) -> Dict[Tuple[Portal, Portal], int]:
    """Portal-graph prefix differences via connector edges (Lemma 32)."""
    diffs: Dict[Tuple[Portal, Portal], int] = {}
    for p in scope.portals:
        for q in scope.portal_adjacency[p]:
            u, v = scope.system.connector[(p, q)]
            diffs[(p, q)] = ett.diff(u, v)
    return diffs


class PortalRootPruneOp:
    """Portal root and prune, exposable to the parallel runner."""

    def __init__(
        self,
        scope: PortalScope,
        root_portal: Portal,
        q_portals: Iterable[Portal],
        tag: str = "prp",
    ):
        self.scope = scope
        self.root = root_portal
        self.q_portals = set(q_portals)
        unknown = self.q_portals.difference(scope.portals)
        if unknown:
            raise ValueError("Q contains portals outside the scope")
        self.tour = scope.tour(root_portal)
        marked = mark_one_outgoing_edge(
            self.tour, scope.representatives(self.q_portals)
        )
        self.ett_op = ETTOp(self.tour, marked, tag=tag)

    def result(self) -> PortalRootPruneResult:
        """Decode portal-level results once the ETT has finished."""
        ett = self.ett_op.result()
        scope = self.scope
        q_size = ett.total if self.tour.edges else len(self.q_portals)
        diffs = _portal_diffs(scope, ett)
        in_vq: Set[Portal] = set()
        parent: Dict[Portal, Portal] = {}
        degree_q: Dict[Portal, int] = {}
        for p in scope.portals:
            nonzero = [q for q in scope.portal_adjacency[p] if diffs[(p, q)] != 0]
            if p == self.root:
                if q_size > 0:
                    in_vq.add(p)
                    degree_q[p] = len(nonzero)
            elif nonzero:
                in_vq.add(p)
                degree_q[p] = len(nonzero)
                parents = [q for q in scope.portal_adjacency[p] if diffs[(p, q)] > 0]
                if len(parents) != 1:
                    raise AssertionError("inconsistent portal prefix differences")
                parent[p] = parents[0]
        augmentation = {p for p, d in degree_q.items() if d >= 3}
        return PortalRootPruneResult(
            root=self.root,
            in_vq=in_vq,
            parent=parent,
            degree_q=degree_q,
            augmentation=augmentation,
            q_size=q_size,
            ett=ett,
        )


def _membership_broadcast(
    engine: CircuitEngine, scope: PortalScope, result: PortalRootPruneResult
) -> None:
    """Fig. 4a/4b rounds: announce V_Q membership and parent direction.

    The membership beep is executed on real portal circuits; the parent
    announcement runs on the per-directed-edge circuits of Fig. 4b,
    which carry one beep each — charged as one more round.
    """
    layout = scope.portal_circuit_layout(engine)
    index = layout.compiled().index
    beeps = index.indices(
        ((p.nodes[0], "portal") for p in result.in_vq), "beep on"
    )
    # The simulator already knows the outcome through `result`; the round
    # is executed for its cost, so nothing needs to be materialized.
    engine.run_round_indexed(layout, beeps, ())
    engine.charge_local_round()  # parent-direction beeps (Fig. 4b)


def portal_root_and_prune(
    engine: CircuitEngine,
    system: PortalSystem,
    root_portal: Portal,
    q_portals: Iterable[Portal],
    scope: Optional[PortalScope] = None,
    compute_augmentation: bool = False,
    section: str = "portal_root_prune",
) -> PortalRootPruneResult:
    """Root the portal tree, prune, optionally compute ``A_Q`` (Lemma 33/34).

    ``O(log |Q|)`` rounds.
    """
    if scope is None:
        scope = PortalScope(system)
    op = PortalRootPruneOp(scope, root_portal, q_portals)
    with engine.rounds.section(section):
        if op.ett_op.chain is not None:
            run_pasc(engine, [op.ett_op.chain], section=f"{section}:ett")
        result = op.result()
        _membership_broadcast(engine, scope, result)
        if compute_augmentation:
            _count_degrees(engine, scope, result, section=section)
    return result


def _count_degrees(
    engine: CircuitEngine,
    scope: PortalScope,
    result: PortalRootPruneResult,
    section: str,
) -> None:
    """Recount ``deg_Q`` by PASC prefix sums along the portals (Lemma 34).

    The counts are already known to the simulator through ``result``;
    this runs the actual portal-chain PASC so the *round cost* of the
    degree computation is the real one, and cross-checks the counts.
    """
    diffs = _portal_diffs(scope, result.ett)
    runs: List[PascChainRun] = []
    expected: List[Tuple[Portal, int]] = []
    for p in scope.portals:
        if p not in result.in_vq:
            continue
        nodes = list(p.nodes)
        if len(nodes) < 2:
            continue  # single-amoebot portal counts its roles locally
        north_roles: Set[Node] = set()
        south_roles: Set[Node] = set()
        for q in scope.portal_adjacency[p]:
            if diffs[(p, q)] == 0:
                continue
            u, v = scope.system.connector[(p, q)]
            side = north_roles if _is_north_side(scope.system, u, v) else south_roles
            if u in side:
                raise AssertionError("two same-side connector roles at one amoebot")
            side.add(u)
        pch, sch, pch2, sch2 = PORTAL_COUNT_CHANNELS
        links_n = chain_links_for_nodes(nodes, pch, sch)
        links_s = chain_links_for_nodes(nodes, pch2, sch2)
        wn = [1 if u in north_roles else 0 for u in nodes]
        ws = [1 if u in south_roles else 0 for u in nodes]
        runs.append(PascChainRun([(u, "n") for u in nodes], links_n, weights=wn, tag="degN"))
        runs.append(PascChainRun([(u, "s") for u in nodes], links_s, weights=ws, tag="degS"))
        expected.append((p, len(north_roles) + len(south_roles)))
    if runs:
        run_pasc(engine, runs, section=f"{section}:degrees")
        for (p, want), run_n, run_s in zip(expected, runs[0::2], runs[1::2]):
            got = (
                run_n.inclusive_values()[run_n.units[-1]]
                + run_s.inclusive_values()[run_s.units[-1]]
            )
            if got != want:
                raise AssertionError(f"portal degree recount mismatch for {p}")
    # One more round: portals with degree >= 3 announce membership in A_Q
    # on their portal circuits.
    layout = scope.portal_circuit_layout(engine, label="portal:aq")
    beeps = layout.compiled().index.indices(
        ((p.nodes[-1], "portal:aq") for p in result.augmentation), "beep on"
    )
    engine.run_round_indexed(layout, beeps, ())


def _is_north_side(system: PortalSystem, u: Node, v: Node) -> bool:
    """Whether connector edge u->v leaves on the rotated-north side."""
    d = u.direction_to(v)
    return d in (system.rotate(Direction.NW), system.rotate(Direction.NE))


def portal_elect(
    engine: CircuitEngine,
    system: PortalSystem,
    root_portal: Portal,
    q_portals: Iterable[Portal],
    scope: Optional[PortalScope] = None,
    section: str = "portal_election",
) -> Portal:
    """Elect one portal of ``Q`` in ``O(1)`` rounds (Lemma 35).

    The simplified ETT elects an amoebot among the representatives of
    ``Q``; one portal-circuit beep announces the portal it belongs to.
    """
    candidates = set(q_portals)
    if not candidates:
        raise ValueError("portal election requires candidates")
    if scope is None:
        scope = PortalScope(system)
    if len(scope.nodes) == 1 or len(scope.portals) == 1:
        if len(candidates) != 1 and len(scope.portals) == 1:
            pass  # a single portal can only elect itself anyway
        return next(iter(candidates))
    tour = scope.tour(root_portal)
    marked = mark_one_outgoing_edge(tour, scope.representatives(candidates))
    with engine.rounds.section(section):
        winners = elect_first_marked_many(
            engine, [ElectionRequest(tour, marked)], section=f"{section}:ett"
        )
        winner_portal = system.portal_of[winners[0]]
        # Announce the winning portal on its portal circuit.
        layout = scope.portal_circuit_layout(engine, label="portal:won")
        engine.run_round_indexed(
            layout,
            (layout.compiled().index.index_of((winners[0], "portal:won"), "beep on"),),
            (),
        )
    return winner_portal


class PortalCentroidOp:
    """Portal Q-centroid computation (Lemma 36), batched-runner ready."""

    def __init__(self, scope: PortalScope, root_portal: Portal, q_portals: Iterable[Portal]):
        self.scope = scope
        self.q_portals = set(q_portals)
        if not self.q_portals:
            raise ValueError("Q must be non-empty for the centroid primitive")
        self.phase1 = PortalRootPruneOp(scope, root_portal, self.q_portals, tag="pc1")
        self.phase2: Optional[ETTOp] = None
        self._rp: Optional[PortalRootPruneResult] = None

    def prepare_phase2(self) -> None:
        """Decode phase 1 and build the second ETT."""
        self._rp = self.phase1.result()
        marked = mark_one_outgoing_edge(
            self.phase1.tour, self.scope.representatives(self.q_portals)
        )
        self.phase2 = ETTOp(self.phase1.tour, marked, tag="pc2")

    def centroids(self) -> Set[Portal]:
        """The portal Q-centroids, from both phases' prefix sums."""
        if self.phase2 is None or self._rp is None:
            raise RuntimeError("run both phases before reading centroids")
        rp = self._rp
        ett = self.phase2.result()
        if not self.phase1.tour.edges:
            return set(self.q_portals)
        diffs = _portal_diffs(self.scope, ett)
        q_size = rp.q_size
        result: Set[Portal] = set()
        for p in self.q_portals:
            ok = True
            for q in self.scope.portal_adjacency[p]:
                if rp.parent.get(p) == q:
                    size = q_size - diffs[(p, q)]
                else:
                    size = diffs[(q, p)]
                if 2 * size > q_size:
                    ok = False
                    break
            if ok:
                result.add(p)
        return result


def portal_centroids(
    engine: CircuitEngine,
    system: PortalSystem,
    root_portal: Portal,
    q_portals: Iterable[Portal],
    scope: Optional[PortalScope] = None,
    section: str = "portal_centroid",
) -> Set[Portal]:
    """The portal Q-centroid(s); ``O(log |Q|)`` rounds (Lemma 36)."""
    if scope is None:
        scope = PortalScope(system)
    op = PortalCentroidOp(scope, root_portal, q_portals)
    with engine.rounds.section(section):
        if op.phase1.ett_op.chain is not None:
            run_pasc(engine, [op.phase1.ett_op.chain], section=f"{section}:ett1")
        op.prepare_phase2()
        if op.phase2 is not None and op.phase2.chain is not None:
            run_pasc(engine, [op.phase2.chain], section=f"{section}:ett2")
        # Portals learn non-centroid status via one portal-circuit beep.
        layout = scope.portal_circuit_layout(engine, label="portal:cen")
        engine.run_round_indexed(layout, (), ())
    return op.centroids()


@dataclass
class PortalDecompositionTree:
    """A Q'-centroid decomposition tree over portals (Lemma 37)."""

    levels: List[List[Portal]] = field(default_factory=list)
    parent: Dict[Portal, Optional[Portal]] = field(default_factory=dict)
    subtree_portals: Dict[Portal, Set[Portal]] = field(default_factory=dict)

    @property
    def height(self) -> int:
        return len(self.levels)

    def members(self) -> Set[Portal]:
        """All portals elected into the decomposition tree."""
        return set(self.parent)

    def depth_of(self, portal: Portal) -> int:
        """Depth of a portal in the decomposition tree."""
        for depth, level in enumerate(self.levels):
            if portal in level:
                return depth
        raise KeyError(f"{portal} is not in the decomposition tree")


@dataclass
class _PortalRecursion:
    scope: PortalScope
    root: Portal
    q: Set[Portal]
    caller: Optional[Portal]


def portal_centroid_decomposition(
    engine: CircuitEngine,
    system: PortalSystem,
    root_portal: Portal,
    q_prime: Set[Portal],
    scope: Optional[PortalScope] = None,
    section: str = "portal_decomposition",
) -> PortalDecompositionTree:
    """Iteratively compute the portal Q'-centroid decomposition tree.

    ``O(log² |Q'|)`` rounds (Lemma 37).  Deterministic, so repeated runs
    rebuild the identical tree — the forest algorithm's merging stage
    depends on that (Section 5.4.4).
    """
    if scope is None:
        scope = PortalScope(system)
    if not q_prime:
        raise ValueError("Q' must be non-empty")
    tree = PortalDecompositionTree()
    active = [
        _PortalRecursion(scope=scope, root=root_portal, q=set(q_prime), caller=None)
    ]
    remaining = set(q_prime)
    guard = 2 * len(q_prime).bit_length() + 4

    # Global termination circuit: built (or cache-hit) once, reused by
    # every level; one probe set carries the single bit it can hold.
    term_layout = engine.global_layout(label="pdec:term")
    term_index = term_layout.compiled().index
    term_probe = term_index.index_of(
        (next(iter(engine.structure)), "pdec:term"), "listen on"
    )

    with engine.rounds.section(section):
        level_index = 0
        while active:
            if level_index > guard:
                raise RuntimeError("portal decomposition exceeded its level guard")
            elected, next_active = _portal_level(engine, system, active, tree)
            tree.levels.append(elected)
            remaining.difference_update(elected)
            beeps = term_index.indices(
                ((p.representative, "pdec:term") for p in remaining), "beep on"
            )
            received = engine.run_round_indexed(term_layout, beeps, (term_probe,))
            active = next_active
            if not received[0]:
                break
            level_index += 1

    if remaining:
        raise AssertionError("portal decomposition left unelected Q' portals")
    return tree


def _portal_level(
    engine: CircuitEngine,
    system: PortalSystem,
    recursions: Sequence[_PortalRecursion],
    tree: PortalDecompositionTree,
) -> Tuple[List[Portal], List[_PortalRecursion]]:
    """All recursions of one level, sharing their rounds."""
    ops = [PortalCentroidOp(rec.scope, rec.root, rec.q) for rec in recursions]

    chains = [op.phase1.ett_op.chain for op in ops if op.phase1.ett_op.chain]
    if chains:
        run_pasc(engine, chains, section="pdec:ett1")
    for op in ops:
        op.prepare_phase2()
    chains = [op.phase2.chain for op in ops if op.phase2 and op.phase2.chain]
    if chains:
        run_pasc(engine, chains, section="pdec:ett2")

    requests: List[Optional[ElectionRequest]] = []
    centroid_sets: List[Set[Portal]] = []
    for op, rec in zip(ops, recursions):
        centroids = op.centroids()
        if not centroids:
            raise AssertionError("portal recursion found no Q'-centroid")
        centroid_sets.append(centroids)
        tour = op.phase1.tour
        if tour.edges:
            reps = rec.scope.representatives(centroids)
            requests.append(ElectionRequest(tour, mark_one_outgoing_edge(tour, reps)))
        else:
            requests.append(None)
    winners = elect_first_marked_many(
        engine, [r for r in requests if r is not None], section="pdec:elect"
    )
    winner_iter = iter(winners)
    elected: List[Portal] = []
    for req, centroids, rec in zip(requests, centroid_sets, recursions):
        if req is None:
            choice = next(iter(centroids))
        else:
            choice = system.portal_of[next(winner_iter)]
        elected.append(choice)
        tree.parent[choice] = rec.caller
        tree.subtree_portals[choice] = set(rec.scope.portals)

    # Winner announcement + subtree Q'-presence test share beep rounds.
    engine.charge_local_round()  # portal circuit: centroid announces itself

    specs: List[Tuple[_PortalRecursion, Portal, Set[Portal]]] = []
    for rec, choice in zip(recursions, elected):
        for component in _portal_components(rec.scope, choice):
            specs.append((rec, choice, component))
    # One shared beep round on component circuits (union of each
    # component's implicit-tree edges) decides which keep Q' portals.
    edges = []
    for rec, _choice, component in specs:
        comp_nodes = set()
        for p in component:
            comp_nodes.update(p.nodes)
        for u in comp_nodes:
            for v in rec.scope.adjacency[u]:
                if v in comp_nodes and (u.x, u.y) < (v.x, v.y):
                    edges.append((u, v))
    layout = engine.edge_subset_layout(edges, label="pdec:comp", channel=0)
    index = layout.compiled().index
    beeps = index.indices(
        (
            (p.representative, "pdec:comp")
            for rec, choice, component in specs
            for p in (rec.q - {choice}) & component
        ),
        "beep on",
    )
    # One probe per component circuit (matching the reads below).
    listen = index.indices(
        (
            (next(iter(component)).representative, "pdec:comp")
            for _rec, _choice, component in specs
        ),
        "listen on",
    )
    received = engine.run_round_indexed(layout, beeps, listen)

    next_active: List[_PortalRecursion] = []
    for probe_bit, (rec, choice, component) in zip(received, specs):
        q_in = (rec.q - {choice}) & component
        heard = probe_bit
        if heard != bool(q_in):
            raise AssertionError("component beep disagrees with portal membership")
        if not q_in:
            continue
        sub_scope = PortalScope(rec.scope.system, component)
        sub_root = next(
            q for q in rec.scope.portal_adjacency[choice] if q in component
        )
        next_active.append(
            _PortalRecursion(scope=sub_scope, root=sub_root, q=q_in, caller=choice)
        )
    return elected, next_active


def _portal_components(scope: PortalScope, removed: Portal) -> List[Set[Portal]]:
    """Components of the scope's portal tree after removing one portal."""
    components: List[Set[Portal]] = []
    seen: Set[Portal] = {removed}
    for start in scope.portal_adjacency[removed]:
        if start in seen:
            continue
        component = {start}
        stack = [start]
        while stack:
            p = stack.pop()
            for q in scope.portal_adjacency[p]:
                if q not in component and q != removed:
                    component.add(q)
                    stack.append(q)
        seen |= component
        components.append(component)
    return components
