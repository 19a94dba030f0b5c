//! The round engine: explicit synchronous message passing.
//!
//! Two loops live here, and they are semantically identical:
//!
//! * the **event-driven sparse engine** ([`run_rounds_with`], generic over
//!   the [`NodeExecutor`]; [`run_rounds`] is that loop over
//!   [`Sequential`]) — the default. A node is re-executed in round `r`
//!   only if it deposited a message in round `r − 1` or a message was
//!   deposited *to* it in round `r − 1` (the **active frontier**, tracked
//!   with the same stamp-per-node membership idiom as the routing arena).
//!   On workloads whose activity collapses to a thin frontier — late Luby
//!   rounds, sinkless orientation after orientations settle — per-round
//!   cost drops from `O(n + m)` to `O(frontier)`.
//! * the **dense oracle** ([`run_rounds_dense`]) — every node executes
//!   every round, sequentially. It is the correctness reference: for any
//!   algorithm honoring the
//!   [sparse-execution contract](RoundAlgorithm#sparse-execution-contract)
//!   the two engines are **bit-identical** (outputs and
//!   [`RoundTrace`]), which the equivalence proptests and the CI
//!   determinism legs enforce. Setting the `LCL_DENSE_ROUNDS` environment
//!   variable (to anything but `0` or empty) routes the
//!   [`run_rounds`]/[`run_rounds_with`] entry points to the dense oracle
//!   — under any executor, so a pooled run then executes sequentially.
//!   It is the escape hatch CI uses to byte-compare persisted runs across
//!   engines.

use crate::exec::{NodeExecutor, Sequential};
use crate::network::Network;
use crate::trace::RoundTrace;
use crate::views::rand_word;
use lcl_graph::NodeId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Per-node context handed to a [`RoundAlgorithm`]: the quantities the
/// LOCAL model announces, plus the node's identity and degree.
#[derive(Clone, Copy, Debug)]
pub struct NodeCtx {
    /// The node's LOCAL identifier.
    pub id: u64,
    /// The node's degree (ports are `0..degree`).
    pub degree: usize,
    /// The announced number of nodes.
    pub known_n: usize,
    /// The maximum degree `Δ`.
    pub max_degree: usize,
}

/// A synchronous message-passing algorithm.
///
/// One round = every node computes its outgoing messages from its state
/// ([`RoundAlgorithm::send`]), messages are delivered along edges (a message
/// sent on port `p` arrives at the neighbor's port for the same edge), and
/// every node updates its state from its inbox ([`RoundAlgorithm::receive`]).
/// A node that returns an output from [`RoundAlgorithm::output`] is
/// finished; the engine stops when all nodes are finished or the round cap
/// is hit. Finished nodes keep participating in message exchange (their
/// `send` is still called while they stay in the frontier) — in the LOCAL
/// model producing an output does not silence a node, but a node that wants
/// to leave the frontier simply stops sending.
///
/// # Sparse execution contract
///
/// The default engine ([`run_rounds`]) is event-driven: a node whose
/// closed in-neighborhood went silent is not executed at all. For that to
/// be indistinguishable from the dense oracle ([`run_rounds_dense`]),
/// implementations must satisfy three properties:
///
/// 1. **`send` is a pure function of `(state, ctx)`** — the signature
///    already enforces this (no RNG, no `&mut`): a node whose state did
///    not change resends exactly what it sent last round, or stays silent.
/// 2. **Silent and deaf ⇒ inert.** In any round where a node sent no
///    messages *and* received none, its `receive` (which the dense engine
///    still calls, with an empty inbox) must leave the state untouched and
///    must not draw from the RNG. A node that needs to make progress while
///    hearing nothing must keep itself scheduled by sending a message
///    (e.g. a keep-alive on one port); a node that is done must stop
///    sending.
/// 3. **`output` is a pure, stable function of state**: after returning
///    `Some`, later calls return the same value. The engines exploit this
///    by polling a node's output only when it was re-executed.
///
/// Both shipped protocols (`luby_rounds`, `matching_rounds`) follow the
/// contract; the dense engine remains available as the oracle for
/// algorithms that cannot.
pub trait RoundAlgorithm {
    /// Per-node mutable state.
    type State;
    /// Message type (unbounded size, per the model).
    type Msg: Clone;
    /// Per-node final output.
    type Output: Clone;

    /// Initial state of a node.
    fn init(&self, ctx: &NodeCtx, rng: &mut ChaCha8Rng) -> Self::State;

    /// Messages to send this round, as `(port, message)` pairs. Ports must
    /// be valid (`< ctx.degree`); at most one message per port.
    fn send(&self, state: &Self::State, ctx: &NodeCtx) -> Vec<(usize, Self::Msg)>;

    /// Digest this round's inbox: `(port, message)` pairs, in port order.
    /// For a self-loop, a message sent on one of the loop's ports arrives on
    /// the other.
    fn receive(
        &self,
        state: &mut Self::State,
        ctx: &NodeCtx,
        inbox: &[(usize, Self::Msg)],
        rng: &mut ChaCha8Rng,
    );

    /// The node's output, once it has decided. Must be stable: after
    /// returning `Some`, later rounds must return the same value.
    fn output(&self, state: &Self::State, ctx: &NodeCtx) -> Option<Self::Output>;
}

/// Result of a round-engine run.
#[derive(Clone, Debug)]
pub struct RoundOutcome<O> {
    /// Per-node outputs, `None` for nodes that had not decided when the
    /// engine stopped.
    pub outputs: Vec<Option<O>>,
    /// Round accounting.
    pub trace: RoundTrace,
    /// `(index, LOCAL id)` of every node still undecided when the engine
    /// stopped, in index order. Empty whenever [`RoundTrace::completed`];
    /// kept so failures can be attributed to a concrete node.
    pub undecided: Vec<(usize, u64)>,
}

impl<O> RoundOutcome<O> {
    /// Unwraps all outputs.
    ///
    /// # Panics
    ///
    /// Panics if some node never decided (run hit the round cap), naming
    /// the first undecided node (LOCAL id and index) and the number of
    /// rounds executed.
    #[must_use]
    pub fn into_outputs(self) -> Vec<O> {
        if let Some(&(index, id)) = self.undecided.first() {
            panic!(
                "{k} of {n} nodes undecided when the round engine stopped after {rounds} rounds \
                 (round cap hit): first undecided node has id {id} at index {index}",
                k = self.undecided.len(),
                n = self.outputs.len(),
                rounds = self.trace.rounds,
            );
        }
        self.outputs
            .into_iter()
            .map(|o| o.expect("empty undecided list implies every output is present"))
            .collect()
    }
}

/// True when `LCL_DENSE_ROUNDS` forces the dense oracle behind the default
/// entry points (read once per process).
fn dense_override() -> bool {
    static DENSE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DENSE.get_or_init(|| {
        std::env::var_os("LCL_DENSE_ROUNDS").is_some_and(|v| !v.is_empty() && v != *"0")
    })
}

/// Per-node contexts for a run (ids, degrees, announced quantities).
fn node_ctxs(net: &Network) -> Vec<NodeCtx> {
    let g = net.graph();
    g.nodes()
        .map(|v| NodeCtx {
            id: net.id_of(v),
            degree: g.degree(v),
            known_n: net.known_n(),
            max_degree: net.max_degree(),
        })
        .collect()
}

/// A node's counter-mode RNG stream, seeded from `(seed, id)`.
fn node_rng(seed: u64, id: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(rand_word(seed, id, 0x0C0D_E5EED))
}

/// Packs per-node outputs and round accounting into a [`RoundOutcome`],
/// recording `(index, id)` for every undecided node.
fn finish_outcome<O>(
    outputs: Vec<Option<O>>,
    ctxs: &[NodeCtx],
    rounds: u32,
    completed: bool,
) -> RoundOutcome<O> {
    let undecided = outputs
        .iter()
        .enumerate()
        .filter_map(|(i, o)| if o.is_none() { Some((i, ctxs[i].id)) } else { None })
        .collect();
    RoundOutcome { outputs, trace: RoundTrace { rounds, completed }, undecided }
}

/// Runs a round algorithm for at most `max_rounds` rounds on the
/// event-driven sparse engine, on the calling thread: [`run_rounds_with`]
/// over [`Sequential`].
pub fn run_rounds<A>(net: &Network, alg: &A, seed: u64, max_rounds: u32) -> RoundOutcome<A::Output>
where
    A: RoundAlgorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
    A::Output: Clone + Send,
{
    run_rounds_with(net, alg, seed, max_rounds, &Sequential)
}

/// Runs a round algorithm for at most `max_rounds` rounds on the
/// event-driven sparse engine, with per-node work on `exec`.
///
/// A node is executed in a round only if it or a neighbor deposited a
/// message last round (see the
/// [sparse-execution contract](RoundAlgorithm#sparse-execution-contract));
/// when the frontier goes quiescent with undecided nodes left, no state
/// can ever change again, so the engine fast-forwards straight to the
/// round cap — with accounting identical to the dense oracle spinning
/// there.
///
/// The `send` and `receive` steps of every round go to the executor
/// **over the active frontier only** ([`NodeExecutor::map_consume`] and
/// [`NodeExecutor::update_at`]); message routing stays sequential (it is
/// a cheap permutation, and keeping it ordered guarantees inboxes — and
/// the frontier itself — identical under every executor). A pooled
/// executor fans this per-node work out only when a worker is free to
/// take it; otherwise, as inside a grid cell on a busy pool, it streams
/// each outbox into routing and updates each node in place, like
/// [`Sequential`]. Node `v`'s RNG stream is seeded from `(seed, id(v))`,
/// so a run is reproducible and bit-identical under **any** executor.
///
/// With `LCL_DENSE_ROUNDS` set, the run goes to the sequential dense
/// oracle [`run_rounds_dense`] instead, whatever the executor.
pub fn run_rounds_with<A, X>(
    net: &Network,
    alg: &A,
    seed: u64,
    max_rounds: u32,
    exec: &X,
) -> RoundOutcome<A::Output>
where
    A: RoundAlgorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
    A::Output: Clone + Send,
    X: NodeExecutor,
{
    if dense_override() {
        return run_rounds_dense(net, alg, seed, max_rounds);
    }
    let g = net.graph();
    let n = g.node_count();
    let ctxs = node_ctxs(net);
    // Per-node state and RNG stream live in two tables, so the send and
    // poll phases stride only the compact states. The `Option`s are what
    // a pooled executor leaves behind while it holds a node's entries
    // (`NodeExecutor::update_at`).
    let mut rngs: Vec<Option<ChaCha8Rng>> = exec.map_nodes(n, |i| Some(node_rng(seed, ctxs[i].id)));
    let mut states: Vec<Option<A::State>> = rngs
        .iter_mut()
        .zip(&ctxs)
        .map(|(rng, ctx)| Some(alg.init(ctx, resident_mut(rng))))
        .collect();
    let mut outputs: Vec<Option<A::Output>> =
        exec.map_nodes(n, |i| alg.output(resident(&states[i]), &ctxs[i]));
    let mut undecided = outputs.iter().filter(|o| o.is_none()).count();

    let mut arena = RouteArena::new(g);
    // Round 1 executes everyone (the dense oracle calls every node's
    // `send`); from then on the frontier is senders ∪ receivers.
    let mut cur = ActiveSet::with_all(n);
    let mut next = ActiveSet::with_none(n);
    let mut rounds = 0;
    let mut completed = undecided == 0;
    while !completed && rounds < max_rounds {
        arena.begin_round();
        next.begin();
        // Send phase: outboxes are computed on the executor and routed in
        // frontier order on this thread. A node that deposited
        // re-schedules itself; the arena records the receivers.
        let active = cur.nodes();
        exec.map_consume(
            active.len(),
            |k| {
                let i = active[k] as usize;
                alg.send(resident(&states[i]), &ctxs[i])
            },
            |k, msgs| {
                if !msgs.is_empty() {
                    next.insert(active[k]);
                }
                for (port, msg) in msgs {
                    arena.deposit(g, NodeId(active[k]), port, msg);
                }
            },
        );
        arena.compact_receivers(g);
        for &w in arena.receivers() {
            next.insert(w);
        }
        // Receive phase: exactly the senders and receivers of this round —
        // every other node's dense `receive` is inert by contract.
        let active = next.nodes();
        exec.update_at(&mut states, &mut rngs, active, |k, state, rng| {
            let vi = active[k];
            let inbox = arena.inbox(NodeId(vi));
            alg.receive(resident_mut(state), &ctxs[vi as usize], inbox, resident_mut(rng));
        });
        // Incremental decided check: only re-executed nodes are re-polled.
        for &vi in next.nodes() {
            let i = vi as usize;
            if outputs[i].is_none() {
                outputs[i] = alg.output(resident(&states[i]), &ctxs[i]);
                if outputs[i].is_some() {
                    undecided -= 1;
                }
            }
        }
        rounds += 1;
        completed = undecided == 0;
        std::mem::swap(&mut cur, &mut next);
        if !completed && cur.nodes().is_empty() {
            // Quiescent but undecided: no node will ever run again, so the
            // dense oracle would spin unchanged until the cap.
            rounds = max_rounds;
        }
    }

    finish_outcome(outputs, &ctxs, rounds, completed)
}

/// A node's entry in one of the sparse engine's tables, which holds every
/// node's entry outside a pooled executor's
/// [`NodeExecutor::update_at`] call.
fn resident<S>(slot: &Option<S>) -> &S {
    slot.as_ref().expect("node entry is resident")
}

/// [`resident`], mutably.
fn resident_mut<S>(slot: &mut Option<S>) -> &mut S {
    slot.as_mut().expect("node entry is resident")
}

/// The dense oracle: every node executes every round, sequentially.
///
/// Semantically identical to [`run_rounds`] for contract-honoring
/// algorithms (enforced by proptests and CI); kept as the correctness
/// reference and for algorithms that rely on being called while idle.
pub fn run_rounds_dense<A: RoundAlgorithm>(
    net: &Network,
    alg: &A,
    seed: u64,
    max_rounds: u32,
) -> RoundOutcome<A::Output> {
    let g = net.graph();
    let n = g.node_count();
    let ctxs = node_ctxs(net);
    let mut rngs: Vec<ChaCha8Rng> = ctxs.iter().map(|c| node_rng(seed, c.id)).collect();
    let mut states: Vec<A::State> = (0..n).map(|i| alg.init(&ctxs[i], &mut rngs[i])).collect();
    // The decided check is incremental: a node is re-polled only while
    // undecided, the final outputs are exactly the accumulated polls (no
    // second `output` pass, no per-round scratch allocation).
    let mut outputs: Vec<Option<A::Output>> =
        (0..n).map(|i| alg.output(&states[i], &ctxs[i])).collect();
    let mut undecided = outputs.iter().filter(|o| o.is_none()).count();

    let mut arena = RouteArena::new(g);
    let mut rounds = 0;
    let mut completed = undecided == 0;
    while !completed && rounds < max_rounds {
        arena.begin_round();
        for i in 0..n {
            for (port, msg) in alg.send(&states[i], &ctxs[i]) {
                arena.deposit(g, NodeId(i as u32), port, msg);
            }
        }
        arena.compact_all(g);
        for v in g.nodes() {
            alg.receive(
                &mut states[v.index()],
                &ctxs[v.index()],
                arena.inbox(v),
                &mut rngs[v.index()],
            );
        }
        for i in 0..n {
            if outputs[i].is_none() {
                outputs[i] = alg.output(&states[i], &ctxs[i]);
                if outputs[i].is_some() {
                    undecided -= 1;
                }
            }
        }
        rounds += 1;
        completed = undecided == 0;
    }

    finish_outcome(outputs, &ctxs, rounds, completed)
}

/// A dense stamped membership set over node indices: `O(1)` insert and
/// membership, `O(active)` iteration and reset — the [`RouteArena`]
/// stamping idiom applied to frontier tracking. Insertion order is
/// preserved, so iteration is deterministic.
struct ActiveSet {
    /// Per node: member iff equal to `epoch`.
    stamps: Vec<u64>,
    epoch: u64,
    /// Members, in insertion order.
    list: Vec<u32>,
}

impl ActiveSet {
    /// A set containing every node (the round-1 frontier).
    fn with_all(n: usize) -> ActiveSet {
        ActiveSet { stamps: vec![1; n], epoch: 1, list: (0..n as u32).collect() }
    }

    /// An empty set.
    fn with_none(n: usize) -> ActiveSet {
        ActiveSet { stamps: vec![0; n], epoch: 0, list: Vec::new() }
    }

    /// Clears the set in `O(1)` (stale stamps simply no longer match).
    fn begin(&mut self) {
        self.epoch += 1;
        self.list.clear();
    }

    fn insert(&mut self, v: u32) {
        let slot = &mut self.stamps[v as usize];
        if *slot != self.epoch {
            *slot = self.epoch;
            self.list.push(v);
        }
    }

    /// Members in insertion order.
    fn nodes(&self) -> &[u32] {
        &self.list
    }
}

/// Reusable `O(n + m)` message-routing scratch for the round engines.
///
/// The pre-CSR router materialized `Vec<Vec<(port, Msg)>>` inboxes from
/// scratch every round and resolved each receiving port with
/// [`lcl_graph::Graph::port_of`], then a linear scan — `O(Σ deg²)` per
/// round plus `2n` vector allocations. The arena instead exploits that a
/// round delivers **at most one message per receiving half-edge**: a
/// message sent on port `p` of `v` crosses half-edge `h` and lands in the
/// slot indexed by `h.opposite()` ([`lcl_graph::HalfEdge::index`] is
/// dense), stamped
/// with the round number so slots invalidate in `O(1)`. A compaction pass
/// then walks the receiving nodes' CSR port tables in order, concatenating
/// the occupied slots into one flat inbox array — which both sorts each
/// inbox by receiving port (matching the old router's contract exactly)
/// and yields per-node slices without any per-node allocation. All buffers
/// are allocated once per run and reused across rounds.
///
/// For the sparse engine, `deposit` additionally records the set of
/// receiving nodes (stamped, first-deposit order), so compaction touches
/// only `O(messages)` ports ([`RouteArena::compact_receivers`]) and the
/// engine can fold the receivers into the next frontier. The dense oracle
/// compacts every node ([`RouteArena::compact_all`]).
struct RouteArena<M> {
    /// Per receiving half-edge: the message in flight this round.
    slots: Vec<Option<M>>,
    /// Per receiving half-edge: round stamp; the slot is live iff equal to
    /// `round`.
    stamps: Vec<u64>,
    /// Current round stamp (starts at 1 so zeroed stamps read as stale).
    round: u64,
    /// Flat inbox storage, segmented by `inbox_ranges`.
    inbox: Vec<(usize, M)>,
    /// Per node: this round's inbox segment, valid iff the node's
    /// `recv_stamps` entry equals `round`.
    inbox_ranges: Vec<(usize, usize)>,
    /// Per node: stamp of the last round it received a message (or was
    /// compacted by the dense pass).
    recv_stamps: Vec<u64>,
    /// Nodes that received at least one message this round, in
    /// first-deposit order.
    receivers: Vec<u32>,
}

impl<M> RouteArena<M> {
    fn new(g: &lcl_graph::Graph) -> RouteArena<M> {
        let mut slots = Vec::new();
        slots.resize_with(2 * g.edge_count(), || None);
        RouteArena {
            slots,
            stamps: vec![0; 2 * g.edge_count()],
            round: 0,
            inbox: Vec::new(),
            inbox_ranges: vec![(0, 0); g.node_count()],
            recv_stamps: vec![0; g.node_count()],
            receivers: Vec::new(),
        }
    }

    /// Invalidates all slots (`O(1)`) and clears the flat inboxes and the
    /// receiver set.
    fn begin_round(&mut self) {
        self.round += 1;
        self.inbox.clear();
        self.receivers.clear();
    }

    /// Routes one message sent on `port` of `v` into its receiving slot,
    /// recording the receiving node.
    ///
    /// # Panics
    ///
    /// Panics — attributed as an **algorithm violation**, with node,
    /// degree, port, and round — if the port does not exist at `v` or
    /// already carried a message this round (the
    /// [`RoundAlgorithm::send`] contract allows at most one message per
    /// port). The engine itself cannot recover: a protocol that addresses
    /// ports it does not have is broken code, not a bad instance.
    fn deposit(&mut self, g: &lcl_graph::Graph, v: NodeId, port: usize, msg: M) {
        let h = g.half_edge_at_port(v, port).unwrap_or_else(|| {
            panic!(
                "algorithm violation: node {v:?} (degree {deg}) sent on invalid port {port} in \
                 round {round}",
                deg = g.degree(v),
                round = self.round,
            )
        });
        let slot = h.opposite().index();
        assert!(
            self.stamps[slot] != self.round,
            "algorithm violation: node {v:?} (degree {deg}) sent twice on port {port} in round \
             {round}",
            deg = g.degree(v),
            round = self.round,
        );
        self.stamps[slot] = self.round;
        self.slots[slot] = Some(msg);
        let w = g.half_edge_peer(h);
        if self.recv_stamps[w.index()] != self.round {
            self.recv_stamps[w.index()] = self.round;
            self.receivers.push(w.0);
        }
    }

    /// Nodes that received at least one message this round, in
    /// first-deposit order (valid after [`RouteArena::compact_receivers`]
    /// or any time after the deposits).
    fn receivers(&self) -> &[u32] {
        &self.receivers
    }

    /// Gathers this round's live slots into the flat per-node inboxes, in
    /// port order, touching **only the receiving nodes**: `O(messages +
    /// Σ deg(receivers))`.
    fn compact_receivers(&mut self, g: &lcl_graph::Graph) {
        for k in 0..self.receivers.len() {
            let v = NodeId(self.receivers[k]);
            let start = self.inbox.len();
            for (p, &h) in g.ports(v).iter().enumerate() {
                let slot = h.index();
                if self.stamps[slot] == self.round {
                    let msg = self.slots[slot].take().expect("stamped slot holds a message");
                    self.inbox.push((p, msg));
                }
            }
            self.inbox_ranges[v.index()] = (start, self.inbox.len());
        }
    }

    /// Gathers this round's live slots into the flat per-node inboxes, in
    /// port order, for **every** node (the dense oracle): one pass over
    /// the CSR port tables, `O(n + m)`.
    fn compact_all(&mut self, g: &lcl_graph::Graph) {
        for v in g.nodes() {
            let start = self.inbox.len();
            for (p, &h) in g.ports(v).iter().enumerate() {
                let slot = h.index();
                if self.stamps[slot] == self.round {
                    let msg = self.slots[slot].take().expect("stamped slot holds a message");
                    self.inbox.push((p, msg));
                }
            }
            self.inbox_ranges[v.index()] = (start, self.inbox.len());
            self.recv_stamps[v.index()] = self.round;
        }
    }

    /// The inbox of `v` for the compacted round: `(receiving port,
    /// message)` pairs sorted by port. Empty for nodes that received
    /// nothing.
    fn inbox(&self, v: NodeId) -> &[(usize, M)] {
        if self.recv_stamps[v.index()] != self.round {
            return &[];
        }
        let (start, end) = self.inbox_ranges[v.index()];
        &self.inbox[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::IdAssignment;
    use lcl_graph::gen;

    /// Flood the maximum id: each round every node broadcasts the largest id
    /// it has seen; a node decides once its value has been stable for one
    /// round. On a path of n nodes this takes Θ(n) rounds.
    ///
    /// Sparse-contract conformant: every degree-≥1 node broadcasts every
    /// round (so it is never skipped), and degree-0 nodes decide at birth.
    struct FloodMax;

    struct FloodState {
        best: u64,
        stable_for: u32,
    }

    impl RoundAlgorithm for FloodMax {
        type State = FloodState;
        type Msg = u64;
        type Output = u64;

        fn init(&self, ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> FloodState {
            FloodState { best: ctx.id, stable_for: 0 }
        }

        fn send(&self, state: &FloodState, ctx: &NodeCtx) -> Vec<(usize, u64)> {
            (0..ctx.degree).map(|p| (p, state.best)).collect()
        }

        fn receive(
            &self,
            state: &mut FloodState,
            _ctx: &NodeCtx,
            inbox: &[(usize, u64)],
            _rng: &mut ChaCha8Rng,
        ) {
            let incoming = inbox.iter().map(|&(_, m)| m).max().unwrap_or(0);
            if incoming > state.best {
                state.best = incoming;
                state.stable_for = 0;
            } else {
                state.stable_for += 1;
            }
        }

        fn output(&self, state: &FloodState, ctx: &NodeCtx) -> Option<u64> {
            // Decide after the value has been stable for known_n rounds —
            // a crude but correct termination rule for tests. An isolated
            // node hears nothing, ever: it decides at birth.
            (ctx.degree == 0 || state.stable_for >= ctx.known_n as u32).then_some(state.best)
        }
    }

    #[test]
    fn flood_max_converges_on_path() {
        let net = Network::new(gen::path(6), IdAssignment::Shuffled { seed: 1 });
        let out = run_rounds(&net, &FloodMax, 0, 100);
        assert!(out.trace.completed);
        assert!(out.undecided.is_empty());
        let vals = out.into_outputs();
        assert!(vals.iter().all(|&v| v == 6));
    }

    #[test]
    fn round_cap_stops_early() {
        let net = Network::new(gen::path(6), IdAssignment::Sequential);
        let out = run_rounds(&net, &FloodMax, 0, 2);
        assert!(!out.trace.completed);
        assert_eq!(out.trace.rounds, 2);
        assert!(out.outputs.iter().any(Option::is_none));
        assert_eq!(out.undecided.len(), out.outputs.iter().filter(|o| o.is_none()).count());
    }

    #[test]
    #[should_panic(expected = "6 of 6 nodes undecided when the round engine stopped after 2 \
                               rounds (round cap hit): first undecided node has id 1 at index 0")]
    fn into_outputs_names_the_first_undecided_node() {
        let net = Network::new(gen::path(6), IdAssignment::Sequential);
        let _ = run_rounds(&net, &FloodMax, 0, 2).into_outputs();
    }

    #[test]
    fn sparse_matches_dense_on_flood() {
        for g in [gen::path(9), gen::cycle(12), gen::random_tree(20, 3)] {
            let net = Network::new(g, IdAssignment::Shuffled { seed: 5 });
            let sparse = run_rounds(&net, &FloodMax, 3, 200);
            let dense = run_rounds_dense(&net, &FloodMax, 3, 200);
            assert_eq!(sparse.outputs, dense.outputs);
            assert_eq!(sparse.trace, dense.trace);
            assert_eq!(sparse.undecided, dense.undecided);
        }
    }

    /// A protocol that goes quiescent without deciding: nobody ever sends,
    /// nobody ever decides. The sparse engine must fast-forward to the
    /// round cap with accounting identical to the dense oracle spinning
    /// there.
    struct Mute;

    impl RoundAlgorithm for Mute {
        type State = ();
        type Msg = ();
        type Output = u64;

        fn init(&self, _ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> Self::State {}
        fn send(&self, _s: &Self::State, _c: &NodeCtx) -> Vec<(usize, ())> {
            Vec::new()
        }
        fn receive(&self, _s: &mut (), _c: &NodeCtx, _i: &[(usize, ())], _r: &mut ChaCha8Rng) {}
        fn output(&self, _s: &(), _c: &NodeCtx) -> Option<u64> {
            None
        }
    }

    #[test]
    fn quiescent_frontier_fast_forwards_to_the_cap() {
        let net = Network::new(gen::cycle(8), IdAssignment::Sequential);
        let sparse = run_rounds(&net, &Mute, 0, 5000);
        let dense = run_rounds_dense(&net, &Mute, 0, 5000);
        assert_eq!(sparse.trace, dense.trace);
        assert_eq!(sparse.trace.rounds, 5000);
        assert!(!sparse.trace.completed);
        assert_eq!(sparse.outputs, dense.outputs);
        assert_eq!(sparse.undecided.len(), 8);
    }

    /// Message routing sanity: every node sends its id on every port and
    /// checks the inbox matches its neighbors in port order.
    struct PortEcho;

    impl RoundAlgorithm for PortEcho {
        type State = Option<Vec<u64>>;
        type Msg = u64;
        type Output = Vec<u64>;

        fn init(&self, _ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> Self::State {
            None
        }

        fn send(&self, _state: &Self::State, ctx: &NodeCtx) -> Vec<(usize, u64)> {
            (0..ctx.degree).map(|p| (p, ctx.id)).collect()
        }

        fn receive(
            &self,
            state: &mut Self::State,
            _ctx: &NodeCtx,
            inbox: &[(usize, u64)],
            _rng: &mut ChaCha8Rng,
        ) {
            if state.is_none() {
                *state = Some(inbox.iter().map(|&(_, m)| m).collect());
            }
        }

        fn output(&self, state: &Self::State, ctx: &NodeCtx) -> Option<Vec<u64>> {
            if ctx.degree == 0 {
                return Some(Vec::new());
            }
            state.clone()
        }
    }

    #[test]
    fn messages_arrive_from_correct_neighbors() {
        let net = Network::new(gen::cycle(5), IdAssignment::Sequential);
        let out = run_rounds(&net, &PortEcho, 0, 10);
        let vals = out.into_outputs();
        // Node 0 of cycle(5) neighbors nodes 1 (port 0) and 4 (port 1):
        // ids are sequential = index + 1.
        assert_eq!(vals[0], vec![2, 5]);
        assert_eq!(vals[2], vec![2, 4]);
    }

    #[test]
    fn self_loop_messages_cross_the_loop() {
        let mut g = lcl_graph::Graph::new();
        let v = g.add_node();
        g.add_edge(v, v);
        let net = Network::new(g, IdAssignment::Sequential);
        let out = run_rounds(&net, &PortEcho, 0, 10);
        // The node hears itself on both ports of the loop.
        assert_eq!(out.into_outputs()[0], vec![1, 1]);
    }

    #[test]
    fn rng_streams_are_reproducible() {
        struct CoinOnce;
        impl RoundAlgorithm for CoinOnce {
            type State = u64;
            type Msg = ();
            type Output = u64;
            fn init(&self, _ctx: &NodeCtx, rng: &mut ChaCha8Rng) -> u64 {
                rand::Rng::gen(rng)
            }
            fn send(&self, _s: &u64, _c: &NodeCtx) -> Vec<(usize, ())> {
                Vec::new()
            }
            fn receive(&self, _s: &mut u64, _c: &NodeCtx, _i: &[(usize, ())], _r: &mut ChaCha8Rng) {
            }
            fn output(&self, s: &u64, _c: &NodeCtx) -> Option<u64> {
                Some(*s)
            }
        }
        let net = Network::new(gen::cycle(4), IdAssignment::Sequential);
        let a = run_rounds(&net, &CoinOnce, 9, 1).into_outputs();
        let b = run_rounds(&net, &CoinOnce, 9, 1).into_outputs();
        assert_eq!(a, b);
        let c = run_rounds(&net, &CoinOnce, 10, 1).into_outputs();
        assert_ne!(a, c);
    }

    /// A deliberately broken protocol: sends on `degree` (one past the
    /// last valid port) when `bad_port`, else sends twice on port 0.
    struct Misbehaver {
        bad_port: bool,
    }

    impl RoundAlgorithm for Misbehaver {
        type State = ();
        type Msg = u64;
        type Output = u64;
        fn init(&self, _ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> Self::State {}
        fn send(&self, _s: &Self::State, ctx: &NodeCtx) -> Vec<(usize, u64)> {
            if self.bad_port {
                vec![(ctx.degree, 1)]
            } else {
                vec![(0, 1), (0, 2)]
            }
        }
        fn receive(&self, _s: &mut (), _c: &NodeCtx, _i: &[(usize, u64)], _r: &mut ChaCha8Rng) {}
        fn output(&self, _s: &(), _c: &NodeCtx) -> Option<u64> {
            None
        }
    }

    #[test]
    #[should_panic(expected = "algorithm violation: node n0 (degree 2) sent on invalid port 2 \
                               in round 1")]
    fn invalid_port_is_attributed_as_algorithm_violation() {
        let net = Network::new(gen::cycle(3), IdAssignment::Sequential);
        let _ = run_rounds(&net, &Misbehaver { bad_port: true }, 0, 2);
    }

    #[test]
    #[should_panic(expected = "algorithm violation: node n0 (degree 2) sent twice on port 0 in \
                               round 1")]
    fn double_send_is_attributed_as_algorithm_violation() {
        let net = Network::new(gen::cycle(3), IdAssignment::Sequential);
        let _ = run_rounds(&net, &Misbehaver { bad_port: false }, 0, 2);
    }
}
