//! The problem `Π'` of Section 3.3 and its checker (constraints 1–6).

use crate::problem::InnerProblem;
use lcl_core::{Labeling, Violation};
use lcl_gadget::{check_psi, GadgetIn, LogGadgetFamily, NodeKind, PsiOutput};
use lcl_graph::{Graph, HalfEdge, NodeId, Side};

/// Input label of `Π'` (Section 3.3, "Input labels"): a `Π`-input for the
/// element, a gadget-layer input (absent exactly on `PortEdge`s and their
/// halves), and the `PortEdge`/`GadEdge` tag.
#[derive(Clone, Debug, PartialEq)]
pub struct PadIn<I> {
    /// The `Σ^Π_in` component.
    pub pi: I,
    /// The `Σ^G_in` component (includes the `Port_i`/`NoPort` node tags);
    /// `None` on `PortEdge`s and their halves.
    pub gadget: Option<GadgetIn>,
    /// The `{PortEdge, GadEdge}` tag (edges and halves; `false` on nodes).
    pub port_edge: bool,
}

/// The `{PortErr1, PortErr2, NoPortErr}` component of a node output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortFlag {
    /// The port is wired to something unusable (invalid gadget, `NoPort`
    /// endpoint, …): constraint 4.
    PortErr1,
    /// The port has zero or multiple incident `PortEdge`s: constraint 3.
    PortErr2,
    /// The port is good: it participates in the virtual graph.
    NoPortErr,
}

/// The `Σ_list` tuple of Section 3.3:
/// `(S, ι^V, ι^E_1..Δ, ι^B_1..Δ, o^V, o^E_1..Δ, o^B_1..Δ)`.
///
/// `S ⊆ {Port_1, …, Port_Δ}` is the set of valid ports of the node's
/// gadget; the `ι` fields copy the inputs of the virtual node and its
/// virtual edges/half-edges; the `o` fields carry the virtual solution of
/// `Π`. All nodes of a gadget must agree on the whole tuple (constraint 6).
#[derive(Clone, Debug, PartialEq)]
pub struct SigmaList<I, O> {
    /// Membership of `Port_{k+1}` in `S`.
    pub s: Vec<bool>,
    /// The virtual node's `Π`-input (copied from the `Port_1` node).
    pub iota_v: I,
    /// Per port: the virtual edge's `Π`-input.
    pub iota_e: Vec<I>,
    /// Per port: the virtual half-edge's `Π`-input.
    pub iota_b: Vec<I>,
    /// The virtual node's `Π`-output.
    pub o_v: O,
    /// Per port: the virtual edge's `Π`-output.
    pub o_e: Vec<O>,
    /// Per port: the virtual half-edge's `Π`-output.
    pub o_b: Vec<O>,
}

impl<I: Clone, O: Clone> SigmaList<I, O> {
    /// An all-filler tuple (used inside invalid gadgets, which the paper
    /// completes arbitrarily).
    #[must_use]
    pub fn filler<P>(inner: &P, delta: usize) -> Self
    where
        P: InnerProblem<In = I, Out = O>,
    {
        SigmaList {
            s: vec![false; delta],
            iota_v: inner.filler_in(),
            iota_e: vec![inner.filler_in(); delta],
            iota_b: vec![inner.filler_in(); delta],
            o_v: inner.filler_out(),
            o_e: vec![inner.filler_out(); delta],
            o_b: vec![inner.filler_out(); delta],
        }
    }

    /// The port mapping `α` (Figure 4): `α(k)` is the 0-based index of the
    /// `k`-th member of `S` (monotone).
    #[must_use]
    pub fn alpha(&self) -> Vec<usize> {
        self.s.iter().enumerate().filter_map(|(i, &m)| m.then_some(i)).collect()
    }
}

/// Node output payload of `Π'`.
#[derive(Clone, Debug, PartialEq)]
pub struct PadNodeOut<I, O> {
    /// The `Σ_list` part.
    pub list: SigmaList<I, O>,
    /// The port flag.
    pub flag: PortFlag,
    /// The `Σ^G_out` part: the node's `Ψ_G` output (`GadOk` = `Ok`).
    pub psi: PsiOutput,
}

/// Output label of `Π'` over `V ∪ E ∪ B`.
#[derive(Clone, Debug, PartialEq)]
pub enum PadOut<I, O> {
    /// A node's output.
    Node(Box<PadNodeOut<I, O>>),
    /// The `Σ^G_out` placeholder carried by `GadEdge`s and their halves
    /// (our `Ψ_G` writes its content on nodes, so this is a unit label).
    GadPad,
    /// The `ϵ` label required on `PortEdge`s and their halves
    /// (constraint 1).
    Eps,
}

impl<I, O> PadOut<I, O> {
    /// The node payload, if any.
    #[must_use]
    pub fn node(&self) -> Option<&PadNodeOut<I, O>> {
        match self {
            PadOut::Node(n) => Some(n),
            _ => None,
        }
    }
}

/// The padded problem `Π' = pad(Π, G)` for the `(log, Δ)` family.
#[derive(Clone, Debug)]
pub struct PaddedProblem<P> {
    /// The inner problem `Π`.
    pub inner: P,
    /// The gadget family `G`.
    pub family: LogGadgetFamily,
}

impl<P: InnerProblem> PaddedProblem<P> {
    /// Pads `inner` with the `(log, Δ)` family of the given `Δ`.
    #[must_use]
    pub fn new(inner: P, delta: usize) -> Self {
        PaddedProblem { inner, family: LogGadgetFamily::new(delta) }
    }

    /// The family's `Δ`.
    #[must_use]
    pub fn delta(&self) -> usize {
        use lcl_gadget::GadgetFamily as _;
        self.family.delta()
    }
}

/// One gadget component: the maximal connected subgraph over `GadEdge`s.
pub(crate) struct GadComponent {
    /// Host nodes, in discovery order.
    pub nodes: Vec<NodeId>,
    /// The component as a standalone graph.
    pub sub: Graph,
    /// Its gadget-layer input labeling.
    pub sub_input: Labeling<GadgetIn>,
}

/// Splits the padded graph into gadget components. Malformed gadget labels
/// are reported in `violations` and replaced by placeholders so that
/// checking can continue.
pub(crate) fn gadget_components<I: Clone + std::fmt::Debug>(
    g: &Graph,
    input: &Labeling<PadIn<I>>,
    violations: &mut Vec<Violation>,
) -> (Vec<GadComponent>, Vec<u32>) {
    let mut comp_of = vec![u32::MAX; g.node_count()];
    // Host → local index; every node lies in exactly one component, so
    // each slot is written once.
    let mut local = vec![0u32; g.node_count()];
    // Every GadEdge lies in exactly one component: a per-edge flag stands
    // in for a per-component seen set (self-loops appear twice in a port
    // table).
    let mut edge_taken = vec![false; g.edge_count()];
    let mut comps = Vec::new();
    for start in g.nodes() {
        if comp_of[start.index()] != u32::MAX {
            continue;
        }
        let cid = comps.len() as u32;
        // BFS with `nodes` as its own queue: discovery order.
        let mut nodes = vec![start];
        comp_of[start.index()] = cid;
        let mut head = 0;
        while let Some(&v) = nodes.get(head) {
            head += 1;
            for &h in g.ports(v) {
                if input.edge(h.edge()).port_edge {
                    continue;
                }
                let w = g.half_edge_peer(h);
                if comp_of[w.index()] == u32::MAX {
                    comp_of[w.index()] = cid;
                    nodes.push(w);
                }
            }
        }
        // Build the standalone subgraph with only GadEdges.
        let mut sub = Graph::with_capacity(nodes.len(), 0);
        for (i, &v) in nodes.iter().enumerate() {
            sub.add_node();
            local[v.index()] = i as u32;
        }
        let mut node_labels = Vec::with_capacity(nodes.len());
        for &v in &nodes {
            let lab = match input.node(v).gadget {
                Some(gi @ GadgetIn::Node { .. }) => gi,
                other => {
                    violations.push(Violation::Node(
                        v,
                        format!("input: node carries gadget label {other:?}"),
                    ));
                    GadgetIn::Node {
                        kind: NodeKind::Tree { index: 1, port: false },
                        color: u32::MAX - v.0,
                    }
                }
            };
            node_labels.push(lab);
        }
        let mut edge_labels = Vec::new();
        let mut half_labels = Vec::new();
        for &v in &nodes {
            for &h in g.ports(v) {
                let e = h.edge();
                if input.edge(e).port_edge || std::mem::replace(&mut edge_taken[e.index()], true) {
                    continue;
                }
                let [a, b] = g.endpoints(e);
                sub.add_edge(NodeId(local[a.index()]), NodeId(local[b.index()]));
                edge_labels.push(GadgetIn::Edge);
                let mut hl = [GadgetIn::Edge; 2];
                for (slot, side) in [(0usize, Side::A), (1, Side::B)] {
                    let he = HalfEdge::new(h.edge(), side);
                    hl[slot] = match input.half(he).gadget {
                        Some(gi @ GadgetIn::Half { .. }) => gi,
                        other => {
                            violations.push(Violation::Edge(
                                h.edge(),
                                format!("input: half carries gadget label {other:?}"),
                            ));
                            GadgetIn::Half {
                                dir: lcl_gadget::Dir::Up,
                                color: u32::MAX - h.edge().0,
                            }
                        }
                    };
                }
                half_labels.push(hl);
            }
        }
        let sub_input = Labeling::from_parts(node_labels, edge_labels, half_labels);
        comps.push(GadComponent { nodes, sub, sub_input });
    }
    (comps, comp_of)
}

/// Extracts each node's output payload; malformed node outputs are
/// reported and replaced by an `Error`-psi filler.
fn node_outputs<'a, P: InnerProblem>(
    prob: &PaddedProblem<P>,
    g: &Graph,
    output: &'a Labeling<PadOut<P::In, P::Out>>,
    violations: &mut Vec<Violation>,
) -> Vec<std::borrow::Cow<'a, PadNodeOut<P::In, P::Out>>> {
    use std::borrow::Cow;
    g.nodes()
        .map(|v| match output.node(v) {
            PadOut::Node(n) => Cow::Borrowed(n.as_ref()),
            other => {
                violations.push(Violation::Node(
                    v,
                    format!("output: node carries {other:?}, expected a node payload"),
                ));
                Cow::Owned(PadNodeOut {
                    list: SigmaList::filler(&prob.inner, prob.delta()),
                    flag: PortFlag::NoPortErr,
                    psi: PsiOutput::Error,
                })
            }
        })
        .collect()
}

/// The input port index (0-based) of a node, if it carries `Port_i`.
fn input_port<I>(input: &Labeling<PadIn<I>>, v: NodeId) -> Option<usize> {
    match input.node(v).gadget {
        Some(GadgetIn::Node { kind: NodeKind::Tree { index, port: true }, .. }) => {
            Some(usize::from(index) - 1)
        }
        _ => None,
    }
}

/// Checks a `Π'` output against constraints 1–6 of Section 3.3.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn check_padded<P: InnerProblem>(
    prob: &PaddedProblem<P>,
    g: &Graph,
    input: &Labeling<PadIn<P::In>>,
    output: &Labeling<PadOut<P::In, P::Out>>,
) -> Vec<Violation> {
    assert!(input.fits(g) && output.fits(g), "labelings must fit the graph");
    let delta = prob.delta();
    let mut violations = Vec::new();

    // Constraint 1: ϵ exactly on PortEdges and their halves; the Σ^G_out
    // placeholder on GadEdges and their halves.
    for e in g.edges() {
        let want_eps = input.edge(e).port_edge;
        let ok_edge =
            matches!((want_eps, output.edge(e)), (true, PadOut::Eps) | (false, PadOut::GadPad));
        if !ok_edge {
            violations.push(Violation::Edge(
                e,
                format!(
                    "1: edge output {:?} mismatches its {} tag",
                    output.edge(e),
                    if want_eps { "PortEdge" } else { "GadEdge" }
                ),
            ));
        }
        for side in [Side::A, Side::B] {
            let h = HalfEdge::new(e, side);
            let ok_half =
                matches!((want_eps, output.half(h)), (true, PadOut::Eps) | (false, PadOut::GadPad));
            if !ok_half {
                violations.push(Violation::Edge(e, "1: half-edge output mismatch".into()));
            }
        }
    }

    let outs = node_outputs(prob, g, output, &mut violations);
    let (comps, _comp_of) = gadget_components(g, input, &mut violations);

    // Constraint 2: Ψ_G solved correctly on every gadget component.
    for comp in &comps {
        let psi: Vec<PsiOutput> = comp.nodes.iter().map(|v| outs[v.index()].psi).collect();
        for viol in check_psi(&comp.sub, &comp.sub_input, &psi, delta) {
            violations.push(Violation::Node(
                comp.nodes[viol.node.index()],
                format!("2 (Ψ_G): {}", viol.why),
            ));
        }
    }

    // Constraints 3 and 4: port flags.
    let port_edge_count: Vec<usize> = g
        .nodes()
        .map(|v| g.ports(v).iter().filter(|h| input.edge(h.edge()).port_edge).count())
        .collect();
    for v in g.nodes() {
        let is_port = input_port(input, v).is_some();
        let should_err2 = is_port && port_edge_count[v.index()] != 1;
        let flag = outs[v.index()].flag;
        if should_err2 != (flag == PortFlag::PortErr2) {
            violations.push(Violation::Node(
                v,
                format!(
                    "3: flag {flag:?} with {} incident PortEdges (port: {is_port})",
                    port_edge_count[v.index()]
                ),
            ));
        }
    }
    for e in g.edges() {
        if !input.edge(e).port_edge {
            continue;
        }
        let [u, v] = g.endpoints(e);
        let (pu, pv) = (input_port(input, u), input_port(input, v));
        let (ou, ov) = (&outs[u.index()], &outs[v.index()]);
        // 4(i): both ports, both GadOk ⇒ neither flag may be PortErr1.
        if pu.is_some() && pv.is_some() && ou.psi == PsiOutput::Ok && ov.psi == PsiOutput::Ok {
            for (w, o) in [(u, ou), (v, ov)] {
                if o.flag == PortFlag::PortErr1 {
                    violations.push(Violation::Node(w, "4: PortErr1 on a good port pair".into()));
                }
            }
        }
        // 4(ii): a port whose edge touches NoPort or L_Err may not claim
        // NoPortErr.
        for ((pw, w, ow), (px, ox)) in [((pu, u, ou), (pv, ov)), ((pv, v, ov), (pu, ou))] {
            if pw.is_some()
                && (px.is_none() || ow.psi.is_error_label() || ox.psi.is_error_label())
                && ow.flag == PortFlag::NoPortErr
            {
                violations.push(Violation::Node(
                    w,
                    "4: NoPortErr on a port wired to NoPort or an erroneous gadget".into(),
                ));
            }
        }
    }

    // Constraint 5: per-node Σ_list conditions (escaped by L_Err).
    for v in g.nodes() {
        let o = &outs[v.index()];
        if o.psi.is_error_label() {
            continue;
        }
        let list = &o.list;
        if list.s.len() != delta
            || list.iota_e.len() != delta
            || list.iota_b.len() != delta
            || list.o_e.len() != delta
            || list.o_b.len() != delta
        {
            violations.push(Violation::Node(v, "5: Σ_list has wrong arity".into()));
            continue;
        }
        if let Some(i) = input_port(input, v) {
            // 5a: Port_i ∈ S ⟺ flag = NoPortErr.
            if list.s[i] != (o.flag == PortFlag::NoPortErr) {
                violations.push(Violation::Node(
                    v,
                    format!("5a: S[{i}] = {} but flag = {:?}", list.s[i], o.flag),
                ));
            }
            // 5b: the Port_1 node pins the virtual node's input.
            if i == 0 && list.iota_v != input.node(v).pi {
                violations.push(Violation::Node(
                    v,
                    "5b: ι^V differs from the Port_1 node's Π-input".into(),
                ));
            }
            // 5c: in-S ports copy their PortEdge's Π-inputs.
            if list.s[i] {
                for &h in g.ports(v) {
                    if !input.edge(h.edge()).port_edge {
                        continue;
                    }
                    if list.iota_e[i] != input.edge(h.edge()).pi {
                        violations.push(Violation::Node(
                            v,
                            format!("5c: ι^E_{i} differs from the PortEdge input"),
                        ));
                    }
                    if list.iota_b[i] != input.half(h).pi {
                        violations.push(Violation::Node(
                            v,
                            format!("5c: ι^B_{i} differs from the half-edge input"),
                        ));
                    }
                }
            }
        }
        // 5d: the hypothetical virtual node satisfies C_N^Π.
        let alpha = list.alpha();
        let edges: Vec<(P::In, P::Out)> =
            alpha.iter().map(|&k| (list.iota_e[k].clone(), list.o_e[k].clone())).collect();
        let halves: Vec<(P::In, P::Out)> =
            alpha.iter().map(|&k| (list.iota_b[k].clone(), list.o_b[k].clone())).collect();
        if let Err(why) = prob.inner.check_node_config(&list.iota_v, &list.o_v, &edges, &halves) {
            violations.push(Violation::Node(v, format!("5d (C_N^Π): {why}")));
        }
    }

    // Constraint 6: per-edge conditions.
    for e in g.edges() {
        let [u, v] = g.endpoints(e);
        let (ou, ov) = (&outs[u.index()], &outs[v.index()]);
        if ou.psi.is_error_label() || ov.psi.is_error_label() {
            continue;
        }
        if !input.edge(e).port_edge {
            // 6 (GadEdge): the whole gadget agrees on Σ_list.
            if ou.list != ov.list {
                violations.push(Violation::Edge(e, "6: Σ_list differs across a GadEdge".into()));
            }
            continue;
        }
        // 6 (PortEdge): virtual edge constraint for in-S port pairs.
        let (Some(i), Some(j)) = (input_port(input, u), input_port(input, v)) else {
            continue;
        };
        let (lu, lv) = (&ou.list, &ov.list);
        if lu.s.len() != prob.delta() || lv.s.len() != prob.delta() {
            continue; // arity violation already recorded under 5
        }
        if !(lu.s[i] && lv.s[j]) {
            continue;
        }
        if lu.iota_e[i] != lv.iota_e[j] {
            violations.push(Violation::Edge(e, "6: ι^E entries disagree".into()));
        }
        if lu.o_e[i] != lv.o_e[j] {
            violations.push(Violation::Edge(e, "6: o^E entries disagree".into()));
        }
        if let Err(why) = prob.inner.check_edge_config(
            [&lu.iota_v, &lv.iota_v],
            [&lu.o_v, &lv.o_v],
            &lu.iota_e[i],
            &lu.o_e[i],
            [&lu.iota_b[i], &lv.iota_b[j]],
            [&lu.o_b[i], &lv.o_b[j]],
        ) {
            violations.push(Violation::Edge(e, format!("6 (C_E^Π): {why}")));
        }
    }

    violations
}

// ---------------------------------------------------------------------
// Padded problems are themselves inner problems (Section 5 recursion).
// ---------------------------------------------------------------------

impl<P: InnerProblem> InnerProblem for PaddedProblem<P> {
    type In = PadIn<P::In>;
    type Out = PadOut<P::In, P::Out>;

    fn check_instance(
        &self,
        g: &Graph,
        input: &Labeling<Self::In>,
        output: &Labeling<Self::Out>,
    ) -> Vec<Violation> {
        check_padded(self, g, input, output)
    }

    fn check_node_config(
        &self,
        node_in: &Self::In,
        node_out: &Self::Out,
        edges: &[(Self::In, Self::Out)],
        halves: &[(Self::In, Self::Out)],
    ) -> Result<(), String> {
        // The per-node slice of constraints 1/3/5. The gadget-structure
        // part of constraint 2 needs radius > 1 and is not evaluable on a
        // bare configuration; the paper's Section 4.6 massages it into
        // node-edge form, which we implement as standalone proofs
        // (lcl-gadget::ne) rather than threading through this check. That
        // rewriting changes the checks' form, not which labelings pass, so
        // `check_padded` evaluates constraint 2 per gadget component with
        // `check_psi` instead.
        let PadOut::Node(o) = node_out else {
            return Err("node output must be a node payload".into());
        };
        let delta = self.delta();
        // Constraint 1 on the incident edges/halves.
        for ((ei, eo), (hi, ho)) in edges.iter().zip(halves) {
            let want_eps = ei.port_edge;
            if want_eps != hi.port_edge {
                return Err("1: edge/half PortEdge tags disagree".into());
            }
            let ok = matches!(
                (want_eps, eo, ho),
                (true, PadOut::Eps, PadOut::Eps) | (false, PadOut::GadPad, PadOut::GadPad)
            );
            if !ok {
                return Err("1: ϵ placement mismatch".into());
            }
        }
        // Constraint 3.
        let is_port = matches!(
            node_in.gadget,
            Some(GadgetIn::Node { kind: NodeKind::Tree { port: true, .. }, .. })
        );
        let pe_count = edges.iter().filter(|(i, _)| i.port_edge).count();
        let should_err2 = is_port && pe_count != 1;
        if should_err2 != (o.flag == PortFlag::PortErr2) {
            return Err(format!("3: flag {:?} with {pe_count} PortEdges", o.flag));
        }
        if o.psi.is_error_label() {
            return Ok(()); // constraint 5 escape
        }
        let list = &o.list;
        if list.s.len() != delta || list.iota_e.len() != delta || list.o_e.len() != delta {
            return Err("5: Σ_list has wrong arity".into());
        }
        if let Some(GadgetIn::Node { kind: NodeKind::Tree { index, port: true }, .. }) =
            node_in.gadget
        {
            let i = usize::from(index) - 1;
            if list.s[i] != (o.flag == PortFlag::NoPortErr) {
                return Err(format!("5a: S[{i}] vs flag {:?}", o.flag));
            }
            if index == 1 && list.iota_v != node_in.pi {
                return Err("5b: ι^V differs from Port_1 input".into());
            }
            if list.s[i] {
                for ((ei, _), (hi, _)) in edges.iter().zip(halves) {
                    if ei.port_edge {
                        if list.iota_e[i] != ei.pi {
                            return Err("5c: ι^E mismatch".into());
                        }
                        if list.iota_b[i] != hi.pi {
                            return Err("5c: ι^B mismatch".into());
                        }
                    }
                }
            }
        }
        let alpha = list.alpha();
        let e_cfg: Vec<(P::In, P::Out)> =
            alpha.iter().map(|&k| (list.iota_e[k].clone(), list.o_e[k].clone())).collect();
        let h_cfg: Vec<(P::In, P::Out)> =
            alpha.iter().map(|&k| (list.iota_b[k].clone(), list.o_b[k].clone())).collect();
        self.inner
            .check_node_config(&list.iota_v, &list.o_v, &e_cfg, &h_cfg)
            .map_err(|e| format!("5d: {e}"))
    }

    fn check_edge_config(
        &self,
        nodes_in: [&Self::In; 2],
        nodes_out: [&Self::Out; 2],
        edge_in: &Self::In,
        edge_out: &Self::Out,
        halves_in: [&Self::In; 2],
        halves_out: [&Self::Out; 2],
    ) -> Result<(), String> {
        let (PadOut::Node(ou), PadOut::Node(ov)) = (nodes_out[0], nodes_out[1]) else {
            return Err("endpoints must carry node payloads".into());
        };
        // Constraint 1.
        let want_eps = edge_in.port_edge;
        let ok = matches!(
            (want_eps, edge_out, halves_out[0], halves_out[1]),
            (true, PadOut::Eps, PadOut::Eps, PadOut::Eps)
                | (false, PadOut::GadPad, PadOut::GadPad, PadOut::GadPad)
        );
        if !ok {
            return Err("1: ϵ placement mismatch".into());
        }
        if ou.psi.is_error_label() || ov.psi.is_error_label() {
            // Constraint 6 escape; the Ψ pointer-chain compatibility is
            // still a pure edge check (node-edge form of 4.4 constraint 3).
            if !want_eps {
                psi_pointer_compat(nodes_in, ou.psi, ov.psi, halves_in)?;
            }
            return Ok(());
        }
        if !want_eps {
            if ou.list != ov.list {
                return Err("6: Σ_list differs across a GadEdge".into());
            }
            return Ok(());
        }
        // 4(ii) at config level.
        let port_of = |ni: &Self::In| match ni.gadget {
            Some(GadgetIn::Node { kind: NodeKind::Tree { index, port: true }, .. }) => {
                Some(usize::from(index) - 1)
            }
            _ => None,
        };
        let (pi_u, pi_v) = (port_of(nodes_in[0]), port_of(nodes_in[1]));
        for ((pw, ow), px) in [((pi_u, ou), pi_v), ((pi_v, ov), pi_u)] {
            if pw.is_some() && px.is_none() && ow.flag == PortFlag::NoPortErr {
                return Err("4: NoPortErr against a NoPort endpoint".into());
            }
        }
        let (Some(i), Some(j)) = (pi_u, pi_v) else { return Ok(()) };
        if !(ou.list.s.get(i) == Some(&true) && ov.list.s.get(j) == Some(&true)) {
            return Ok(());
        }
        if ou.list.iota_e[i] != ov.list.iota_e[j] || ou.list.o_e[i] != ov.list.o_e[j] {
            return Err("6: port entries disagree".into());
        }
        self.inner
            .check_edge_config(
                [&ou.list.iota_v, &ov.list.iota_v],
                [&ou.list.o_v, &ov.list.o_v],
                &ou.list.iota_e[i],
                &ou.list.o_e[i],
                [&ou.list.iota_b[i], &ov.list.iota_b[j]],
                [&ou.list.o_b[i], &ov.list.o_b[j]],
            )
            .map_err(|e| format!("6: {e}"))
    }

    fn filler_in(&self) -> Self::In {
        PadIn {
            pi: self.inner.filler_in(),
            gadget: Some(GadgetIn::Node {
                kind: NodeKind::Tree { index: 1, port: false },
                color: 0,
            }),
            port_edge: false,
        }
    }

    fn filler_out(&self) -> Self::Out {
        PadOut::Node(Box::new(PadNodeOut {
            list: SigmaList::filler(&self.inner, self.delta()),
            flag: PortFlag::NoPortErr,
            psi: PsiOutput::Error,
        }))
    }
}

/// Node-edge form of the `Ψ` pointer-chain constraints (Section 4.4
/// constraint 3) over one `GadEdge`.
fn psi_pointer_compat<I>(
    nodes_in: [&PadIn<I>; 2],
    psi_u: PsiOutput,
    psi_v: PsiOutput,
    halves_in: [&PadIn<I>; 2],
) -> Result<(), String> {
    use lcl_gadget::Dir;
    for (me, my_half, other_psi, my_in) in
        [(psi_u, halves_in[0], psi_v, nodes_in[0]), (psi_v, halves_in[1], psi_u, nodes_in[1])]
    {
        let PsiOutput::Pointer(p) = me else { continue };
        let Some(my_dir) = my_half.gadget.and_then(|gi| gi.dir()) else { continue };
        if my_dir != p {
            continue; // this edge is not the pointed-along edge
        }
        let allowed = match p {
            Dir::Right => matches!(other_psi, PsiOutput::Error | PsiOutput::Pointer(Dir::Right)),
            Dir::Left => matches!(other_psi, PsiOutput::Error | PsiOutput::Pointer(Dir::Left)),
            Dir::Parent => matches!(
                other_psi,
                PsiOutput::Error
                    | PsiOutput::Pointer(Dir::Parent | Dir::Left | Dir::Right | Dir::Up)
            ),
            Dir::RChild => matches!(
                other_psi,
                PsiOutput::Error | PsiOutput::Pointer(Dir::RChild | Dir::Right | Dir::Left)
            ),
            Dir::Up => {
                let my_index = match my_in.gadget.and_then(|gi| gi.kind()) {
                    Some(NodeKind::Tree { index, .. }) => Some(index),
                    _ => None,
                };
                match other_psi {
                    PsiOutput::Error => true,
                    PsiOutput::Pointer(Dir::Down(j)) => Some(j) != my_index,
                    _ => false,
                }
            }
            Dir::Down(_) => {
                matches!(other_psi, PsiOutput::Error | PsiOutput::Pointer(Dir::RChild))
            }
            Dir::LChild => false,
        };
        if !allowed {
            return Err(format!("Ψ chain: →{p} points at {other_psi}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SinklessInner;
    use lcl_core::problems::Orient;
    use lcl_gadget::Dir;

    fn demo_list() -> SigmaList<(), Orient> {
        SigmaList {
            s: vec![true, false, true],
            iota_v: (),
            iota_e: vec![(); 3],
            iota_b: vec![(); 3],
            o_v: Orient::Blank,
            o_e: vec![Orient::Blank; 3],
            o_b: vec![Orient::Out, Orient::Blank, Orient::In],
        }
    }

    #[test]
    fn alpha_maps_rank_to_port_index() {
        // S = {Port_1, Port_3} → α = [0, 2] (0-based), the monotone
        // bijection of constraint 5 / Figure 4.
        assert_eq!(demo_list().alpha(), vec![0, 2]);
        let empty = SigmaList::<(), Orient>::filler(&SinklessInner::new(), 3);
        assert!(empty.alpha().is_empty());
    }

    #[test]
    fn filler_list_has_full_arity() {
        let f = SigmaList::<(), Orient>::filler(&SinklessInner::new(), 4);
        assert_eq!(f.s.len(), 4);
        assert_eq!(f.iota_e.len(), 4);
        assert_eq!(f.o_b.len(), 4);
        assert!(f.s.iter().all(|&b| !b));
    }

    #[test]
    fn pad_out_node_accessor() {
        let o: PadOut<(), Orient> = PadOut::Node(Box::new(PadNodeOut {
            list: demo_list(),
            flag: PortFlag::NoPortErr,
            psi: PsiOutput::Ok,
        }));
        assert!(o.node().is_some());
        assert!(PadOut::<(), Orient>::Eps.node().is_none());
        assert!(PadOut::<(), Orient>::GadPad.node().is_none());
    }

    #[test]
    fn pointer_compat_allows_legal_chains_and_rejects_illegal() {
        let tree_in = |index: u8| PadIn::<()> {
            pi: (),
            gadget: Some(GadgetIn::Node { kind: NodeKind::Tree { index, port: false }, color: 0 }),
            port_edge: false,
        };
        let half_in = |dir: Dir| PadIn::<()> {
            pi: (),
            gadget: Some(GadgetIn::Half { dir, color: 0 }),
            port_edge: false,
        };
        // →Right over a Right-labeled half must see Right or Error.
        let u = tree_in(1);
        let v = tree_in(1);
        let ok = psi_pointer_compat(
            [&u, &v],
            PsiOutput::Pointer(Dir::Right),
            PsiOutput::Pointer(Dir::Right),
            [&half_in(Dir::Right), &half_in(Dir::Left)],
        );
        assert!(ok.is_ok());
        let bad = psi_pointer_compat(
            [&u, &v],
            PsiOutput::Pointer(Dir::Right),
            PsiOutput::Ok,
            [&half_in(Dir::Right), &half_in(Dir::Left)],
        );
        assert!(bad.is_err());
        // →Up must see Down_j with j ≠ own index.
        let bad_up = psi_pointer_compat(
            [&u, &v],
            PsiOutput::Pointer(Dir::Up),
            PsiOutput::Pointer(Dir::Down(1)),
            [&half_in(Dir::Up), &half_in(Dir::Down(1))],
        );
        assert!(bad_up.is_err());
        let ok_up = psi_pointer_compat(
            [&u, &v],
            PsiOutput::Pointer(Dir::Up),
            PsiOutput::Pointer(Dir::Down(2)),
            [&half_in(Dir::Up), &half_in(Dir::Down(1))],
        );
        assert!(ok_up.is_ok());
        // A pointer along a *different* edge is unconstrained here.
        let unrelated = psi_pointer_compat(
            [&u, &v],
            PsiOutput::Pointer(Dir::Parent),
            PsiOutput::Ok,
            [&half_in(Dir::Right), &half_in(Dir::Left)],
        );
        assert!(unrelated.is_ok());
    }

    #[test]
    fn padded_problem_reports_delta() {
        let p = PaddedProblem::new(SinklessInner::new(), 5);
        assert_eq!(p.delta(), 5);
    }
}
