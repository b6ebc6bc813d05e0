//! The MPI benchmark simulator: computes steady-state data transfer rates
//! for an IMB communication pattern on a modelled platform (paper §6.2).
//!
//! Like SMPI, the model is fluid: every concurrently-active message flow
//! receives a max-min fair share of the links along its route (computed by
//! [`dessim::max_min_fair_share`]), the adaptive MPI protocol scales the
//! achievable rate by a message-size-dependent factor, and a flow's
//! transfer time is `latency + size / (factor * allocated_bandwidth)`.
//! The reported metric — as in the IMB logs the ground truth consists of —
//! is the data transfer rate per flow, averaged over flows.
//!
//! Only link capacities, link latencies and the protocol depend on the
//! calibration. The flows, the links and every route are compiled once per
//! scenario into a plan, which an [`MpiSimulator`] keeps for its own
//! lifetime; an evaluation prices the plan's links, solves, and computes
//! rates (DESIGN.md, "What one mpisim evaluation costs").

use crate::benchmarks::{BenchmarkKind, RANKS_PER_NODE};
use crate::versions::{
    MpiSimulatorVersion, NodeModel, ProtocolModel, TopologyModel, FIXED_CHANGEPOINTS_LOG2,
};
use dessim::Workspace;
use simcal::prelude::{Calibration, Knob, ParamKind};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

/// Effective bandwidth for same-socket (shared-memory) exchanges, which no
/// version calibrates: 20 GB/s.
pub const INTRA_NODE_BW: f64 = 20e9;

/// Deterministic workload seed shared by the ground-truth emulator and all
/// candidate simulators: the BiRandom pairing is part of the workload, not
/// of the model.
pub fn workload_seed(benchmark: BenchmarkKind, n_nodes: usize) -> u64 {
    0xB1DA_0000_0000_0000 ^ ((benchmark as u64) << 32) ^ n_nodes as u64
}

/// Fully-resolved MPI platform model.
#[derive(Clone, Debug)]
pub(crate) struct ResolvedMpi {
    pub topology: TopologyModel,
    pub bb_bw: f64,
    pub bb_lat: f64,
    pub link_bw: f64,
    pub link_lat: f64,
    pub down_bw: f64,
    pub up_bw: f64,
    pub node: NodeModel,
    pub xbus_bw: f64,
    pub pcie_bw: f64,
    /// Protocol bandwidth factors: small / medium / large messages.
    pub factors: [f64; 3],
    /// Protocol change points, log2(bytes).
    pub changepoints_log2: [f64; 2],
    /// Ground-truth-only: per-flow rate multiplier `(128 / n_nodes)^e`
    /// modelling adaptive-routing congestion that grows with scale. Zero
    /// for every candidate simulator.
    pub scale_exponent: f64,
}

/// The one list of `version`'s knobs: each calibrated value is asked of
/// `knob`, with its range, where the resolved model takes it, and the
/// order of the calls is the parameter order. A knob the version does not
/// model keeps its neutral value.
pub(crate) fn model(version: MpiSimulatorVersion, knob: &mut Knob) -> ResolvedMpi {
    use TopologyModel::{Backbone, BackboneLinks, FatTree, Tree4};
    // Summit spec is ~12.5 GB/s per port (2^33.5); span well over an
    // order of magnitude on both sides.
    let bw = ParamKind::Exponential {
        lo_exp: 25.0,
        hi_exp: 40.0,
    };
    let lat = ParamKind::Continuous { lo: 0.0, hi: 1e-3 };
    let factor = ParamKind::Continuous { lo: 0.05, hi: 1.5 };
    let cp = ParamKind::Continuous { lo: 10.0, hi: 22.0 };
    let topology = version.topology;
    let backbone = matches!(topology, Backbone | BackboneLinks);
    let links = matches!(topology, BackboneLinks | Tree4);
    let fat = topology == FatTree;
    let complex = version.node == NodeModel::Complex;
    // The topology's knobs in parameter order: a fat tree's latency comes
    // after its two bandwidths.
    let bb_bw = if backbone { knob("bb_bw", bw) } else { 0.0 };
    let bb_lat = if backbone { knob("bb_lat", lat) } else { 0.0 };
    let link_bw = if links { knob("link_bw", bw) } else { 0.0 };
    let down_bw = if fat { knob("down_bw", bw) } else { 0.0 };
    let up_bw = if fat { knob("up_bw", bw) } else { 0.0 };
    let link_lat = if topology == Backbone {
        0.0
    } else {
        knob("link_lat", lat)
    };
    ResolvedMpi {
        topology,
        bb_bw,
        bb_lat,
        link_bw,
        link_lat,
        down_bw,
        up_bw,
        node: version.node,
        xbus_bw: if complex { knob("xbus_bw", bw) } else { 0.0 },
        pcie_bw: if complex { knob("pcie_bw", bw) } else { 0.0 },
        factors: [
            knob("factor_small", factor),
            knob("factor_medium", factor),
            knob("factor_large", factor),
        ],
        changepoints_log2: match version.protocol {
            ProtocolModel::FixedChangepoints => FIXED_CHANGEPOINTS_LOG2,
            ProtocolModel::ArbitraryChangepoints => {
                let (a, b) = (knob("changepoint1_log2", cp), knob("changepoint2_log2", cp));
                // The two change points are unordered parameters; the model
                // sorts them so the piecewise regions are well-defined.
                if a <= b {
                    [a, b]
                } else {
                    [b, a]
                }
            }
        },
        scale_exponent: 0.0,
    }
}

/// `version`'s resolved model at `calib`; panics unless there is one value per parameter.
pub(crate) fn resolve(version: MpiSimulatorVersion, calib: &Calibration) -> ResolvedMpi {
    calib.answer(|| version.label(), |knob| model(version, knob))
}

impl ResolvedMpi {
    /// Protocol bandwidth factor for a message of `size` bytes.
    pub fn protocol_factor(&self, size: f64) -> f64 {
        let log2 = size.max(1.0).log2();
        if log2 < self.changepoints_log2[0] {
            self.factors[0]
        } else if log2 < self.changepoints_log2[1] {
            self.factors[1]
        } else {
            self.factors[2]
        }
    }
}

/// Which calibrated value a link's capacity and latency come from.
#[derive(Clone, Copy, Debug)]
enum LinkRole {
    /// The shared backbone.
    Backbone,
    /// A node's dedicated link to the backbone.
    NodeLink,
    /// A 4-ary tree edge from a vertex on level `k` (leaves are level 0)
    /// to its parent.
    TreeLevel(i32),
    /// A fat-tree node-to-switch link.
    Down,
    /// A fat-tree switch-to-core link.
    Up,
    /// A node's PCIe bus.
    Pcie,
    /// A node's X-Bus.
    Xbus,
}

impl LinkRole {
    /// Capacity and latency of a link in this role under `model`.
    fn price(self, model: &ResolvedMpi) -> (f64, f64) {
        let (bw, lat) = match self {
            LinkRole::Backbone => (model.bb_bw, model.bb_lat),
            LinkRole::NodeLink => (model.link_bw, model.link_lat),
            // Uplink capacity aggregates the subtree it serves (a switch
            // uplink carries its four children's traffic), so the single
            // calibratable bandwidth describes the leaf edge and the tree
            // is not artificially root-choked.
            LinkRole::TreeLevel(level) => (model.link_bw * 4f64.powi(level), model.link_lat),
            LinkRole::Down => (model.down_bw, model.link_lat),
            LinkRole::Up => (model.up_bw, model.link_lat),
            LinkRole::Pcie => (model.pcie_bw, 0.0),
            LinkRole::Xbus => (model.xbus_bw, 0.0),
        };
        (bw.max(1.0), lat.max(0.0))
    }
}

/// Routes laid back to back: route `f` is `links[ends[f - 1]..ends[f]]`
/// (from 0 for the first).
#[derive(Debug, Default)]
struct Routes {
    links: Vec<u32>,
    ends: Vec<u32>,
}

impl Routes {
    /// Close the route made of the links pushed since the last one.
    fn end_route(&mut self) {
        let end = u32::try_from(self.links.len()).expect("route hops fit in u32");
        self.ends.push(end);
    }

    fn iter(&self) -> impl Iterator<Item = &[u32]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let route = &self.links[start..end as usize];
            start = end as usize;
            route
        })
    }
}

/// Everything about one scenario that no calibration changes: the role of
/// every link and the route of every flow.
#[derive(Debug)]
struct Plan {
    /// Node count, for the emulator's scale term.
    n_nodes: usize,
    /// The role of every link, by link id.
    roles: Vec<LinkRole>,
    /// Every flow's route in the order the network is built; latencies are
    /// summed in this order.
    paths: Routes,
    /// The same routes sorted and de-duplicated, as the solver takes them.
    solver_routes: Routes,
}

impl Plan {
    /// Build the link set and the route of every flow of `benchmark` on
    /// `n_nodes` nodes.
    fn build(
        topology: TopologyModel,
        node: NodeModel,
        benchmark: BenchmarkKind,
        n_nodes: usize,
    ) -> Plan {
        let mut roles = Vec::new();
        let mut add_link = |role: LinkRole| -> u32 {
            roles.push(role);
            u32::try_from(roles.len() - 1).expect("link ids fit in u32")
        };

        // Topology links and the node-to-node route they give.
        enum Topo {
            Backbone {
                bb: u32,
            },
            BackboneLinks {
                bb: u32,
                node_links: Vec<u32>,
            },
            /// Per tree vertex (leaves first, then level by level up to the
            /// root): its parent and the link to it. Every leaf is at the
            /// same depth.
            Tree {
                up: Vec<Option<(usize, u32)>>,
            },
            FatTree {
                down: Vec<u32>,
                up: Vec<u32>,
            },
        }
        let topo = match topology {
            TopologyModel::Backbone => Topo::Backbone {
                bb: add_link(LinkRole::Backbone),
            },
            TopologyModel::BackboneLinks => {
                let bb = add_link(LinkRole::Backbone);
                let node_links = (0..n_nodes).map(|_| add_link(LinkRole::NodeLink)).collect();
                Topo::BackboneLinks { bb, node_links }
            }
            TopologyModel::Tree4 => {
                // Vertices: n leaves, then ceil-by-4 groups per level up to
                // a root.
                let mut up = vec![None; n_nodes];
                let mut level_start = 0usize;
                let mut level_count = n_nodes;
                let mut level = 0i32;
                while level_count > 1 {
                    let next_count = level_count.div_ceil(4);
                    let next_start = up.len();
                    up.resize(next_start + next_count, None);
                    for i in 0..level_count {
                        up[level_start + i] =
                            Some((next_start + i / 4, add_link(LinkRole::TreeLevel(level))));
                    }
                    level_start = next_start;
                    level_count = next_count;
                    level += 1;
                }
                Topo::Tree { up }
            }
            TopologyModel::FatTree => {
                let down = (0..n_nodes).map(|_| add_link(LinkRole::Down)).collect();
                let n_switches = n_nodes.div_ceil(18);
                let up = (0..n_switches).map(|_| add_link(LinkRole::Up)).collect();
                Topo::FatTree { down, up }
            }
        };

        // Intra-node links for the complex node model.
        let complex = node == NodeModel::Complex;
        let (pcie, xbus): (Vec<u32>, Vec<u32>) = if complex {
            (
                (0..n_nodes).map(|_| add_link(LinkRole::Pcie)).collect(),
                (0..n_nodes).map(|_| add_link(LinkRole::Xbus)).collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };

        let node_of = |rank: usize| rank / RANKS_PER_NODE;
        let socket_of = |rank: usize| (rank % RANKS_PER_NODE) / (RANKS_PER_NODE / 2);
        let mut far_side = Vec::new();
        let mut node_route = |a: usize, b: usize, hops: &mut Vec<u32>| match &topo {
            Topo::Backbone { bb } => hops.push(*bb),
            Topo::BackboneLinks { bb, node_links } => {
                hops.extend([node_links[a], *bb, node_links[b]]);
            }
            Topo::Tree { up } => {
                // Walk both leaves up to their common ancestor; the far
                // side's links are crossed top-down.
                let (mut va, mut vb) = (a, b);
                while va != vb {
                    let (pa, la) = up[va].expect("only the root has no parent");
                    let (pb, lb) = up[vb].expect("only the root has no parent");
                    hops.push(la);
                    far_side.push(lb);
                    (va, vb) = (pa, pb);
                }
                hops.extend(far_side.drain(..).rev());
            }
            Topo::FatTree { down, up } => {
                let (sa, sb) = (a / 18, b / 18);
                if sa == sb {
                    hops.extend([down[a], down[b]]);
                } else {
                    hops.extend([down[a], up[sa], up[sb], down[b]]);
                }
            }
        };

        let n_ranks = n_nodes * RANKS_PER_NODE;
        let mut paths = Routes::default();
        for (src, dst) in benchmark.flows(n_ranks, workload_seed(benchmark, n_nodes)) {
            let (na, nb) = (node_of(src), node_of(dst));
            let hops = &mut paths.links;
            if na != nb {
                // Inter-node: rank -> (X-Bus if far socket) -> PCIe ->
                // NIC -> network -> NIC -> PCIe -> (X-Bus) -> rank.
                if complex {
                    if socket_of(src) == 1 {
                        hops.push(xbus[na]);
                    }
                    hops.push(pcie[na]);
                }
                node_route(na, nb, hops);
                if complex {
                    hops.push(pcie[nb]);
                    if socket_of(dst) == 1 {
                        hops.push(xbus[nb]);
                    }
                }
            } else if complex && socket_of(src) != socket_of(dst) {
                // Cross-socket, same node: X-Bus only (PCIe models the
                // path to the NIC, which shared-memory traffic never
                // touches).
                hops.push(xbus[na]);
            }
            // Same node, same socket: empty route (shared memory); the
            // rate model caps it at the memory-copy ceiling.
            paths.end_route();
        }

        let mut solver_routes = Routes::default();
        let mut route = Vec::new();
        for path in paths.iter() {
            route.clear();
            route.extend_from_slice(path);
            route.sort_unstable();
            route.dedup();
            solver_routes.links.extend_from_slice(&route);
            solver_routes.end_route();
        }

        Plan {
            n_nodes,
            roles,
            paths,
            solver_routes,
        }
    }

    /// Links in the network, plus route hops across all flows (counted on
    /// the routes as built, before de-duplication), plus one rate
    /// computation per flow per message size.
    fn work(&self, n_sizes: usize) -> u64 {
        (self.roles.len() + self.paths.links.len() + self.paths.ends.len() * n_sizes) as u64
    }

    /// Per-size data transfer rates (bytes/s) under `model`, each averaged
    /// over the flows.
    fn rates(&self, model: &ResolvedMpi, sizes: &[f64]) -> Vec<f64> {
        /// Solver buffers plus the per-link and per-flow terms of one
        /// evaluation.
        #[derive(Default)]
        struct Scratch {
            ws: Workspace,
            capacities: Vec<f64>,
            latencies: Vec<f64>,
            /// Per flow: route latency and allocated bandwidth.
            flows: Vec<(f64, f64)>,
        }
        thread_local! {
            /// Plans are shared by every pool thread evaluating through one
            /// simulator; the buffers an evaluation writes are per thread,
            /// so after a thread's first evaluation it allocates nothing
            /// but its result.
            static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
        }

        let scale_mult = (128.0 / self.n_nodes as f64).powf(model.scale_exponent);
        SCRATCH.with(|cell| {
            let Scratch {
                ws,
                capacities,
                latencies,
                flows,
            } = &mut *cell.borrow_mut();
            capacities.clear();
            latencies.clear();
            for role in &self.roles {
                let (capacity, latency) = role.price(model);
                capacities.push(capacity);
                latencies.push(latency);
            }
            ws.load_sorted(
                capacities,
                &self.solver_routes.links,
                &self.solver_routes.ends,
            );
            let allocations = ws.solve();

            // Neither term depends on the message size.
            flows.clear();
            flows.extend(
                allocations
                    .iter()
                    .zip(self.paths.iter())
                    .map(|(alloc, path)| {
                        let lat: f64 = path.iter().map(|&l| latencies[l as usize]).sum();
                        // Memory-copy speed is a universal ceiling on any single
                        // MPI transfer (and the rate of same-socket exchanges,
                        // whose route is empty).
                        let bw = alloc.min(INTRA_NODE_BW) * scale_mult;
                        (lat, bw.max(1.0))
                    }),
            );

            sizes
                .iter()
                .map(|&size| {
                    let factor = model.protocol_factor(size);
                    let mut sum = 0.0;
                    for &(lat, bw) in flows.iter() {
                        let t = lat + size / (factor * bw);
                        sum += size / t;
                    }
                    sum / flows.len() as f64
                })
                .collect()
        })
    }
}

/// Per-size data transfer rates (bytes/s) for one benchmark under a fully
/// resolved model, each averaged over the flows: the emulator's path, which
/// compiles the scenario for this one call.
pub(crate) fn transfer_rates_resolved(
    model: &ResolvedMpi,
    benchmark: BenchmarkKind,
    n_nodes: usize,
    sizes: &[f64],
) -> Vec<f64> {
    Plan::build(model.topology, model.node, benchmark, n_nodes).rates(model, sizes)
}

/// A calibratable MPI benchmark simulator at one level of detail.
///
/// A simulator compiles each `(benchmark, n_nodes)` it is asked about once,
/// on first use, and keeps the plan for its own lifetime; the threads
/// evaluating through it share the plans.
#[derive(Debug)]
pub struct MpiSimulator {
    version: MpiSimulatorVersion,
    /// Compiled scenarios, in the order they were first asked for.
    plans: Mutex<Vec<(BenchmarkKind, usize, Arc<Plan>)>>,
}

impl MpiSimulator {
    /// Construct a simulator for `version`.
    pub fn new(version: MpiSimulatorVersion) -> Self {
        Self {
            version,
            plans: Mutex::default(),
        }
    }

    /// The level-of-detail configuration.
    pub fn version(&self) -> MpiSimulatorVersion {
        self.version
    }

    /// The plan of one scenario, built on first use.
    fn plan(&self, benchmark: BenchmarkKind, n_nodes: usize) -> Arc<Plan> {
        // A build that panics has inserted nothing, so the table a
        // poisoned lock guards is whole.
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, _, plan)) = plans
            .iter()
            .find(|(b, n, _)| *b == benchmark && *n == n_nodes)
        {
            return Arc::clone(plan);
        }
        let plan = Arc::new(Plan::build(
            self.version.topology,
            self.version.node,
            benchmark,
            n_nodes,
        ));
        plans.push((benchmark, n_nodes, Arc::clone(&plan)));
        plan
    }

    /// Simulated data transfer rates (bytes/s), one per message size, for
    /// `benchmark` on `n_nodes` nodes under `calibration`.
    pub fn transfer_rates(
        &self,
        benchmark: BenchmarkKind,
        n_nodes: usize,
        sizes: &[f64],
        calibration: &Calibration,
    ) -> Vec<f64> {
        let model = resolve(self.version, calibration);
        self.plan(benchmark, n_nodes).rates(&model, sizes)
    }

    /// Deterministic simulation-work estimate for one scenario: how much
    /// this level of detail costs to evaluate, under any calibration.
    ///
    /// The model is analytic (one fair-share solve, no event loop), so the
    /// natural analogue of an event count is the size of the solved
    /// problem: links in the modelled network, plus route hops across all
    /// flows, plus one rate computation per flow per message size. More
    /// detailed topologies/node models build strictly larger networks, so
    /// the measure orders versions by modelling cost — `lodsel` uses it as
    /// the cost axis of its accuracy-versus-cost Pareto front.
    pub fn simulation_work(&self, benchmark: BenchmarkKind, n_nodes: usize, sizes: &[f64]) -> u64 {
        self.plan(benchmark, n_nodes).work(sizes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::message_sizes;

    fn calib_for(version: MpiSimulatorVersion) -> Calibration {
        let space = version.parameter_space();
        let values: Vec<f64> = space
            .params()
            .iter()
            .map(|p| match p.name.as_str() {
                "bb_bw" => 2e11,
                "link_bw" | "down_bw" | "up_bw" => 12.5e9,
                "bb_lat" | "link_lat" => 1.5e-6,
                "xbus_bw" => 32e9,
                "pcie_bw" => 16e9,
                "factor_small" => 1.0,
                "factor_medium" => 0.7,
                "factor_large" => 0.9,
                "changepoint1_log2" => 13.0,
                "changepoint2_log2" => 17.0,
                other => panic!("unexpected parameter {other}"),
            })
            .collect();
        Calibration::new(values)
    }

    #[test]
    fn all_sixteen_versions_produce_rates() {
        let sizes = message_sizes();
        for version in MpiSimulatorVersion::all() {
            let sim = MpiSimulator::new(version);
            for b in BenchmarkKind::ALL {
                let rates = sim.transfer_rates(b, 16, &sizes, &calib_for(version));
                assert_eq!(rates.len(), 13, "{} {}", version.label(), b.name());
                assert!(
                    rates.iter().all(|&r| r > 0.0 && r.is_finite()),
                    "{} {}: {rates:?}",
                    version.label(),
                    b.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "backbone/simple/fixed: 6 calibration values for 5 parameters")]
    fn a_calibration_with_a_value_left_over_is_refused() {
        let version = MpiSimulatorVersion::lowest_detail();
        let mut calib = calib_for(version);
        calib.values.push(1.0);
        MpiSimulator::new(version).transfer_rates(BenchmarkKind::PingPong, 4, &[1024.0], &calib);
    }

    #[test]
    fn rates_increase_with_message_size_under_latency_dominance() {
        // Small messages are latency-bound: rate grows with size.
        let version = MpiSimulatorVersion::lowest_detail();
        let sim = MpiSimulator::new(version);
        let sizes = message_sizes();
        let rates = sim.transfer_rates(BenchmarkKind::PingPong, 4, &sizes, &calib_for(version));
        assert!(rates[1] > rates[0], "{rates:?}");
    }

    #[test]
    fn pingpong_is_at_least_as_fast_as_pingping() {
        // PingPing has twice the concurrent flows -> more contention.
        let version = MpiSimulatorVersion::lowest_detail();
        let sim = MpiSimulator::new(version);
        let c = calib_for(version);
        let sizes = [4_194_304.0];
        let pong = sim.transfer_rates(BenchmarkKind::PingPong, 16, &sizes, &c)[0];
        let ping = sim.transfer_rates(BenchmarkKind::PingPing, 16, &sizes, &c)[0];
        assert!(pong >= ping, "pong {pong} vs ping {ping}");
    }

    #[test]
    fn backbone_contention_scales_with_node_count() {
        let version = MpiSimulatorVersion::lowest_detail();
        let sim = MpiSimulator::new(version);
        let c = calib_for(version);
        let sizes = [4_194_304.0];
        let r16 = sim.transfer_rates(BenchmarkKind::BiRandom, 16, &sizes, &c)[0];
        let r64 = sim.transfer_rates(BenchmarkKind::BiRandom, 64, &sizes, &c)[0];
        assert!(
            r64 < r16,
            "shared backbone must slow down at scale: {r16} -> {r64}"
        );
    }

    #[test]
    fn fat_tree_scales_better_than_backbone() {
        let bb = MpiSimulatorVersion::lowest_detail();
        let ft = MpiSimulatorVersion {
            topology: TopologyModel::FatTree,
            ..bb
        };
        let sizes = [4_194_304.0];
        let r_bb = MpiSimulator::new(bb).transfer_rates(
            BenchmarkKind::BiRandom,
            64,
            &sizes,
            &calib_for(bb),
        )[0];
        let r_ft = MpiSimulator::new(ft).transfer_rates(
            BenchmarkKind::BiRandom,
            64,
            &sizes,
            &calib_for(ft),
        )[0];
        assert!(r_ft > r_bb, "fat tree {r_ft} vs single backbone {r_bb}");
    }

    #[test]
    fn protocol_factor_is_piecewise_by_size() {
        let version = MpiSimulatorVersion::lowest_detail();
        let model = resolve(version, &calib_for(version));
        assert_eq!(model.protocol_factor(1024.0), 1.0);
        assert_eq!(model.protocol_factor(16_384.0), 0.7);
        assert_eq!(model.protocol_factor(1_048_576.0), 0.9);
    }

    #[test]
    fn arbitrary_changepoints_are_sorted() {
        let version = MpiSimulatorVersion {
            protocol: ProtocolModel::ArbitraryChangepoints,
            ..MpiSimulatorVersion::lowest_detail()
        };
        let space = version.parameter_space();
        let mut values = calib_for(version).values;
        // Swap the change points: 17 before 13.
        let i1 = space.index_of("changepoint1_log2").unwrap();
        let i2 = space.index_of("changepoint2_log2").unwrap();
        values[i1] = 17.0;
        values[i2] = 13.0;
        let model = resolve(version, &Calibration::new(values));
        assert_eq!(model.changepoints_log2, [13.0, 17.0]);
    }

    #[test]
    fn complex_node_pcie_contention_lowers_rates() {
        let simple = MpiSimulatorVersion::lowest_detail();
        let complex = MpiSimulatorVersion {
            node: NodeModel::Complex,
            ..simple
        };
        // Give the complex node a PCIe much slower than the network: the
        // six ranks of a node share it, so rates must drop.
        let space = complex.parameter_space();
        let mut values = calib_for(complex).values;
        values[space.index_of("pcie_bw").unwrap()] = 1e8;
        let sizes = [4_194_304.0];
        let r_simple = MpiSimulator::new(simple).transfer_rates(
            BenchmarkKind::PingPong,
            8,
            &sizes,
            &calib_for(simple),
        )[0];
        let r_complex = MpiSimulator::new(complex).transfer_rates(
            BenchmarkKind::PingPong,
            8,
            &sizes,
            &Calibration::new(values),
        )[0];
        assert!(r_complex < r_simple / 2.0, "{r_complex} vs {r_simple}");
    }

    #[test]
    fn deterministic_across_calls() {
        let version = MpiSimulatorVersion::highest_detail();
        let sim = MpiSimulator::new(version);
        let c = calib_for(version);
        let sizes = message_sizes();
        let a = sim.transfer_rates(BenchmarkKind::BiRandom, 32, &sizes, &c);
        let b = sim.transfer_rates(BenchmarkKind::BiRandom, 32, &sizes, &c);
        assert_eq!(a, b);
    }

    #[test]
    fn simulation_work_is_deterministic_and_orders_detail() {
        let lo = MpiSimulatorVersion::lowest_detail();
        let hi = MpiSimulatorVersion::highest_detail();
        let sizes = message_sizes();
        let w_lo = MpiSimulator::new(lo).simulation_work(BenchmarkKind::BiRandom, 16, &sizes);
        let w_hi = MpiSimulator::new(hi).simulation_work(BenchmarkKind::BiRandom, 16, &sizes);
        assert!(w_hi > w_lo, "detail must cost work: {w_lo} vs {w_hi}");
        let again = MpiSimulator::new(lo).simulation_work(BenchmarkKind::BiRandom, 16, &sizes);
        assert_eq!(w_lo, again);
    }

    #[test]
    fn plans_are_built_once_per_scenario_whatever_the_evaluations() {
        let version = MpiSimulatorVersion::highest_detail();
        let c = calib_for(version);
        let sizes = message_sizes();
        let scenarios = [
            (BenchmarkKind::PingPong, 8),
            (BenchmarkKind::BiRandom, 8),
            (BenchmarkKind::BiRandom, 20),
        ];
        let plan_count = |sim: &MpiSimulator| sim.plans.lock().unwrap().len();
        for evaluations_per_thread in [1, 10, 40] {
            let sim = MpiSimulator::new(version);
            assert_eq!(plan_count(&sim), 0, "nothing is built before first use");
            // Four threads start together and each cycle through every
            // scenario, so first uses race.
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let (sim, c, sizes, start) = (&sim, &c, &sizes, &start);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..evaluations_per_thread * scenarios.len() {
                            let (b, n) = scenarios[(i + t) % scenarios.len()];
                            sim.transfer_rates(b, n, sizes, c);
                            sim.simulation_work(b, n, sizes);
                        }
                    });
                }
            });
            assert_eq!(plan_count(&sim), scenarios.len());
            let (b, n) = scenarios[0];
            assert!(Arc::ptr_eq(&sim.plan(b, n), &sim.plan(b, n)));
            assert_eq!(plan_count(&sim), scenarios.len());
        }
    }

    #[test]
    fn paper_scale_128_nodes_is_tractable() {
        let version = MpiSimulatorVersion::highest_detail();
        let sim = MpiSimulator::new(version);
        let start = std::time::Instant::now();
        let rates = sim.transfer_rates(
            BenchmarkKind::BiRandom,
            128,
            &message_sizes(),
            &calib_for(version),
        );
        assert!(rates.iter().all(|&r| r > 0.0));
        assert!(
            start.elapsed().as_millis() < 2_000,
            "128-node simulation too slow: {:?}",
            start.elapsed()
        );
    }
}
