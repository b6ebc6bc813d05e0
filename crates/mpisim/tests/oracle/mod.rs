//! Test oracle: the simulator as it was before scenarios were compiled into
//! plans. Every evaluation resolves parameters by name, rebuilds the whole
//! network (one `Vec` route per flow), loads it into a fresh solver and
//! re-sums each route's latency once per message size. The compiled
//! simulator must reproduce it bit for bit.

use dessim::Workspace;
use mpisim::prelude::*;
use simcal::prelude::Calibration;

/// Fully-resolved MPI platform model.
pub struct Model {
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
    pub factors: [f64; 3],
    pub changepoints_log2: [f64; 2],
    pub scale_exponent: f64,
}

/// Map a calibration (in `version`'s space) to a model, by parameter name.
pub fn resolve(version: MpiSimulatorVersion, calib: &Calibration) -> Model {
    let space = version.parameter_space();
    let get = |name: &str| space.value(calib, name);
    let (bb_bw, bb_lat, link_bw, link_lat, down_bw, up_bw) = match version.topology {
        TopologyModel::Backbone => (get("bb_bw"), get("bb_lat"), 0.0, 0.0, 0.0, 0.0),
        TopologyModel::BackboneLinks => (
            get("bb_bw"),
            get("bb_lat"),
            get("link_bw"),
            get("link_lat"),
            0.0,
            0.0,
        ),
        TopologyModel::Tree4 => (0.0, 0.0, get("link_bw"), get("link_lat"), 0.0, 0.0),
        TopologyModel::FatTree => (0.0, 0.0, 0.0, get("link_lat"), get("down_bw"), get("up_bw")),
    };
    let (xbus_bw, pcie_bw) = match version.node {
        NodeModel::Complex => (get("xbus_bw"), get("pcie_bw")),
        NodeModel::Simple => (0.0, 0.0),
    };
    let changepoints_log2 = match version.protocol {
        ProtocolModel::FixedChangepoints => FIXED_CHANGEPOINTS_LOG2,
        ProtocolModel::ArbitraryChangepoints => {
            let (a, b) = (get("changepoint1_log2"), get("changepoint2_log2"));
            if a <= b {
                [a, b]
            } else {
                [b, a]
            }
        }
    };
    Model {
        topology: version.topology,
        bb_bw,
        bb_lat,
        link_bw,
        link_lat,
        down_bw,
        up_bw,
        node: version.node,
        xbus_bw,
        pcie_bw,
        factors: [
            get("factor_small"),
            get("factor_medium"),
            get("factor_large"),
        ],
        changepoints_log2,
        scale_exponent: 0.0,
    }
}

/// The emulator's hidden testbed as a model.
pub fn emulator_model(cfg: &MpiEmulatorConfig) -> Model {
    Model {
        topology: TopologyModel::FatTree,
        bb_bw: 0.0,
        bb_lat: 0.0,
        link_bw: 0.0,
        link_lat: cfg.link_lat,
        down_bw: cfg.down_bw,
        up_bw: cfg.up_bw,
        node: NodeModel::Complex,
        xbus_bw: cfg.xbus_bw,
        pcie_bw: cfg.pcie_bw,
        factors: cfg.factors,
        changepoints_log2: cfg.changepoints_log2,
        scale_exponent: cfg.scale_exponent,
    }
}

impl Model {
    fn protocol_factor(&self, size: f64) -> f64 {
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

/// The network as links + per-flow routes.
pub struct FlowNetwork {
    pub capacities: Vec<f64>,
    pub latencies: Vec<f64>,
    pub routes: Vec<Vec<usize>>,
}

/// Build the link set and the route of every flow.
pub fn build_network(model: &Model, n_nodes: usize, flows: &[(usize, usize)]) -> FlowNetwork {
    let mut capacities = Vec::new();
    let mut latencies = Vec::new();
    let mut add_link = |bw: f64, lat: f64| -> usize {
        capacities.push(bw.max(1.0));
        latencies.push(lat.max(0.0));
        capacities.len() - 1
    };

    enum Topo {
        Backbone {
            bb: usize,
        },
        BackboneLinks {
            bb: usize,
            node_links: Vec<usize>,
        },
        Tree {
            parent_link: Vec<Option<usize>>,
            parent: Vec<Option<usize>>,
            leaf: Vec<usize>,
        },
        FatTree {
            down: Vec<usize>,
            up: Vec<usize>,
        },
    }
    let topo = match model.topology {
        TopologyModel::Backbone => Topo::Backbone {
            bb: add_link(model.bb_bw, model.bb_lat),
        },
        TopologyModel::BackboneLinks => {
            let bb = add_link(model.bb_bw, model.bb_lat);
            let node_links = (0..n_nodes)
                .map(|_| add_link(model.link_bw, model.link_lat))
                .collect();
            Topo::BackboneLinks { bb, node_links }
        }
        TopologyModel::Tree4 => {
            let mut parent: Vec<Option<usize>> = Vec::new();
            let mut parent_link: Vec<Option<usize>> = Vec::new();
            let mut level_start = 0usize;
            let mut level_count = n_nodes;
            let leaf: Vec<usize> = (0..n_nodes).collect();
            for _ in 0..n_nodes {
                parent.push(None);
                parent_link.push(None);
            }
            let mut level = 0u32;
            while level_count > 1 {
                let next_count = level_count.div_ceil(4);
                let next_start = parent.len();
                for _ in 0..next_count {
                    parent.push(None);
                    parent_link.push(None);
                }
                let capacity = model.link_bw * 4f64.powi(level as i32);
                for i in 0..level_count {
                    let v = level_start + i;
                    let p = next_start + i / 4;
                    parent[v] = Some(p);
                    parent_link[v] = Some(add_link(capacity, model.link_lat));
                }
                level_start = next_start;
                level_count = next_count;
                level += 1;
            }
            Topo::Tree {
                parent_link,
                parent,
                leaf,
            }
        }
        TopologyModel::FatTree => {
            let down = (0..n_nodes)
                .map(|_| add_link(model.down_bw, model.link_lat))
                .collect();
            let n_switches = n_nodes.div_ceil(18);
            let up = (0..n_switches)
                .map(|_| add_link(model.up_bw, model.link_lat))
                .collect();
            Topo::FatTree { down, up }
        }
    };

    let (pcie, xbus): (Vec<usize>, Vec<usize>) = if model.node == NodeModel::Complex {
        (
            (0..n_nodes).map(|_| add_link(model.pcie_bw, 0.0)).collect(),
            (0..n_nodes).map(|_| add_link(model.xbus_bw, 0.0)).collect(),
        )
    } else {
        (Vec::new(), Vec::new())
    };

    let node_of = |rank: usize| rank / RANKS_PER_NODE;
    let socket_of = |rank: usize| (rank % RANKS_PER_NODE) / (RANKS_PER_NODE / 2);

    let node_route = |a: usize, b: usize| -> Vec<usize> {
        match &topo {
            Topo::Backbone { bb } => vec![*bb],
            Topo::BackboneLinks { bb, node_links } => vec![node_links[a], *bb, node_links[b]],
            Topo::Tree {
                parent_link,
                parent,
                leaf,
            } => {
                let mut pa = Vec::new();
                let mut pb = Vec::new();
                let mut va = leaf[a];
                let mut vb = leaf[b];
                let depth = |mut v: usize| {
                    let mut d = 0;
                    while let Some(p) = parent[v] {
                        v = p;
                        d += 1;
                    }
                    d
                };
                let (mut da, mut db) = (depth(va), depth(vb));
                while da > db {
                    pa.push(parent_link[va].expect("non-root has a parent link"));
                    va = parent[va].expect("non-root");
                    da -= 1;
                }
                while db > da {
                    pb.push(parent_link[vb].expect("non-root has a parent link"));
                    vb = parent[vb].expect("non-root");
                    db -= 1;
                }
                while va != vb {
                    pa.push(parent_link[va].expect("non-root"));
                    pb.push(parent_link[vb].expect("non-root"));
                    va = parent[va].expect("non-root");
                    vb = parent[vb].expect("non-root");
                }
                pa.extend(pb.into_iter().rev());
                pa
            }
            Topo::FatTree { down, up } => {
                let (sa, sb) = (a / 18, b / 18);
                if sa == sb {
                    vec![down[a], down[b]]
                } else {
                    vec![down[a], up[sa], up[sb], down[b]]
                }
            }
        }
    };

    let routes: Vec<Vec<usize>> = flows
        .iter()
        .map(|&(src, dst)| {
            let (na, nb) = (node_of(src), node_of(dst));
            let mut route = Vec::new();
            if na != nb {
                if model.node == NodeModel::Complex {
                    if socket_of(src) == 1 {
                        route.push(xbus[na]);
                    }
                    route.push(pcie[na]);
                }
                route.extend(node_route(na, nb));
                if model.node == NodeModel::Complex {
                    route.push(pcie[nb]);
                    if socket_of(dst) == 1 {
                        route.push(xbus[nb]);
                    }
                }
            } else if model.node == NodeModel::Complex && socket_of(src) != socket_of(dst) {
                route.push(xbus[na]);
            }
            route
        })
        .collect();

    FlowNetwork {
        capacities,
        latencies,
        routes,
    }
}

/// The flows of one scenario.
fn flows(benchmark: BenchmarkKind, n_nodes: usize) -> Vec<(usize, usize)> {
    benchmark.flows(n_nodes * RANKS_PER_NODE, workload_seed(benchmark, n_nodes))
}

/// Per-size mean transfer rates, rebuilding everything on every call.
pub fn rates_by_rebuild(
    model: &Model,
    benchmark: BenchmarkKind,
    n_nodes: usize,
    sizes: &[f64],
) -> Vec<f64> {
    let flows = flows(benchmark, n_nodes);
    let net = build_network(model, n_nodes, &flows);
    let scale_mult = (128.0 / n_nodes as f64).powf(model.scale_exponent);

    let mut ws = Workspace::new();
    ws.load(&net.capacities, &net.routes);
    let allocations = ws.solve();

    sizes
        .iter()
        .map(|&size| {
            let factor = model.protocol_factor(size);
            let mut sum = 0.0;
            for (alloc, route) in allocations.iter().zip(&net.routes) {
                let bw = alloc.min(INTRA_NODE_BW) * scale_mult;
                let lat: f64 = route.iter().map(|&l| net.latencies[l]).sum();
                let t = lat + size / (factor * bw.max(1.0));
                sum += size / t;
            }
            sum / flows.len() as f64
        })
        .collect()
}

/// Links + route hops + one rate computation per flow per size.
pub fn work_by_rebuild(
    model: &Model,
    benchmark: BenchmarkKind,
    n_nodes: usize,
    sizes: &[f64],
) -> u64 {
    let flows = flows(benchmark, n_nodes);
    let net = build_network(model, n_nodes, &flows);
    let hops: usize = net.routes.iter().map(Vec::len).sum();
    (net.capacities.len() + hops + flows.len() * sizes.len()) as u64
}
