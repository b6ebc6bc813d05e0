//! Max-min fair bandwidth sharing via progressive filling.
//!
//! Given a set of flows, each traversing a set of links, and per-link
//! capacities, progressive filling raises every flow's rate uniformly until
//! some link saturates, freezes the flows crossing that link at their
//! current rate, removes the consumed capacity, and repeats. The result is
//! the unique max-min fair allocation, the same sharing model SimGrid's
//! fluid network model (and hence SMPI and WRENCH) uses.
//!
//! Each link keeps a list of the flows crossing it, so a round visits the
//! bottleneck's own flows rather than every flow of the problem: a solve
//! costs O(Σ route lengths + rounds · links), see DESIGN.md "Kernel
//! complexity".
//!
//! A problem is split from what solving it writes. A [`SharingProblem`]
//! holds the routes and the per-link flow lists, which depend only on the
//! routes; a [`SharingScratch`] holds the per-solve buffers and outputs.
//! One private progressive-filling routine serves two callers: the engine
//! builds each candidate problem in a [`Workspace`] and solves it once
//! ([`Workspace::solve`]), and `mpisim` builds a scenario's problem once
//! and solves it under every calibration's capacities
//! ([`SharingProblem::solve`]).

/// Compute the max-min fair allocation.
///
/// `capacities[l]` is the capacity of link `l`; `flow_routes[f]` lists the
/// link indices flow `f` traverses (duplicates are permitted and count
/// once). Returns one rate per flow. A flow with an empty route is
/// unconstrained and gets `f64::INFINITY` — callers model such flows
/// (e.g. intra-host transfers) with an explicit bound elsewhere.
///
/// This is a thin delegation to [`Workspace::solve`]: the free function,
/// the engine's frontier-limited incremental re-solves (through a
/// [`Workspace`]) and callers that build a [`SharingProblem`] once and
/// solve it under many capacity vectors (e.g. `mpisim`) all run the one
/// progressive-filling routine in the crate and share one set of bits.
/// Callers with a hot loop should hold a [`Workspace`] or a
/// [`SharingScratch`] so repeated solves reuse buffers instead of
/// allocating.
///
/// # Panics
/// Panics if any route references a link index out of bounds.
pub fn max_min_fair_share(capacities: &[f64], flow_routes: &[Vec<usize>]) -> Vec<f64> {
    let mut ws = Workspace::new();
    ws.load(capacities, flow_routes);
    ws.solve().to_vec()
}

/// A max-min fair-sharing problem without its capacities: the link count,
/// every flow's route, and per link the list of flows crossing it.
///
/// Threading the routes onto per-link lists and counting the flows on each
/// link depend only on the routes, so a caller that solves the same routes
/// under many capacity vectors builds the problem once
/// ([`SharingProblem::new`]) and then only calls
/// [`SharingProblem::solve`]. A built problem is immutable: threads may
/// share one, each solving it with its own [`SharingScratch`].
#[derive(Clone, Debug, Default)]
pub struct SharingProblem {
    /// Links in the problem.
    num_links: usize,
    /// Deduplicated, sorted routes, flattened back to back.
    links: Vec<u32>,
    /// Exclusive end offset of each flow's route in `links`.
    ends: Vec<u32>,
    /// Per link, the first `links` entry naming it, or [`NO_ENTRY`] — the
    /// head of that link's list of crossing flows.
    head: Vec<u32>,
    /// Per `links` entry, the next entry naming the same link.
    next: Vec<u32>,
    /// Per `links` entry, the flow whose route holds it.
    entry_flow: Vec<u32>,
    /// Per link, the flows crossing it before any is frozen.
    crossing: Vec<u32>,
    /// Flows with a non-empty route: the ones a solve has to freeze.
    constrained: usize,
}

/// End of a link's flow list.
const NO_ENTRY: u32 = u32::MAX;

impl SharingProblem {
    /// The problem over `num_links` links in which flow `f` crosses the
    /// links of the `f`-th route (link indices in any order; duplicates
    /// count once).
    ///
    /// # Panics
    /// Panics if a route references a link index `>= num_links`, or if the
    /// problem has `u32::MAX` route entries or more.
    pub fn new<R: IntoIterator<Item = usize>>(
        num_links: usize,
        routes: impl IntoIterator<Item = R>,
    ) -> Self {
        let mut problem = Self {
            num_links,
            ..Self::default()
        };
        for route in routes {
            problem.push_route(route);
        }
        // A built problem lives as long as its caller keeps it.
        problem.links.shrink_to_fit();
        problem.ends.shrink_to_fit();
        problem.thread();
        problem
    }

    /// Drop every route and link, keeping all buffer capacity.
    fn clear(&mut self) {
        self.num_links = 0;
        self.links.clear();
        self.ends.clear();
    }

    /// Append a flow crossing `route` (sorted and de-duplicated here);
    /// returns its index.
    fn push_route(&mut self, route: impl IntoIterator<Item = usize>) -> usize {
        let nl = self.num_links;
        let start = self.links.len();
        self.links.extend(route.into_iter().map(|l| {
            assert!(
                l < nl,
                "route references link {l} but only {nl} links exist"
            );
            l as u32
        }));
        let segment = &mut self.links[start..];
        segment.sort_unstable();
        // In-place dedup of the just-added segment.
        let mut w = start;
        for r in start..self.links.len() {
            if w == start || self.links[r] != self.links[w - 1] {
                self.links[w] = self.links[r];
                w += 1;
            }
        }
        self.links.truncate(w);
        self.ends.push(w as u32);
        self.ends.len() - 1
    }

    /// Append a flow whose route is already sorted and free of duplicates.
    fn push_sorted_route(&mut self, route: impl IntoIterator<Item = u32>) {
        let start = self.links.len();
        self.links.extend(route);
        debug_assert!(
            self.links[start..].windows(2).all(|w| w[0] < w[1])
                && self.links[start..]
                    .iter()
                    .all(|&l| (l as usize) < self.num_links),
            "route must be sorted, free of duplicates and in bounds"
        );
        self.ends.push(self.links.len() as u32);
    }

    /// Thread every route entry onto its link's flow list and count the
    /// flows on each link and the constrained flows.
    fn thread(&mut self) {
        let Self {
            num_links,
            links,
            ends,
            head,
            next,
            entry_flow,
            crossing,
            constrained,
        } = self;
        assert!(
            links.len() < NO_ENTRY as usize
                && ends.len() <= NO_ENTRY as usize
                && *num_links <= NO_ENTRY as usize,
            "problem too large for 32-bit flow lists"
        );
        head.clear();
        head.resize(*num_links, NO_ENTRY);
        crossing.clear();
        crossing.resize(*num_links, 0);
        next.clear();
        entry_flow.clear();
        // Flows with empty routes are unconstrained and on no list.
        *constrained = 0;
        let mut start = 0usize;
        for (f, &end) in ends.iter().enumerate() {
            let end = end as usize;
            if start != end {
                *constrained += 1;
                for (e, &l) in (start..end).zip(&links[start..end]) {
                    let l = l as usize;
                    crossing[l] += 1;
                    next.push(head[l]);
                    entry_flow.push(f as u32);
                    head[l] = e as u32;
                }
            }
            start = end;
        }
    }

    /// The links flow `f` crosses, ascending.
    fn route(&self, f: usize) -> &[u32] {
        let start = if f == 0 { 0 } else { self.ends[f - 1] as usize };
        &self.links[start..self.ends[f] as usize]
    }

    /// Run progressive filling under `capacities` (one per link) and
    /// return one rate per flow, in route order. Flows with empty routes
    /// get `f64::INFINITY`. The rates, the binding links and the work
    /// count stay readable in `scratch` until its next solve.
    ///
    /// # Panics
    /// Panics unless there is one capacity per link.
    pub fn solve<'s>(&self, capacities: &[f64], scratch: &'s mut SharingScratch) -> &'s [f64] {
        assert_eq!(
            capacities.len(),
            self.num_links,
            "one capacity per link of the problem"
        );
        scratch.crossing.clear();
        scratch.crossing.extend_from_slice(&self.crossing);
        self.fill(capacities, scratch)
    }

    /// Progressive filling under `capacities`, from the per-link flow
    /// counts already in `scratch.crossing`: the one routine behind
    /// [`SharingProblem::solve`] and [`Workspace::solve`].
    fn fill<'s>(&self, capacities: &[f64], scratch: &'s mut SharingScratch) -> &'s [f64] {
        let SharingScratch {
            remaining,
            crossing,
            frozen,
            rates,
            binding,
            visits,
        } = scratch;
        let nf = self.ends.len();
        let nl = self.num_links;

        *visits = 0;
        rates.clear();
        rates.resize(nf, f64::INFINITY);
        binding.clear();
        binding.resize(nl, false);
        if nf == 0 {
            return rates;
        }
        remaining.clear();
        remaining.extend_from_slice(capacities);
        // Only flows on some link's list are ever tested, so the flags of
        // unconstrained flows are never read.
        frozen.clear();
        frozen.resize(nf, false);
        let mut unfrozen_constrained = self.constrained;

        // Progressive filling: at most one link saturates per round.
        while unfrozen_constrained > 0 {
            // Bottleneck link: minimal fair share among crossed links.
            let mut best: Option<(usize, f64)> = None;
            for l in 0..nl {
                if crossing[l] == 0 {
                    continue;
                }
                let share = remaining[l].max(0.0) / crossing[l] as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((l, share));
                }
            }
            *visits += nl as u64;
            let (bottleneck, share) = best.expect("unfrozen flows imply a crossed link");
            binding[bottleneck] = true;

            // Freeze every unfrozen flow crossing the bottleneck at
            // `share`, and release the capacity they consume elsewhere.
            // Every flow frozen in this round subtracts the same `share`,
            // so each link's `remaining` is "minus `share`, k times"
            // whatever order the list yields them in.
            let mut e = self.head[bottleneck];
            while e != NO_ENTRY {
                let f = self.entry_flow[e as usize] as usize;
                e = self.next[e as usize];
                *visits += 1;
                if frozen[f] {
                    continue;
                }
                frozen[f] = true;
                unfrozen_constrained -= 1;
                rates[f] = share;
                for &l in self.route(f) {
                    remaining[l as usize] -= share;
                    crossing[l as usize] -= 1;
                }
            }
        }
        rates
    }
}

/// The buffers one progressive-filling solve writes, and its outputs.
///
/// Every buffer is retained across solves, so a warm scratch performs no
/// allocation; one scratch serves any sequence of problems. An empty one
/// is [`SharingScratch::default`].
#[derive(Clone, Debug, Default)]
pub struct SharingScratch {
    /// Capacity left on each link.
    remaining: Vec<f64>,
    /// Unfrozen flows crossing each link.
    crossing: Vec<u32>,
    /// Which flows have been frozen.
    frozen: Vec<bool>,
    /// Output rates, one per flow.
    rates: Vec<f64>,
    /// Output: which links were selected as a bottleneck in some filling
    /// round of the last solve (the *binding* links). Rates are a pure
    /// function of the binding links' capacities and crossing counts;
    /// capacities of non-binding links never enter the rate arithmetic.
    binding: Vec<bool>,
    /// Work of the last solve: links scanned for bottlenecks plus flow-list
    /// entries walked by freeze loops.
    visits: u64,
}

impl SharingScratch {
    /// The rates computed by the last solve, one per flow in route order.
    fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Whether link `link` was selected as a bottleneck in the last solve.
    fn was_binding(&self, link: usize) -> bool {
        self.binding.get(link).copied().unwrap_or(false)
    }

    /// Links scanned for bottlenecks plus flow-list entries walked by
    /// freeze loops in the last solve: the solver's deterministic work
    /// count.
    fn visits(&self) -> u64 {
        self.visits
    }
}

/// A [`SharingProblem`] built in place, its capacities and a
/// [`SharingScratch`], for problems that are built and then solved once.
///
/// A solve has three steps: [`Workspace::clear`], then a build phase
/// ([`Workspace::push_capacity`] for every link, [`Workspace::push_route`]
/// for every flow, in order), then [`Workspace::solve`], which threads the
/// routes and runs the filling routine behind [`SharingProblem::solve`].
/// Every buffer is retained
/// across solves, so a warm workspace performs no allocation — this is
/// what makes the engine's per-event rate updates allocation-free.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// Link capacities for the current problem.
    caps: Vec<f64>,
    /// The current problem; threaded by [`Workspace::solve`].
    problem: SharingProblem,
    /// The last solve's buffers and outputs.
    scratch: SharingScratch,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the current problem, keeping all buffer capacity.
    pub fn clear(&mut self) {
        self.caps.clear();
        self.problem.clear();
    }

    /// Add a link with capacity `cap`; returns its index in this problem.
    pub fn push_capacity(&mut self, cap: f64) -> usize {
        self.caps.push(cap);
        self.problem.num_links = self.caps.len();
        self.caps.len() - 1
    }

    /// Add a flow crossing `links` (workspace link indices; duplicates
    /// count once); returns its index in this problem.
    ///
    /// # Panics
    /// Panics if a link index is out of bounds for the pushed capacities.
    pub fn push_route(&mut self, links: impl IntoIterator<Item = usize>) -> usize {
        self.problem.push_route(links)
    }

    /// [`Workspace::push_route`] for a route that is already what it
    /// stores: sorted and free of duplicates, as the engine's arena keeps
    /// routes and its candidate problems number links in ascending order.
    /// Skips the sort and the dedup; the order is checked in debug builds.
    pub(crate) fn push_sorted_route(&mut self, links: impl IntoIterator<Item = u32>) {
        self.problem.push_sorted_route(links);
    }

    /// `clear` + build in one call, for slice-shaped inputs.
    pub fn load(&mut self, capacities: &[f64], flow_routes: &[Vec<usize>]) {
        self.clear();
        for &cap in capacities {
            self.push_capacity(cap);
        }
        for route in flow_routes {
            self.push_route(route.iter().copied());
        }
    }

    /// Thread the current problem and run progressive filling on it;
    /// returns one rate per flow (in push order). Flows with empty routes
    /// get `f64::INFINITY`. The result stays valid until the next `clear`.
    pub fn solve(&mut self) -> &[f64] {
        self.problem.thread();
        // The problem is solved this once, so its flow counts become the
        // solve's own instead of being copied.
        std::mem::swap(&mut self.problem.crossing, &mut self.scratch.crossing);
        self.problem.fill(&self.caps, &mut self.scratch)
    }

    /// Links scanned for bottlenecks plus flow-list entries walked by
    /// freeze loops in the last [`Workspace::solve`]: the solver's
    /// deterministic work count.
    pub(crate) fn visits(&self) -> u64 {
        self.scratch.visits()
    }

    /// Whether link `link` (workspace index) was selected as a bottleneck
    /// in the last [`Workspace::solve`].
    ///
    /// A non-binding link's capacity never entered the rate arithmetic:
    /// every flow crossing it was frozen by some *other* link first. This
    /// is what lets the engine's frontier-limited re-solve prove a
    /// boundary link's residual-capacity approximation exact.
    pub fn was_binding(&self, link: usize) -> bool {
        self.scratch.was_binding(link)
    }

    /// The rates computed by the last [`Workspace::solve`], one per flow
    /// in push order. Unlike the slice `solve` returns, this borrows the
    /// workspace immutably, so it can coexist with
    /// [`Workspace::was_binding`] queries.
    pub fn rates(&self) -> &[f64] {
        self.scratch.rates()
    }
}

/// Reusable state for frontier-limited incremental re-solves.
///
/// The engine seeds the change-queue with the links whose flow set changed
/// (`dirty` set *D*), pulls in the flows crossing them (*F*), and the
/// other links those flows cross (`boundary` set *B*). Boundary links are
/// modeled by their *residual* capacity (full capacity minus the current
/// rates of flows outside *F*). After a candidate solve over *D ∪ B*, a
/// boundary link must be promoted to dirty — expanding the frontier — iff
/// it has outside flows and either (a) it was binding in the candidate
/// solve, or (b) some *F*-flow crossing it changed rate: in either case
/// the frozen outside rates baked into its residual may no longer be the
/// true max-min rates. When no promotion fires, the candidate rates are
/// bitwise identical to a full-component solve and can be committed.
///
/// All fields are buffers retained across solves; [`Frontier::new`] plus
/// the engine-side reset protocol keep the hot path allocation-free once
/// warm. The fields are crate-internal: this type exists so the engine's
/// change-queue state lives beside the solver it feeds.
#[derive(Clone, Debug, Default)]
pub struct Frontier {
    /// Dirty links *D*, in discovery order.
    pub(crate) dirty: Vec<usize>,
    /// Per-link membership mask for `dirty`.
    pub(crate) in_dirty: Vec<bool>,
    /// Boundary links *B*, in discovery order (may contain links later
    /// promoted to dirty; `in_dirty` takes precedence).
    pub(crate) boundary: Vec<usize>,
    /// Per-link membership mask for `boundary`.
    pub(crate) in_boundary: Vec<bool>,
    /// Flows *F* (engine slot indices), in discovery order.
    pub(crate) flows: Vec<u32>,
    /// Per-slot membership mask for `flows`.
    pub(crate) in_flows: Vec<bool>,
    /// Per-link count of *F*-flows crossing it (routes are deduplicated,
    /// so this compares directly against the engine's per-link flow
    /// registry length to detect outside flows).
    pub(crate) f_count: Vec<u32>,
    /// Per-slot scratch: did this flow's rate change in the candidate?
    pub(crate) changed: Vec<bool>,
    /// Per-link map to the candidate problem's workspace index.
    pub(crate) local: Vec<usize>,
    /// Sorted link set of the candidate problem.
    pub(crate) links_sorted: Vec<usize>,
    /// Scratch for canonical (serial-ordered) residual summation.
    pub(crate) outside: Vec<(u64, f64)>,
}

impl Frontier {
    /// An empty frontier; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow per-link buffers to cover `num_links` links.
    pub(crate) fn ensure_links(&mut self, num_links: usize) {
        if self.in_dirty.len() < num_links {
            self.in_dirty.resize(num_links, false);
            self.in_boundary.resize(num_links, false);
            self.f_count.resize(num_links, 0);
            self.local.resize(num_links, usize::MAX);
        }
    }

    /// Grow per-slot buffers to cover `num_slots` activity slots.
    pub(crate) fn ensure_slots(&mut self, num_slots: usize) {
        if self.in_flows.len() < num_slots {
            self.in_flows.resize(num_slots, false);
            self.changed.resize(num_slots, false);
        }
    }

    /// Clear membership masks and counts touched by the last solve, then
    /// drop the discovery lists. O(|D| + |B| + |F| + links in problem).
    pub(crate) fn reset(&mut self) {
        for &l in &self.dirty {
            self.in_dirty[l] = false;
        }
        for &l in &self.boundary {
            self.in_boundary[l] = false;
        }
        for &l in &self.links_sorted {
            self.f_count[l] = 0;
        }
        for &s in &self.flows {
            self.in_flows[s as usize] = false;
        }
        self.dirty.clear();
        self.boundary.clear();
        self.flows.clear();
        self.links_sorted.clear();
        self.outside.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn single_flow_gets_full_link() {
        let rates = max_min_fair_share(&[100.0], &[vec![0]]);
        assert!(close(rates[0], 100.0));
    }

    #[test]
    fn two_flows_split_evenly() {
        let rates = max_min_fair_share(&[100.0], &[vec![0], vec![0]]);
        assert!(close(rates[0], 50.0));
        assert!(close(rates[1], 50.0));
    }

    #[test]
    fn bottleneck_frees_capacity_elsewhere() {
        // Link 0: cap 100 shared by flows A and B. Link 1: cap 30, only B.
        // B is bottlenecked at 30 on link 1, so A gets 70 on link 0.
        let rates = max_min_fair_share(&[100.0, 30.0], &[vec![0], vec![0, 1]]);
        assert!(close(rates[1], 30.0), "B: {}", rates[1]);
        assert!(close(rates[0], 70.0), "A: {}", rates[0]);
    }

    #[test]
    fn classic_three_flow_line_network() {
        // Line of 2 links, cap 1 each. Flow 0 uses both; flows 1 and 2 use
        // one link each. Max-min: flow 0 gets 0.5, flows 1 and 2 get 0.5.
        let rates = max_min_fair_share(&[1.0, 1.0], &[vec![0, 1], vec![0], vec![1]]);
        assert!(close(rates[0], 0.5));
        assert!(close(rates[1], 0.5));
        assert!(close(rates[2], 0.5));
    }

    #[test]
    fn heterogeneous_line_network() {
        // Link caps 1 and 2. Long flow + one local flow per link.
        // Bottleneck is link 0: share 0.5 freezes long flow and flow 1.
        // Flow 2 then gets 2 - 0.5 = 1.5.
        let rates = max_min_fair_share(&[1.0, 2.0], &[vec![0, 1], vec![0], vec![1]]);
        assert!(close(rates[0], 0.5));
        assert!(close(rates[1], 0.5));
        assert!(close(rates[2], 1.5));
    }

    #[test]
    fn visits_count_link_scans_and_flow_list_entries() {
        // Same network as above. Round 1 scans 2 links and walks link 0's
        // list (flows 0 and 1); round 2 scans 2 links and walks link 1's
        // list (flow 0, already frozen, and flow 2).
        let mut ws = Workspace::new();
        ws.load(&[1.0, 2.0], &[vec![0, 1], vec![0], vec![1]]);
        ws.solve();
        assert_eq!(ws.visits(), (2 + 2) + (2 + 2));
        ws.load(&[1.0], &[]);
        ws.solve();
        assert_eq!(ws.visits(), 0, "the count is per solve");
    }

    #[test]
    fn empty_route_is_unconstrained() {
        let rates = max_min_fair_share(&[10.0], &[vec![], vec![0]]);
        assert_eq!(rates[0], f64::INFINITY);
        assert!(close(rates[1], 10.0));
    }

    #[test]
    fn duplicate_links_in_route_count_once() {
        let rates = max_min_fair_share(&[100.0], &[vec![0, 0], vec![0]]);
        assert!(close(rates[0], 50.0));
        assert!(close(rates[1], 50.0));
    }

    #[test]
    fn no_flows_yields_empty() {
        assert!(max_min_fair_share(&[1.0, 2.0], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "references link")]
    fn out_of_bounds_route_panics() {
        max_min_fair_share(&[1.0], &[vec![3]]);
    }

    /// Progressive filling as it was written before links kept their own
    /// flow lists: every round tests every flow's route for the
    /// bottleneck. Kept as the oracle [`Workspace::solve`] must equal bit
    /// for bit (rates and binding set).
    fn solve_by_scan(capacities: &[f64], flow_routes: &[Vec<usize>]) -> (Vec<f64>, Vec<bool>) {
        let routes: Vec<Vec<usize>> = flow_routes
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.sort_unstable();
                r.dedup();
                r
            })
            .collect();
        let nf = routes.len();
        let nl = capacities.len();
        let mut rates = vec![f64::INFINITY; nf];
        let mut binding = vec![false; nl];
        let mut remaining = capacities.to_vec();
        let mut crossing = vec![0usize; nl];
        let mut frozen = vec![false; nf];
        let mut unfrozen_constrained = 0usize;
        for (f, route) in routes.iter().enumerate() {
            if route.is_empty() {
                frozen[f] = true;
            } else {
                unfrozen_constrained += 1;
                for &l in route {
                    crossing[l] += 1;
                }
            }
        }
        while unfrozen_constrained > 0 {
            let mut best: Option<(usize, f64)> = None;
            for l in 0..nl {
                if crossing[l] == 0 {
                    continue;
                }
                let share = remaining[l].max(0.0) / crossing[l] as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((l, share));
                }
            }
            let (bottleneck, share) = best.expect("unfrozen flows imply a crossed link");
            binding[bottleneck] = true;
            for f in 0..nf {
                if frozen[f] || !routes[f].contains(&bottleneck) {
                    continue;
                }
                frozen[f] = true;
                unfrozen_constrained -= 1;
                rates[f] = share;
                for &l in &routes[f] {
                    remaining[l] -= share;
                    crossing[l] -= 1;
                }
            }
        }
        (rates, binding)
    }

    /// A random problem of up to 40 links x 600 flows with routes of 0-3
    /// links (duplicates allowed), a tenth of the capacities zero and a
    /// tenth negative — the engine's residual capacities go negative, which
    /// is the `max(0.0)` path of the solver.
    fn random_problem(seed: u64) -> (Vec<f64>, Vec<Vec<usize>>) {
        let mut rng = numeric::rng_from_seed(seed);
        let nl = 1 + rng.below(40);
        let nf = rng.below(601);
        let caps = random_capacities(&mut rng, nl);
        let routes = (0..nf)
            .map(|_| (0..rng.below(4)).map(|_| rng.below(nl)).collect())
            .collect();
        (caps, routes)
    }

    /// `nl` capacities, a tenth of them zero and a tenth negative.
    fn random_capacities(rng: &mut numeric::Rng, nl: usize) -> Vec<f64> {
        (0..nl)
            .map(|_| match rng.below(10) {
                0 => 0.0,
                1 => -rng.uniform(0.0, 50.0),
                _ => rng.uniform(0.1, 100.0),
            })
            .collect()
    }

    fn solve_bits(caps: &[f64], routes: &[Vec<usize>]) -> (Vec<u64>, Vec<bool>) {
        let mut ws = Workspace::new();
        ws.load(caps, routes);
        let rates = ws.solve().iter().map(|r| r.to_bits()).collect();
        (rates, (0..caps.len()).map(|l| ws.was_binding(l)).collect())
    }

    proptest! {
        /// `Workspace::solve` equals the scan-based loop on the bits of
        /// every rate and on the binding flag of every link.
        #[test]
        fn prop_solve_equals_the_scan_oracle(seed in 0u64..1_000_000) {
            let (caps, routes) = random_problem(seed);
            let (want_rates, want_binding) = solve_by_scan(&caps, &routes);
            let (rates, binding) = solve_bits(&caps, &routes);
            let want_rates: Vec<u64> = want_rates.iter().map(|r| r.to_bits()).collect();
            prop_assert_eq!(rates, want_rates);
            prop_assert_eq!(binding, want_binding);
        }

        /// A warm workspace that solved a different problem before gives
        /// the same bits as a fresh one: nothing leaks between solves.
        #[test]
        fn prop_warm_workspace_equals_a_fresh_one(seed in 0u64..1_000_000) {
            let mut ws = Workspace::new();
            for k in [seed.wrapping_add(1), seed] {
                let (caps, routes) = random_problem(k);
                ws.load(&caps, &routes);
                ws.solve();
            }
            let (caps, routes) = random_problem(seed);
            let (rates, binding) = solve_bits(&caps, &routes);
            let warm: Vec<u64> = ws.rates().iter().map(|r| r.to_bits()).collect();
            prop_assert_eq!(warm, rates);
            for (l, &b) in binding.iter().enumerate() {
                prop_assert_eq!(ws.was_binding(l), b);
            }
        }

        /// One problem built once and solved under a sequence of capacity
        /// vectors — zero and negative capacities included — with a second
        /// problem solved through the same scratch in between, equals a
        /// fresh `load` + `solve` of each on the bits of every rate, on the
        /// binding flag of every link and on the work count.
        #[test]
        fn prop_a_built_problem_equals_a_fresh_load_under_every_capacity_vector(
            seed in 0u64..1_000_000,
        ) {
            let (caps, routes) = random_problem(seed);
            let (other_caps, other_routes) = random_problem(seed.wrapping_add(1));
            let build = |nl: usize, routes: &[Vec<usize>]| {
                SharingProblem::new(nl, routes.iter().map(|r| r.iter().copied()))
            };
            let problem = build(caps.len(), &routes);
            let other = build(other_caps.len(), &other_routes);
            let mut scratch = SharingScratch::default();
            let mut rng = numeric::rng_from_seed(!seed);
            let mut capacity_vectors = vec![caps.clone()];
            capacity_vectors.extend((0..4).map(|_| random_capacities(&mut rng, caps.len())));
            for caps in &capacity_vectors {
                for (problem, caps, routes) in [
                    (&problem, caps, &routes),
                    (&other, &other_caps, &other_routes),
                ] {
                    let mut fresh = Workspace::new();
                    fresh.load(caps, routes);
                    let want: Vec<u64> = fresh.solve().iter().map(|r| r.to_bits()).collect();
                    let got: Vec<u64> =
                        problem.solve(caps, &mut scratch).iter().map(|r| r.to_bits()).collect();
                    prop_assert_eq!(got, want);
                    for l in 0..caps.len() {
                        prop_assert_eq!(scratch.was_binding(l), fresh.was_binding(l), "link {}", l);
                    }
                    prop_assert_eq!(scratch.visits(), fresh.visits());
                }
            }
        }

        /// Routes sorted and de-duplicated ahead of time, pushed with
        /// `push_sorted_route` into a warm workspace, solve to the same
        /// bits as `push_route` of the raw routes.
        #[test]
        fn prop_push_sorted_route_equals_push_route(seed in 0u64..1_000_000) {
            let (caps, routes) = random_problem(seed);
            let mut ws = Workspace::new();
            let (warm_caps, warm_routes) = random_problem(seed.wrapping_add(1));
            ws.load(&warm_caps, &warm_routes);
            ws.solve();
            ws.clear();
            for &cap in &caps {
                ws.push_capacity(cap);
            }
            for route in &routes {
                let mut route = route.clone();
                route.sort_unstable();
                route.dedup();
                ws.push_sorted_route(route.iter().map(|&l| l as u32));
            }
            let sorted: Vec<u64> = ws.solve().iter().map(|r| r.to_bits()).collect();
            let (rates, binding) = solve_bits(&caps, &routes);
            prop_assert_eq!(sorted, rates);
            for (l, &b) in binding.iter().enumerate() {
                prop_assert_eq!(ws.was_binding(l), b);
            }
        }

        /// Per-flow rates and the binding set do not depend on the order
        /// flows are pushed in — what lets the engine build its candidate
        /// problems in discovery order.
        #[test]
        fn prop_push_order_does_not_move_a_bit(seed in 0u64..1_000_000) {
            let (caps, routes) = random_problem(seed);
            let mut rng = numeric::rng_from_seed(!seed);
            let mut order: Vec<usize> = (0..routes.len()).collect();
            rng.shuffle(&mut order);
            let shuffled: Vec<Vec<usize>> = order.iter().map(|&f| routes[f].clone()).collect();
            let (rates, binding) = solve_bits(&caps, &routes);
            let (shuffled_rates, shuffled_binding) = solve_bits(&caps, &shuffled);
            for (i, &f) in order.iter().enumerate() {
                prop_assert_eq!(shuffled_rates[i], rates[f], "flow {}", f);
            }
            prop_assert_eq!(shuffled_binding, binding);
        }

        /// No link is over-subscribed by the computed allocation.
        #[test]
        fn prop_capacity_never_exceeded(
            caps in proptest::collection::vec(0.1f64..100.0, 1..=40),
            routes in proptest::collection::vec(
                proptest::collection::vec(0usize..40, 1..4), 1..=600),
        ) {
            let nl = caps.len();
            let routes: Vec<Vec<usize>> = routes
                .into_iter()
                .map(|r| r.into_iter().map(|l| l % nl).collect())
                .collect();
            let rates = max_min_fair_share(&caps, &routes);
            for (l, &cap) in caps.iter().enumerate() {
                let used: f64 = routes
                    .iter()
                    .zip(&rates)
                    .filter(|(route, _)| route.contains(&l))
                    .map(|(_, r)| r)
                    .sum();
                prop_assert!(used <= cap * (1.0 + 1e-9) + 1e-9,
                    "link {l}: used {used} > cap {cap}");
            }
        }

        /// Every flow has a saturated bottleneck link: the allocation is
        /// Pareto-efficient (no single flow's rate can increase).
        #[test]
        fn prop_every_flow_has_saturated_bottleneck(
            caps in proptest::collection::vec(0.1f64..100.0, 1..=40),
            routes in proptest::collection::vec(
                proptest::collection::vec(0usize..40, 1..4), 1..=600),
        ) {
            let nl = caps.len();
            let routes: Vec<Vec<usize>> = routes
                .into_iter()
                .map(|r| r.into_iter().map(|l| l % nl).collect())
                .collect();
            let rates = max_min_fair_share(&caps, &routes);
            let used: Vec<f64> = (0..nl)
                .map(|l| routes.iter().zip(&rates)
                    .filter(|(route, _)| route.contains(&l))
                    .map(|(_, r)| r)
                    .sum())
                .collect();
            for route in &routes {
                let saturated = route
                    .iter()
                    .any(|&l| used[l] >= caps[l] * (1.0 - 1e-6));
                prop_assert!(saturated, "flow has slack on all its links");
            }
        }

        /// All rates are non-negative and finite for non-empty routes.
        #[test]
        fn prop_rates_valid(
            caps in proptest::collection::vec(0.1f64..100.0, 1..=40),
            routes in proptest::collection::vec(
                proptest::collection::vec(0usize..40, 1..4), 0..=600),
        ) {
            let nl = caps.len();
            let routes: Vec<Vec<usize>> = routes
                .into_iter()
                .map(|r| r.into_iter().map(|l| l % nl).collect())
                .collect();
            let rates = max_min_fair_share(&caps, &routes);
            for r in &rates {
                prop_assert!(*r >= 0.0 && r.is_finite());
            }
        }
    }
}
