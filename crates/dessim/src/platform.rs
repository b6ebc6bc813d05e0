//! Platform description: links, hosts, and disks.
//!
//! A [`Platform`] is a flat registry of resources referenced by typed ids.
//! Topology (which links make up the route between two hosts) is owned by
//! the simulator built on top — the kernel only needs to know each flow's
//! route as a list of [`LinkId`]s.

/// Identifier of a network link within a [`Platform`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub(crate) usize);

/// Identifier of a host within a [`Platform`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub(crate) usize);

/// Identifier of a disk within a [`Platform`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DiskId(pub(crate) usize);

impl LinkId {
    /// The raw index of this link (stable for the platform's lifetime).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl HostId {
    /// The raw index of this host.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl DiskId {
    /// The raw index of this disk.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A network link with a bandwidth (bytes/s) and a latency (s).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Latency in seconds, charged once per flow at flow start.
    pub latency: f64,
}

/// A compute host with a number of cores and a per-core speed (ops/s).
///
/// The kernel does not enforce core allocation — the simulator on top
/// decides which compute activities run and at what rate — but hosts are
/// registered here so every layer shares one resource namespace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Host {
    /// Number of cores available for task execution.
    pub cores: u32,
    /// Speed of one core in (abstract) operations per second.
    pub core_speed: f64,
}

/// A storage disk with a bandwidth (bytes/s) shared equally among active
/// operations, and a cap on how many operations may be active at once
/// (excess operations queue FIFO).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Disk {
    /// Bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Maximum number of concurrently-served I/O operations.
    pub max_concurrency: u32,
}

/// Registry of simulated hardware resources.
#[derive(Clone, Debug, Default)]
pub struct Platform {
    links: Vec<Link>,
    hosts: Vec<Host>,
    disks: Vec<Disk>,
}

impl Platform {
    /// An empty platform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a link and return its id.
    ///
    /// # Panics
    /// Panics if `bandwidth` is not strictly positive or `latency` is
    /// negative/non-finite.
    pub fn add_link(&mut self, bandwidth: f64, latency: f64) -> LinkId {
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "link bandwidth must be positive"
        );
        assert!(
            latency >= 0.0 && latency.is_finite(),
            "link latency must be non-negative"
        );
        self.links.push(Link { bandwidth, latency });
        LinkId(self.links.len() - 1)
    }

    /// Register a host and return its id.
    ///
    /// # Panics
    /// Panics if `cores == 0` or `core_speed` is not strictly positive.
    pub fn add_host(&mut self, cores: u32, core_speed: f64) -> HostId {
        assert!(cores > 0, "host must have at least one core");
        assert!(
            core_speed > 0.0 && core_speed.is_finite(),
            "core speed must be positive"
        );
        self.hosts.push(Host { cores, core_speed });
        HostId(self.hosts.len() - 1)
    }

    /// Register a disk and return its id.
    ///
    /// # Panics
    /// Panics if `bandwidth` is not strictly positive or
    /// `max_concurrency == 0`.
    pub fn add_disk(&mut self, bandwidth: f64, max_concurrency: u32) -> DiskId {
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "disk bandwidth must be positive"
        );
        assert!(
            max_concurrency > 0,
            "disk must serve at least one operation"
        );
        self.disks.push(Disk {
            bandwidth,
            max_concurrency,
        });
        DiskId(self.disks.len() - 1)
    }

    /// Look up a link.
    #[inline]
    pub fn link(&self, id: LinkId) -> Link {
        self.links[id.0]
    }

    /// Look up a host.
    pub fn host(&self, id: HostId) -> Host {
        self.hosts[id.0]
    }

    /// Look up a disk.
    #[inline]
    pub fn disk(&self, id: DiskId) -> Disk {
        self.disks[id.0]
    }

    /// Number of registered links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of registered disks.
    #[inline]
    pub fn num_disks(&self) -> usize {
        self.disks.len()
    }

    /// Iterate over `(id, link)` pairs.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, Link)> + '_ {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), *l))
    }

    /// Sum of latencies along a route, in seconds.
    pub fn route_latency(&self, route: &[LinkId]) -> f64 {
        route.iter().map(|id| self.links[id.0].latency).sum()
    }

    /// Minimum bandwidth along a route, in bytes/s (infinite for an empty
    /// route, which models an intra-host "loopback" transfer).
    pub fn route_bottleneck(&self, route: &[LinkId]) -> f64 {
        route
            .iter()
            .map(|id| self.links[id.0].bandwidth)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_assigns_sequential_ids() {
        let mut p = Platform::new();
        let a = p.add_link(1e9, 1e-3);
        let b = p.add_link(2e9, 2e-3);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(p.link(b).bandwidth, 2e9);
        assert_eq!(p.num_links(), 2);
    }

    #[test]
    fn route_latency_and_bottleneck() {
        let mut p = Platform::new();
        let a = p.add_link(1e9, 1e-3);
        let b = p.add_link(5e8, 2e-3);
        assert_eq!(p.route_latency(&[a, b]), 3e-3);
        assert_eq!(p.route_bottleneck(&[a, b]), 5e8);
        assert_eq!(p.route_bottleneck(&[]), f64::INFINITY);
        assert_eq!(p.route_latency(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_link_rejected() {
        Platform::new().add_link(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_host_rejected() {
        Platform::new().add_host(0, 1e9);
    }

    #[test]
    #[should_panic(expected = "at least one operation")]
    fn zero_concurrency_disk_rejected() {
        Platform::new().add_disk(1e8, 0);
    }
}
