//! The internetwork graph: sites, links, routing and transfers.

use crate::error::NetError;
use crate::link::{Link, LinkId, LinkSpec};
use crate::site::{Site, SiteId};
use crate::NetResult;
use msr_obs::{ops, Layer, Recorder};
use msr_sim::{stream_rng, Clock, SimDuration};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A graph of sites and bidirectional links with α–β transfer costs.
///
/// Mutating topology/state (adding sites, toggling outages, setting load)
/// takes `&mut self`; transfers take `&self` (only the jitter RNG mutates,
/// behind a mutex) so concurrent simulated streams can share the network.
#[derive(Debug)]
pub struct Network {
    sites: Vec<Site>,
    links: Vec<Link>,
    adj: Vec<Vec<LinkId>>,
    rng: Mutex<StdRng>,
    recorder: Recorder,
    clock: Clock,
}

impl Network {
    /// An empty network whose jitter draws from the given master seed.
    pub fn new(seed: u64) -> Self {
        Network {
            sites: Vec::new(),
            links: Vec::new(),
            adj: Vec::new(),
            rng: Mutex::new(stream_rng(seed, "network-jitter")),
            recorder: Recorder::disabled(),
            clock: Clock::new(),
        }
    }

    /// Attach an observability recorder; transfer spans and failure instants
    /// are stamped with `clock`'s current virtual time.
    pub fn set_observer(&mut self, recorder: Recorder, clock: Clock) {
        self.recorder = recorder;
        self.clock = clock;
    }

    /// Display name for a route: the endpoint sites of its first and last
    /// links (e.g. `"ANL-SDSC"`); a loopback route is `"local"`.
    fn route_name(&self, route: &[LinkId]) -> String {
        match (route.first(), route.last()) {
            (Some(&f), Some(&l)) => {
                let first = &self.links[f.index()];
                let last = &self.links[l.index()];
                // Orient: the first link's endpoint not shared with the rest.
                let start = if route.len() > 1 && (first.a == last.a || first.a == last.b) {
                    first.b
                } else {
                    first.a
                };
                let end = if last.b == start { last.a } else { last.b };
                format!("{}-{}", self.site_name(start), self.site_name(end))
            }
            _ => "local".to_owned(),
        }
    }

    /// Register a site; names should be unique but this is not enforced —
    /// lookups return the first match.
    pub fn add_site(&mut self, name: impl Into<String>) -> SiteId {
        let id = SiteId(u16::try_from(self.sites.len()).expect("too many sites"));
        self.sites.push(Site::new(name));
        self.adj.push(Vec::new());
        id
    }

    /// Find a site by name.
    pub fn site_by_name(&self, name: &str) -> Option<SiteId> {
        self.sites
            .iter()
            .position(|s| s.name == name)
            .map(|i| SiteId(i as u16))
    }

    /// Site name for display.
    pub fn site_name(&self, id: SiteId) -> &str {
        &self.sites[id.index()].name
    }

    /// Add a bidirectional link between `a` and `b`.
    pub fn add_link(&mut self, a: SiteId, b: SiteId, spec: LinkSpec) -> LinkId {
        assert!(a.index() < self.sites.len() && b.index() < self.sites.len());
        let id = LinkId(u32::try_from(self.links.len()).expect("too many links"));
        self.links.push(Link::new(a, b, spec));
        self.adj[a.index()].push(id);
        self.adj[b.index()].push(id);
        id
    }

    /// Inspect a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Bring a link up or down (maintenance / failure injection).
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        self.links[id.index()].up = up;
    }

    /// Bring a whole site up or down. A down site is unroutable.
    pub fn set_site_up(&mut self, id: SiteId, up: bool) {
        self.sites[id.index()].up = up;
    }

    /// Set the equivalent number of competing background streams on a link.
    pub fn set_background_load(&mut self, id: LinkId, load: f64) {
        self.links[id.index()].background_load = load.max(0.0);
    }

    fn link_usable(&self, l: &Link) -> bool {
        l.up && self.sites[l.a.index()].up && self.sites[l.b.index()].up
    }

    /// Shortest live route (by summed latency) between two sites, as a list
    /// of link ids. A route from a site to itself is the empty route.
    pub fn route(&self, from: SiteId, to: SiteId) -> NetResult<Vec<LinkId>> {
        if from.index() >= self.sites.len() {
            return Err(NetError::UnknownSite(from));
        }
        if to.index() >= self.sites.len() {
            return Err(NetError::UnknownSite(to));
        }
        if !self.sites[from.index()].up || !self.sites[to.index()].up {
            return Err(NetError::NoRoute { from, to });
        }
        if from == to {
            return Ok(Vec::new());
        }

        #[derive(PartialEq)]
        struct Entry(f64, SiteId);
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, o: &Self) -> Ordering {
                // Min-heap on latency: reverse the comparison.
                o.0.total_cmp(&self.0)
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }

        let n = self.sites.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<LinkId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[from.index()] = 0.0;
        heap.push(Entry(0.0, from));

        while let Some(Entry(d, u)) = heap.pop() {
            if d > dist[u.index()] {
                continue;
            }
            if u == to {
                break;
            }
            for &lid in &self.adj[u.index()] {
                let l = &self.links[lid.index()];
                if !self.link_usable(l) {
                    continue;
                }
                let Some(v) = l.other_end(u) else { continue };
                let nd = d + l.spec.latency.as_secs();
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    prev[v.index()] = Some(lid);
                    heap.push(Entry(nd, v));
                }
            }
        }

        if dist[to.index()].is_infinite() {
            return Err(NetError::NoRoute { from, to });
        }
        // Walk predecessors back to the source.
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let lid = prev[cur.index()].expect("reached site must have predecessor");
            path.push(lid);
            cur = self.links[lid.index()]
                .other_end(cur)
                .expect("link endpoint consistency");
        }
        path.reverse();
        Ok(path)
    }

    /// True when every link of `route` is currently usable.
    pub fn route_up(&self, route: &[LinkId]) -> bool {
        route
            .iter()
            .all(|&l| self.link_usable(&self.links[l.index()]))
    }

    /// Cost of one request moving `bytes` along `route` with `streams`
    /// parallel streams, including per-link jitter drawn from the network's
    /// own seeded stream. A `bytes = 0` request is a pure round-trip-shaped
    /// control message (pays latency only).
    ///
    /// The shared stream means concurrent callers consume draws in
    /// scheduling order; callers that need order-independent results (the
    /// concurrent-session scheduler overlaps service across resources)
    /// should pass their own serialized stream via
    /// [`Network::transfer_with`].
    pub fn transfer(&self, route: &[LinkId], bytes: u64, streams: u32) -> NetResult<SimDuration> {
        let mut rng = self.rng.lock();
        self.transfer_with(route, bytes, streams, &mut rng)
    }

    /// [`Network::transfer`] with the jitter drawn from a caller-supplied
    /// stream, so a caller that serializes its own requests (e.g. one
    /// storage resource behind its own lock) gets bitwise-identical costs
    /// regardless of what other resources do concurrently.
    pub fn transfer_with(
        &self,
        route: &[LinkId],
        bytes: u64,
        streams: u32,
        rng: &mut StdRng,
    ) -> NetResult<SimDuration> {
        if !self.route_up(route) {
            if self.recorder.enabled() {
                self.recorder.instant(
                    Layer::Network,
                    &self.route_name(route),
                    ops::TRANSFER_FAILED,
                    self.clock.now(),
                    "route down",
                );
            }
            return Err(NetError::RouteDown);
        }
        let mut total = SimDuration::ZERO;
        for &lid in route {
            let l = &self.links[lid.index()];
            let raw = l.transfer_cost(bytes, streams);
            total += l.spec.jitter.apply(raw, rng);
        }
        if self.recorder.enabled() && !route.is_empty() {
            self.recorder.span(
                Layer::Network,
                &self.route_name(route),
                ops::TRANSFER,
                self.clock.now(),
                total,
                bytes,
            );
        }
        Ok(total)
    }

    /// Noise-free variant of [`Network::transfer`] used by the performance
    /// predictor (the model must be deterministic).
    pub fn transfer_nominal(&self, route: &[LinkId], bytes: u64, streams: u32) -> SimDuration {
        route
            .iter()
            .map(|&lid| self.links[lid.index()].transfer_cost(bytes, streams))
            .sum()
    }

    /// Sum of one-way latencies along the route — the cost of a minimal
    /// control message (e.g. a file-seek request to a remote server).
    pub fn route_latency(&self, route: &[LinkId]) -> SimDuration {
        route
            .iter()
            .map(|&lid| self.links[lid.index()].spec.latency)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_sim::SimDuration;

    fn three_site_net() -> (Network, SiteId, SiteId, SiteId) {
        let mut n = Network::new(0);
        let a = n.add_site("ANL");
        let s = n.add_site("SDSC");
        let w = n.add_site("NWU");
        n.add_link(a, s, LinkSpec::ideal(SimDuration::from_millis(25.0), 1.0));
        n.add_link(a, w, LinkSpec::ideal(SimDuration::from_millis(2.0), 10.0));
        n.add_link(w, s, LinkSpec::ideal(SimDuration::from_millis(30.0), 1.0));
        (n, a, s, w)
    }

    #[test]
    fn direct_route_is_chosen() {
        let (n, a, s, _) = three_site_net();
        let r = n.route(a, s).unwrap();
        assert_eq!(r.len(), 1, "direct 25ms beats 2+30ms two-hop");
    }

    #[test]
    fn self_route_is_empty_and_free() {
        let (n, a, _, _) = three_site_net();
        let r = n.route(a, a).unwrap();
        assert!(r.is_empty());
        assert_eq!(n.transfer_nominal(&r, 1 << 20, 1), SimDuration::ZERO);
    }

    #[test]
    fn reroutes_around_down_link() {
        let (mut n, a, s, _) = three_site_net();
        let direct = n.route(a, s).unwrap()[0];
        n.set_link_up(direct, false);
        let r = n.route(a, s).unwrap();
        assert_eq!(r.len(), 2, "falls back to ANL→NWU→SDSC");
        assert!((n.route_latency(&r).as_secs() - 0.032).abs() < 1e-9);
    }

    #[test]
    fn down_site_unroutable() {
        let (mut n, a, s, w) = three_site_net();
        n.set_site_up(s, false);
        assert_eq!(n.route(a, s), Err(NetError::NoRoute { from: a, to: s }));
        // Other destinations still work.
        assert!(n.route(a, w).is_ok());
    }

    #[test]
    fn fully_partitioned_reports_no_route() {
        let (mut n, a, s, _) = three_site_net();
        for i in 0..3 {
            n.set_link_up(LinkId(i), false);
        }
        assert!(matches!(n.route(a, s), Err(NetError::NoRoute { .. })));
    }

    #[test]
    fn nominal_transfer_cost_matches_alpha_beta() {
        let (n, a, s, _) = three_site_net();
        let r = n.route(a, s).unwrap();
        // 2 MB at 1 MB/s + 25 ms latency.
        let c = n.transfer_nominal(&r, 2_000_000, 1);
        assert!((c.as_secs() - 2.025).abs() < 1e-9);
    }

    #[test]
    fn transfer_fails_when_route_goes_down() {
        let (mut n, a, s, _) = three_site_net();
        let r = n.route(a, s).unwrap();
        n.set_link_up(r[0], false);
        assert_eq!(n.transfer(&r, 1, 1), Err(NetError::RouteDown));
    }

    #[test]
    fn unknown_site_is_reported() {
        let (n, a, _, _) = three_site_net();
        let bogus = SiteId(99);
        assert_eq!(n.route(a, bogus), Err(NetError::UnknownSite(bogus)));
    }

    #[test]
    fn site_lookup_by_name() {
        let (n, a, s, _) = three_site_net();
        assert_eq!(n.site_by_name("ANL"), Some(a));
        assert_eq!(n.site_by_name("SDSC"), Some(s));
        assert_eq!(n.site_by_name("LANL"), None);
        assert_eq!(n.site_name(a), "ANL");
    }

    #[test]
    fn background_load_halves_bandwidth() {
        let (mut n, a, s, _) = three_site_net();
        let r = n.route(a, s).unwrap();
        let clean = n.transfer_nominal(&r, 1_000_000, 1);
        n.set_background_load(r[0], 1.0);
        let loaded = n.transfer_nominal(&r, 1_000_000, 1);
        assert!((loaded.as_secs() - (clean.as_secs() * 2.0 - 0.025)).abs() < 1e-9);
    }

    #[test]
    fn control_message_costs_latency_only() {
        let (n, a, s, _) = three_site_net();
        let r = n.route(a, s).unwrap();
        assert_eq!(n.transfer_nominal(&r, 0, 1).as_secs(), 0.025);
    }
}
