//! The WAN link: its cost model, its live state and transfers over it.

use crate::error::NetError;
use crate::NetResult;
use msr_obs::{ops, Layer, Recorder};
use msr_sim::{Clock, Jitter, SimDuration};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Static description of a bidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One-way latency charged once per request on this link.
    pub latency: SimDuration,
    /// Nominal bandwidth in megabytes per second (decimal MB).
    pub bandwidth_mb_s: f64,
    /// Multiplicative noise applied to each transfer on this link.
    pub jitter: Jitter,
}

impl LinkSpec {
    /// A noise-free link, handy in unit tests.
    pub fn ideal(latency: SimDuration, bandwidth_mb_s: f64) -> Self {
        LinkSpec {
            latency,
            bandwidth_mb_s,
            jitter: Jitter::None,
        }
    }

    /// Year-2000 WAN profile between national labs: ~25 ms latency and a
    /// sustained application-level rate of a few hundred KB/s, with WAN
    /// jitter. `rate_mb_s` sets the sustained rate.
    pub fn wan(rate_mb_s: f64) -> Self {
        LinkSpec {
            latency: SimDuration::from_millis(25.0),
            bandwidth_mb_s: rate_mb_s,
            jitter: Jitter::wan_default(),
        }
    }
}

/// Fixed protocol overheads of a storage access protocol (SRB-like). The
/// paper's eq. (1) charges `T_conn` once when a storage connection is
/// established and `T_connclose` when it is torn down; these are the
/// server-side parts of them (calibrated to Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolCosts {
    /// Server-side connection establishment work added on top of the link
    /// round trip (authentication, session setup).
    pub conn_setup: SimDuration,
    /// Connection teardown cost.
    pub conn_teardown: SimDuration,
    /// Extra server processing charged on every request (marshalling,
    /// catalog touch).
    pub per_request: SimDuration,
}

/// One link between a client site and a server site with α–β transfer
/// costs.
///
/// Changing its state (outages, load, observer) takes `&mut self`;
/// transfers take `&self` and draw their jitter from the caller's stream,
/// so concurrent simulated streams can share the network.
#[derive(Debug)]
pub struct Network {
    /// `"<client>-<server>"`, the resource name of the link's events.
    name: String,
    spec: LinkSpec,
    up: bool,
    /// Equivalent number of competing background streams; effective
    /// per-stream bandwidth is `bandwidth / (own_streams + background_load)`.
    background_load: f64,
    recorder: Recorder,
    clock: Clock,
}

impl Network {
    /// A live, unloaded link from `client` to `server`.
    pub fn new(client: &str, server: &str, spec: LinkSpec) -> Self {
        Network {
            name: format!("{client}-{server}"),
            spec,
            up: true,
            background_load: 0.0,
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

    /// Bring the link up or down (maintenance / failure injection).
    pub fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Whether the link is currently usable.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Set the equivalent number of competing background streams.
    pub fn set_background_load(&mut self, load: f64) {
        self.background_load = load.max(0.0);
    }

    /// One-way latency: half the round trip of a connection handshake.
    pub fn latency(&self) -> SimDuration {
        self.spec.latency
    }

    /// Cost of one request moving `bytes` with `streams` parallel streams
    /// from the same transfer sharing the link, with jitter drawn from the
    /// caller's stream, so a caller that serializes its own requests (one
    /// storage resource behind its own lock) gets bitwise-identical costs
    /// whatever other resources do concurrently. A `bytes = 0` request is
    /// a pure control message (pays latency only).
    pub fn transfer_with(
        &self,
        bytes: u64,
        streams: u32,
        rng: &mut StdRng,
    ) -> NetResult<SimDuration> {
        if !self.up {
            if self.recorder.enabled() {
                self.recorder.instant(
                    Layer::Network,
                    &self.name,
                    ops::TRANSFER_FAILED,
                    self.clock.now(),
                    "route down",
                );
            }
            return Err(NetError::RouteDown);
        }
        let total = self
            .spec
            .jitter
            .apply(self.transfer_nominal(bytes, streams), rng);
        if self.recorder.enabled() {
            self.recorder.span(
                Layer::Network,
                &self.name,
                ops::TRANSFER,
                self.clock.now(),
                total,
                bytes,
            );
        }
        Ok(total)
    }

    /// Noise-free variant of [`Network::transfer_with`] used by the
    /// performance predictor (the model must be deterministic). Latency is
    /// paid once; the payload is divided among streams which share the
    /// (possibly loaded) bandwidth, so the stream count cancels for the
    /// data term and only contention from background load remains.
    pub fn transfer_nominal(&self, bytes: u64, streams: u32) -> SimDuration {
        let streams = streams.max(1) as f64;
        let eff_bw = self.spec.bandwidth_mb_s / (streams + self.background_load);
        let per_stream_bytes = bytes as f64 / streams;
        let data = if eff_bw > 0.0 {
            SimDuration::from_secs(per_stream_bytes / (eff_bw * 1e6))
        } else {
            SimDuration::ZERO
        };
        self.spec.latency + data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_obs::Registry;
    use msr_sim::stream_rng;

    fn anl_sdsc(bw: f64) -> Network {
        Network::new(
            "ANL",
            "SDSC",
            LinkSpec::ideal(SimDuration::from_millis(25.0), bw),
        )
    }

    #[test]
    fn nominal_transfer_cost_matches_alpha_beta() {
        // 2 MB at 1 MB/s + 25 ms latency.
        let c = anl_sdsc(1.0).transfer_nominal(2_000_000, 1);
        assert!((c.as_secs() - 2.025).abs() < 1e-9);
    }

    #[test]
    fn control_message_costs_latency_only() {
        assert_eq!(anl_sdsc(1.0).transfer_nominal(0, 1).as_secs(), 0.025);
    }

    #[test]
    fn parallel_streams_do_not_speed_up_a_single_shared_link() {
        // The per-stream share shrinks exactly as the payload split does, so
        // total time is unchanged: the WAN pipe is the bottleneck.
        let n = anl_sdsc(1.0);
        let one = n.transfer_nominal(1_000_000, 1);
        let four = n.transfer_nominal(1_000_000, 4);
        assert!(one.approx_eq(four, 1e-9));
    }

    #[test]
    fn background_load_halves_bandwidth() {
        let mut n = anl_sdsc(1.0);
        let clean = n.transfer_nominal(1_000_000, 1);
        n.set_background_load(1.0);
        let loaded = n.transfer_nominal(1_000_000, 1);
        assert!((loaded.as_secs() - (clean.as_secs() * 2.0 - 0.025)).abs() < 1e-9);
    }

    #[test]
    fn zero_bandwidth_charges_latency_only() {
        assert_eq!(
            anl_sdsc(0.0).transfer_nominal(1_000_000, 1).as_secs(),
            0.025
        );
    }

    #[test]
    fn transfer_fails_while_the_link_is_down() {
        let mut n = anl_sdsc(1.0);
        let mut rng = stream_rng(0, "test");
        n.set_up(false);
        assert!(!n.is_up());
        assert_eq!(n.transfer_with(1, 1, &mut rng), Err(NetError::RouteDown));
        n.set_up(true);
        assert!(n.transfer_with(1, 1, &mut rng).is_ok());
    }

    #[test]
    fn events_name_the_link_client_first() {
        let reg = Registry::new();
        let mut n = anl_sdsc(1.0);
        n.set_observer(reg.recorder(), Clock::new());
        let mut rng = stream_rng(0, "test");
        n.transfer_with(1_000, 1, &mut rng).unwrap();
        n.set_up(false);
        n.transfer_with(1_000, 1, &mut rng).unwrap_err();
        let events = reg.events();
        let names: Vec<_> = events
            .iter()
            .map(|e| (e.resource.as_str(), e.op.as_str()))
            .collect();
        assert_eq!(
            names,
            [
                ("ANL-SDSC", ops::TRANSFER),
                ("ANL-SDSC", ops::TRANSFER_FAILED)
            ]
        );
    }
}
