//! Baseline flow synthesis.
//!
//! Produces the *sampled* flow-record population of one `(timebin, OD pair)`
//! cell: the records a 1%-sampling collector would export for ordinary
//! traffic. Counts follow Poisson around a gravity x diurnal x lognormal
//! mean; per-flow packet counts are heavy-tailed (a small elephant
//! fraction); destination ports follow a realistic application mix; and a
//! configurable fraction of flows is addressed to unannounced space so the
//! measurement pipeline reproduces the paper's ~93% resolution rate.

use crate::error::{GenError, Result};
use crate::rng::{lognormal_noise, poisson};
use odflow_flow::{FlowKey, FlowRecord, Protocol, MINUTE_SECS};
use odflow_net::{AddressPlan, PopId};
use rand::Rng;

/// The [`MINUTE_SECS`] export windows a bin of `bin_secs` spans, at least
/// one: a rendered record starts in one of them.
pub(crate) fn minutes_in(bin_secs: u64) -> u64 {
    (bin_secs / MINUTE_SECS).max(1)
}

/// Parameters of the baseline traffic population.
#[derive(Debug, Clone, Copy)]
pub struct BaselineParams {
    /// Multiplicative lognormal noise σ on each cell's mean.
    pub noise_sigma: f64,
    /// Probability a flow's destination lies in unannounced space
    /// (unresolvable; the paper observes ≈7% of flows failing resolution).
    pub unresolvable_frac: f64,
    /// Probability a flow is an "elephant" with a heavy packet count.
    pub elephant_frac: f64,
    /// Mean sampled packets of a mouse flow beyond the first packet.
    pub mouse_extra_packets: f64,
    /// Mean sampled packets of an elephant flow.
    pub elephant_packets: f64,
}

impl Default for BaselineParams {
    /// Calibrated so that the subspace method's thresholds hold their
    /// nominal false-alarm rate on anomaly-free traffic: multiplicative
    /// noise at σ = 0.10 keeps the residual near-homoscedastic across the
    /// diurnal cycle, and elephants are frequent-but-moderate so per-cell
    /// byte counts aggregate toward normality (the Q statistic's
    /// assumption) instead of being dominated by single huge flows.
    fn default() -> Self {
        BaselineParams {
            noise_sigma: 0.10,
            unresolvable_frac: 0.06,
            elephant_frac: 0.08,
            mouse_extra_packets: 1.2,
            elephant_packets: 15.0,
        }
    }
}

impl BaselineParams {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// [`GenError::InvalidParameter`] for out-of-range fields.
    pub fn validate(&self) -> Result<()> {
        if !(self.noise_sigma >= 0.0 && self.noise_sigma < 2.0) {
            return Err(GenError::InvalidParameter {
                what: "noise_sigma",
                value: self.noise_sigma,
            });
        }
        if !(0.0..1.0).contains(&self.unresolvable_frac) {
            return Err(GenError::InvalidParameter {
                what: "unresolvable_frac",
                value: self.unresolvable_frac,
            });
        }
        if !(0.0..1.0).contains(&self.elephant_frac) {
            return Err(GenError::InvalidParameter {
                what: "elephant_frac",
                value: self.elephant_frac,
            });
        }
        if !(self.mouse_extra_packets >= 0.0) {
            return Err(GenError::InvalidParameter {
                what: "mouse_extra_packets",
                value: self.mouse_extra_packets,
            });
        }
        if !(self.elephant_packets >= 1.0) {
            return Err(GenError::InvalidParameter {
                what: "elephant_packets",
                value: self.elephant_packets,
            });
        }
        Ok(())
    }
}

/// The application port mix for baseline traffic (destination port,
/// weight). The remainder of the probability mass goes to ephemeral high
/// ports.
const PORT_MIX: [(u16, f64); 8] = [
    (80, 0.34),   // web
    (443, 0.14),  // tls
    (53, 0.06),   // dns
    (25, 0.04),   // smtp
    (22, 0.03),   // ssh
    (119, 0.02),  // nntp
    (1412, 0.02), // kazaa/morpheus filesharing (paper §4)
    (21, 0.01),   // ftp
];

/// Draws a destination port from the application mix.
pub fn draw_dst_port(rng: &mut impl Rng) -> u16 {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for &(port, w) in &PORT_MIX {
        acc += w;
        if u < acc {
            return port;
        }
    }
    rng.gen_range(1024..=65_535)
}

/// Draws a per-packet byte size: a mix of minimum-size control packets,
/// mid-size, and MTU-size data packets.
pub fn draw_packet_bytes(rng: &mut impl Rng) -> u32 {
    let u: f64 = rng.gen();
    if u < 0.35 {
        40
    } else if u < 0.60 {
        rng.gen_range(200..600)
    } else {
        1500
    }
}

/// Synthesizes the sampled baseline flow records of one cell.
///
/// * `mean_flows` — the cell's expected observed-flow count (already scaled
///   by gravity, diurnal, and any anomaly baseline modifiers).
/// * `origin` / `destination` — the OD pair; source addresses come from the
///   origin's customer blocks, destinations from the destination's blocks
///   (or unannounced space with probability `unresolvable_frac`).
/// * `bin_start` / `bin_secs` — the timebin; record windows land on minute
///   boundaries within it.
///
/// Records carry `router = origin`, `interface = 0` (customer port) so the
/// OD resolver attributes ingress exactly as the paper's procedure does.
///
/// Each record goes to `sink` as it is drawn: the fused generate→bin path
/// renders whole bins straight into ingest shards this way, so a scenario
/// run never allocates per-cell record buffers.
#[allow(clippy::too_many_arguments)]
pub fn synthesize_cell_into(
    params: &BaselineParams,
    plan: &AddressPlan,
    origin: PopId,
    destination: PopId,
    mean_flows: f64,
    bin_start: u64,
    bin_secs: u64,
    rng: &mut impl Rng,
    sink: &mut impl FnMut(FlowRecord),
) {
    let noisy_mean = mean_flows * lognormal_noise(params.noise_sigma, rng);
    let count = poisson(noisy_mean, rng);
    let minutes = minutes_in(bin_secs);
    for _ in 0..count {
        let src_ip = plan.customer_addr(
            origin,
            rng.gen_range(0..AddressPlan::BLOCKS_PER_POP),
            rng.gen::<u32>(),
        );
        let unresolvable = rng.gen::<f64>() < params.unresolvable_frac;
        let dst_ip = if unresolvable {
            plan.unannounced_addr(rng.gen_range(0..plan.num_pops()), rng.gen::<u32>())
        } else {
            plan.customer_addr(
                destination,
                rng.gen_range(0..AddressPlan::BLOCKS_PER_POP),
                rng.gen::<u32>(),
            )
        };
        let elephant = rng.gen::<f64>() < params.elephant_frac;
        let packets = if elephant {
            1 + poisson(params.elephant_packets, rng)
        } else {
            1 + poisson(params.mouse_extra_packets, rng)
        };
        let mut bytes = 0u64;
        // Large flows: draw a handful of representative packet sizes and
        // extrapolate, rather than per-packet draws.
        let sample_n = packets.min(8);
        for _ in 0..sample_n {
            bytes += draw_packet_bytes(rng) as u64;
        }
        bytes = (bytes as f64 * packets as f64 / sample_n as f64) as u64;

        let protocol = if rng.gen::<f64>() < 0.85 { Protocol::Tcp } else { Protocol::Udp };
        let key = FlowKey::new(
            src_ip,
            dst_ip,
            rng.gen_range(1024..=65_535),
            draw_dst_port(rng),
            protocol,
        );
        sink(FlowRecord {
            key,
            router: origin,
            interface: 0,
            window_start: bin_start + rng.gen_range(0..minutes) * MINUTE_SECS,
            packets,
            bytes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{cell_rng, Stream};
    use odflow_net::Topology;

    fn setup() -> AddressPlan {
        AddressPlan::synthetic(&Topology::abilene())
    }

    /// One cell's records, collected from the streaming sink.
    #[allow(clippy::too_many_arguments)]
    fn cell_records(
        params: &BaselineParams,
        plan: &AddressPlan,
        origin: PopId,
        destination: PopId,
        mean_flows: f64,
        bin_start: u64,
        bin_secs: u64,
        rng: &mut impl Rng,
    ) -> Vec<FlowRecord> {
        let mut records = Vec::new();
        synthesize_cell_into(
            params,
            plan,
            origin,
            destination,
            mean_flows,
            bin_start,
            bin_secs,
            rng,
            &mut |r| records.push(r),
        );
        records
    }

    #[test]
    fn default_params_validate() {
        BaselineParams::default().validate().unwrap();
    }

    #[test]
    fn rejects_out_of_range_params() {
        let p = BaselineParams { noise_sigma: -0.1, ..Default::default() };
        assert!(p.validate().is_err());
        let p = BaselineParams { unresolvable_frac: 1.0, ..Default::default() };
        assert!(p.validate().is_err());
        let p = BaselineParams { elephant_frac: -0.01, ..Default::default() };
        assert!(p.validate().is_err());
        let p = BaselineParams { elephant_packets: 0.5, ..Default::default() };
        assert!(p.validate().is_err());
    }

    #[test]
    fn deterministic_given_same_rng_seed() {
        let plan = setup();
        let params = BaselineParams::default();
        let mut r1 = cell_rng(1, 2, 3, Stream::Baseline);
        let mut r2 = cell_rng(1, 2, 3, Stream::Baseline);
        let a = cell_records(&params, &plan, 0, 5, 20.0, 0, 300, &mut r1);
        let b = cell_records(&params, &plan, 0, 5, 20.0, 0, 300, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn mean_flow_count_respected() {
        let plan = setup();
        let params = BaselineParams { noise_sigma: 0.0, ..Default::default() };
        let mut total = 0usize;
        let trials = 300;
        for i in 0..trials {
            let mut rng = cell_rng(7, i, 0, Stream::Baseline);
            total += cell_records(&params, &plan, 1, 2, 15.0, 0, 300, &mut rng).len();
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 15.0).abs() < 1.0, "mean flows {mean}");
    }

    #[test]
    fn records_attributed_to_origin_router_customer_iface() {
        let plan = setup();
        let mut rng = cell_rng(1, 0, 0, Stream::Baseline);
        let recs = cell_records(&BaselineParams::default(), &plan, 4, 9, 30.0, 600, 300, &mut rng);
        assert!(!recs.is_empty());
        for r in &recs {
            assert_eq!(r.router, 4);
            assert_eq!(r.interface, 0);
            assert!(r.window_start >= 600 && r.window_start < 900);
            assert_eq!(r.window_start % MINUTE_SECS, 0, "windows land on minute boundaries");
            assert!(r.packets >= 1);
            assert!(r.bytes >= 40, "at least one minimal packet");
        }
    }

    #[test]
    fn unresolvable_fraction_close_to_configured() {
        let plan = setup();
        let params =
            BaselineParams { unresolvable_frac: 0.07, noise_sigma: 0.0, ..Default::default() };
        let mut unres = 0usize;
        let mut total = 0usize;
        for i in 0..200 {
            let mut rng = cell_rng(11, i, 5, Stream::Baseline);
            for r in cell_records(&params, &plan, 0, 3, 50.0, 0, 300, &mut rng) {
                total += 1;
                // Unannounced space is 172.16/12 in the synthetic plan.
                if r.key.dst_ip.octets()[0] == 172 {
                    unres += 1;
                }
            }
        }
        let frac = unres as f64 / total as f64;
        assert!((frac - 0.07).abs() < 0.015, "unresolvable fraction {frac}");
    }

    #[test]
    fn port_mix_dominated_by_web() {
        let mut rng = cell_rng(2, 0, 0, Stream::Baseline);
        let n = 50_000;
        let mut web = 0usize;
        for _ in 0..n {
            let p = draw_dst_port(&mut rng);
            if p == 80 || p == 443 {
                web += 1;
            }
        }
        let frac = web as f64 / n as f64;
        assert!((frac - 0.48).abs() < 0.02, "web fraction {frac}");
    }

    #[test]
    fn packet_sizes_in_valid_range() {
        let mut rng = cell_rng(3, 0, 0, Stream::Baseline);
        for _ in 0..10_000 {
            let b = draw_packet_bytes(&mut rng);
            assert!((40..=1500).contains(&b));
        }
    }

    #[test]
    fn zero_mean_produces_no_records() {
        let plan = setup();
        let mut rng = cell_rng(1, 0, 0, Stream::Baseline);
        let recs = cell_records(&BaselineParams::default(), &plan, 0, 1, 0.0, 0, 300, &mut rng);
        assert!(recs.is_empty());
    }

    #[test]
    fn elephants_increase_mean_packets() {
        let plan = setup();
        let heavy = BaselineParams { elephant_frac: 0.5, noise_sigma: 0.0, ..Default::default() };
        let light = BaselineParams { elephant_frac: 0.0, noise_sigma: 0.0, ..Default::default() };
        let mut packets_heavy = 0u64;
        let mut packets_light = 0u64;
        for i in 0..100 {
            let mut r1 = cell_rng(5, i, 0, Stream::Baseline);
            let mut r2 = cell_rng(5, i, 0, Stream::Baseline);
            packets_heavy += cell_records(&heavy, &plan, 0, 1, 20.0, 0, 300, &mut r1)
                .iter()
                .map(|r| r.packets)
                .sum::<u64>();
            packets_light += cell_records(&light, &plan, 0, 1, 20.0, 0, 300, &mut r2)
                .iter()
                .map(|r| r.packets)
                .sum::<u64>();
        }
        assert!(packets_heavy as f64 > packets_light as f64 * 2.0);
    }
}
