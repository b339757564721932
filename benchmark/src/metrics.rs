//! The metric tables: every name the benchmark emits, with its unit,
//! its clock, the better direction, and (end to end) the regression
//! bound. `BENCHMARK.json` lists the same names; a unit test compares
//! the two.

/// Which clock a number was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of this process; varies run to run.
    Host,
    /// The `netsim` virtual clock, or a count the program made: repeats
    /// exactly for a seed.
    Sim,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> Def {
    Def {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        clock: Clock::Host,
        better,
        bound: None,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        clock: Clock::Sim,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What every workload reports with `--trace 0`. Each is defined, and
/// never 0, on all five workloads.
pub const END_TO_END: &[Def] = &[
    e2e("cpu_s", "s", Clock::Host, Lower, 0.25),
    e2e("setup_s", "s", Clock::Host, Lower, 0.25),
    e2e("peak_rss_mb", "MB", Clock::Host, Lower, 0.15),
    e2e("ok_permille", "permille", Clock::Sim, Higher, 0.10),
];

/// What every workload reports with `--trace 1`: the end-to-end
/// metrics that exist only on some workloads (emitted as 0 where they
/// do not apply), then the per-layer ledger, layer = crate name.
pub const PER_LAYER: &[Def] = &[
    // End to end, on the wall clock or workload-specific.
    host("wall_s", "s", Lower),
    host("control_op_wall_us_p50", "us", Lower),
    host("control_op_wall_us_p99", "us", Lower),
    host("frames_per_wall_s", "1/s", Higher),
    host("sim_speed_x", "x", Higher),
    sim("startup_sim_ms_p50", "ms", Lower),
    sim("startup_sim_ms_max", "ms", Lower),
    sim("jitter_sim_us_p50", "us", Lower),
    sim("jitter_sim_us_max", "us", Lower),
    sim("failover_gap_sim_ms_max", "ms", Lower),
    sim("frames_lost_permille", "permille", Lower),
    sim("admitted_permille", "permille", Higher),
    sim("failed_permille", "permille", Lower),
    // estelle: delta of `world.rt.counters()` over the measured phase.
    sim("estelle.firings", "count", Lower),
    sim("estelle.selects", "count", Lower),
    sim("estelle.selects_per_firing", "count", Lower),
    host("estelle.scan_ns", "ns", Lower),
    host("estelle.action_ns", "ns", Lower),
    host("estelle.scheduler_share_permille", "permille", Lower),
    sim("estelle.blocked", "count", Lower),
    // core (the `mcam` crate).
    host("core.client_op_wall_us_p50.estelle_ps", "us", Lower),
    host("core.client_op_wall_us_p50.isode", "us", Lower),
    host("core.select_wall_us_p50", "us", Lower),
    sim("core.select_sim_us_p50", "us", Lower),
    host("core.control_op_drift_permille", "permille", Lower),
    host("core.run_for_wall_us_per_sim_ms", "us", Lower),
    host("core.pdu_encode_ns", "ns", Lower),
    host("core.pdu_decode_ns", "ns", Lower),
    host("core.sps_open_ns", "ns", Lower),
    host("core.sps_pump_ns_per_frame", "ns", Lower),
    host("core.alloc_per_control_op", "count", Lower),
    host("core.alloc_per_frame", "count", Lower),
    host("core.unexplained_permille", "permille", Lower),
    // Control-path codecs, per PDU of the sizes the workload sent.
    host("asn1.value_encode_ns", "ns", Lower),
    host("asn1.value_decode_ns", "ns", Lower),
    host("presentation.ppdu_encode_ns", "ns", Lower),
    host("presentation.ppdu_decode_ns", "ns", Lower),
    host("session.spdu_encode_ns", "ns", Lower),
    host("session.spdu_decode_ns", "ns", Lower),
    host("transport.dt_encode_ns", "ns", Lower),
    host("transport.dt_decode_ns", "ns", Lower),
    // mtp.
    host("mtp.frame_encode_ns", "ns", Lower),
    host("mtp.frame_decode_ns", "ns", Lower),
    host("mtp.receiver_poll_ns_per_frame", "ns", Lower),
    host("mtp.small_frames_per_wall_s", "1/s", Higher),
    sim("mtp.sequence_errors", "count", Lower),
    sim("mtp.steady_state_allocs", "count", Lower),
    sim("mtp.received", "count", Higher),
    sim("mtp.lost", "count", Lower),
    sim("mtp.late", "count", Lower),
    sim("mtp.played", "count", Higher),
    // netsim.
    host("netsim.datagram_ns_per_packet", "ns", Lower),
    host("netsim.pipe_ns_per_msg", "ns", Lower),
    host("netsim.threaded_conduit_ns_per_msg", "ns", Lower),
    // store.
    host("store.open_stream_ns", "ns", Lower),
    host("store.pump_ns_per_call", "ns", Lower),
    host("store.seek_ns", "ns", Lower),
    host("store.append_frame_ns", "ns", Lower),
    sim("store.cache_hit_permille", "permille", Higher),
    sim("store.admit_accepted", "count", Higher),
    sim("store.admit_rejected", "count", Lower),
    sim("store.blocks_delivered", "count", Lower),
    sim("store.coalesced_reads", "count", Higher),
    sim("store.disk_busy_permille", "permille", Lower),
    sim("store.disk_queue_depth_max", "count", Lower),
    // share.
    host("share.plan_join_ns", "ns", Lower),
    sim("share.merges", "count", Higher),
    sim("share.fast_feeds", "count", Higher),
    sim("share.conversions", "count", Higher),
    sim("share.promotions", "count", Lower),
    // cluster.
    sim("cluster.route_decisions", "count", Lower),
    sim("cluster.failovers", "count", Lower),
    host("cluster.route_ns", "ns", Lower),
    sim("cluster.referrals_followed", "count", Lower),
    host("cluster.rebalance_tick_ns", "ns", Lower),
    sim("cluster.viewers_orphaned", "count", Lower),
    sim("cluster.viewers_resumed", "count", Higher),
    // directory.
    host("directory.read_ns", "ns", Lower),
    host("directory.search_ns", "ns", Lower),
    sim("directory.operations", "count", Lower),
    // journal.
    sim("journal.events", "count", Lower),
    host("journal.record_ns", "ns", Lower),
    host("journal.allocs_per_record", "count", Lower),
    host("journal.verify_ns_per_event", "ns", Lower),
    sim("journal.jsonl_bytes", "count", Lower),
    // workload compiler, and the tracer itself.
    host("workload.compile_ms", "ms", Lower),
    sim("workload.ops", "count", Lower),
    sim("trace.spans", "count", Lower),
    host("trace.overhead_permille", "permille", Lower),
];

pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }
}
