//! One workload, start to finish: untraced rounds for `--seconds`, then
//! (with `--trace 1`) traced rounds and the layer replay; aggregation
//! of the rounds into metrics; the built-in correctness checks; and the
//! report in its three forms (table, result line, `out/*.json`).

use crate::metrics::{self, Clock, Def, END_TO_END, PER_LAYER};
use crate::replay::{self, ReplayCounts, CM_LAYERS, CONTROL_LAYERS};
use crate::stats::{median, Samples};
use crate::trace::{self, Tracer};
use crate::workloads::{self, OpCount, Round, Size};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `cluster_flash_crowd` runs over a jittery, lossy stream link, and
/// `StreamProviderSystem::pump` walks its senders in `HashMap` order,
/// so which packet gets which draw of the network's RNG differs from
/// process to process: its sim-clock numbers do not repeat exactly.
pub fn repeats_exactly(workload: &str) -> bool {
    workload != "cluster_flash_crowd"
}

/// The rounds of one phase (untraced or traced), accumulated.
#[derive(Default)]
struct Phase {
    rounds: usize,
    /// Per-round values by metric name, the three round timings
    /// (`setup_s`, `cpu_s`, `wall_s`) among them.
    values: BTreeMap<&'static str, Vec<f64>>,
    samples: BTreeMap<&'static str, Samples>,
    ops: BTreeMap<&'static str, OpCount>,
    frames_played: f64,
    unexpected: Vec<String>,
    last: Option<Round>,
}

impl Phase {
    fn add(&mut self, round: Round) {
        self.rounds += 1;
        let timings = [
            ("setup_s", round.setup_s),
            ("cpu_s", round.cpu_s),
            ("wall_s", round.wall_s),
        ];
        for (name, v) in round.values.iter().map(|(n, v)| (*n, *v)).chain(timings) {
            self.values.entry(name).or_default().push(v);
        }
        for (key, s) in &round.samples {
            self.samples.entry(key).or_default().extend(s);
        }
        for (class, c) in &round.ops {
            self.ops.entry(class).or_default().add(*c);
        }
        self.unexpected.extend(round.unexpected.iter().cloned());
        self.frames_played += round.values.get("mtp.played").copied().unwrap_or(0.0);
        self.last = Some(round);
    }

    fn total_ops(&self) -> OpCount {
        OpCount::sum(self.ops.values())
    }
}

/// Everything one run of one workload produced.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub rounds: usize,
    /// Every metric that applies, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts and the tail percentile actually reported, by
    /// metric name.
    pub notes: BTreeMap<&'static str, String>,
    pub ops: OpCount,
    /// Failed correctness checks; empty means correct.
    pub errors: Vec<String>,
    pub spans: Vec<trace::Span>,
}

fn run_phase(
    workload: &str,
    seed: u64,
    size: Size,
    budget_s: f64,
    tracer: &Tracer,
    errors: &mut Vec<String>,
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    loop {
        match workloads::run_round(workload, seed, size, tracer) {
            Ok(round) => phase.add(round),
            Err(e) => {
                errors.push(format!("round {}: {e}", phase.rounds + 1));
                break;
            }
        }
        if started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    phase
}

/// Runs `workload` for about `seconds` of measured rounds.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool, size: Size) -> Report {
    let mut errors = Vec::new();
    // The traced run splits its time: untraced rounds give the numbers
    // tracing must not disturb and the base for the overhead.
    let budget = if traced { seconds / 2.0 } else { seconds };
    let untraced = run_phase(
        workload,
        seed,
        size,
        budget,
        &Tracer::new(false),
        &mut errors,
    );
    let tracer = Tracer::new(traced);
    let mut traced_phase = Phase::default();
    let mut counts = ReplayCounts::default();
    if traced && errors.is_empty() {
        traced_phase = run_phase(workload, seed, size, budget, &tracer, &mut errors);
        if let Some(last) = &traced_phase.last {
            let servers = if workload == "cluster_flash_crowd" {
                4
            } else {
                1
            };
            counts = replay::run(&last.inputs, servers, &tracer);
        }
    }
    let spans = tracer.spans();
    if let Err(e) = trace::check_links(&spans) {
        errors.push(format!("trace: {e}"));
    }

    let mut report = Report {
        workload: workload.to_string(),
        seed,
        traced,
        rounds: untraced.rounds + traced_phase.rounds,
        values: BTreeMap::new(),
        notes: BTreeMap::new(),
        ops: untraced.total_ops(),
        errors,
        spans,
    };
    if untraced.rounds == 0 {
        return report;
    }
    check_phase(workload, "untraced", &untraced, &mut report.errors);
    aggregate(&untraced, &mut report);
    if traced && traced_phase.rounds > 0 {
        check_phase(workload, "traced", &traced_phase, &mut report.errors);
        if repeats_exactly(workload) {
            check_same_sim(&untraced, &traced_phase, &mut report.errors);
        }
        ledger(&untraced, &traced_phase, &counts, &mut report);
    }
    report
}

/// Every op class balances, nothing failed, and every sim-clock value
/// is the same in every round.
fn check_phase(workload: &str, label: &str, phase: &Phase, errors: &mut Vec<String>) {
    for (class, c) in &phase.ops {
        if !c.balanced() {
            errors.push(format!("{label}: op class {class} does not balance: {c:?}"));
        }
        if c.failed > 0 && *class != "warmup" {
            errors.push(format!("{label}: {} {class} ops failed", c.failed));
        }
    }
    errors.extend(phase.unexpected.iter().map(|u| format!("{label}: {u}")));
    if !repeats_exactly(workload) {
        return;
    }
    for (name, values) in &phase.values {
        let sim = metrics::find(name).is_some_and(|d| d.clock == Clock::Sim);
        if sim && values.iter().any(|v| *v != values[0]) {
            errors.push(format!(
                "{label}: {name} differs between rounds: {values:?}"
            ));
        }
    }
}

/// Every sim-clock value (and so `estelle.firings`) is identical with
/// tracing on and off.
fn check_same_sim(untraced: &Phase, traced: &Phase, errors: &mut Vec<String>) {
    for (name, values) in &untraced.values {
        let sim = metrics::find(name).is_some_and(|d| d.clock == Clock::Sim);
        let other = traced.values.get(name).map(|v| v[0]);
        if sim && other != Some(values[0]) {
            errors.push(format!("{name}: {} untraced, {other:?} traced", values[0]));
        }
    }
    for key in ["startup_sim_us", "jitter_sim_us", "select_sim_us"] {
        let per_round = |p: &Phase| {
            p.samples
                .get(key)
                .map(|s| s.values()[..s.len() / p.rounds].to_vec())
        };
        if per_round(untraced) != per_round(traced) {
            errors.push(format!("{key} samples differ between untraced and traced"));
        }
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Rounds → metrics: medians for host-clock values, the (identical)
/// round value for sim-clock ones, percentiles over pooled samples.
fn aggregate(phase: &Phase, report: &mut Report) {
    let v = &mut report.values;
    for (name, values) in &phase.values {
        v.insert(name, median(values).expect("at least one round"));
    }
    for name in ["setup_s", "cpu_s", "wall_s"] {
        let list: Vec<String> = phase.values[name]
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect();
        report
            .notes
            .insert(name, format!("median of rounds [{}]", list.join(" ")));
    }
    v.insert("peak_rss_mb", peak_rss_mb());
    let ops = phase.total_ops();
    let attempted = ops.attempted.max(1) as f64;
    v.insert("ok_permille", 1000.0 * ops.ok as f64 / attempted);
    v.insert(
        "failed_permille",
        1000.0 * (ops.refused + ops.failed) as f64 / attempted,
    );
    report.notes.insert(
        "failed_permille",
        format!(
            "{} refused + {} failed of {} attempted",
            ops.refused, ops.failed, ops.attempted
        ),
    );

    let mut samples = phase.samples.clone();
    let mut percentile = |key: &str, metric: &'static str, permille: u32, scale: f64| {
        let Some(s) = samples.get_mut(key) else {
            return;
        };
        // p100 is the maximum; below it, the highest percentile the
        // sample supports.
        let (p, value) = if permille == 1000 {
            (1000, s.percentile(1000).expect("non-empty"))
        } else {
            s.tail(permille).expect("non-empty")
        };
        report.values.insert(metric, value as f64 / scale);
        let which = if p == 1000 {
            "max".to_string()
        } else {
            format!("p{}", p as f64 / 10.0)
        };
        report
            .notes
            .insert(metric, format!("{which} of {} samples", s.len()));
    };
    percentile("control_op_ns", "control_op_wall_us_p50", 500, 1e3);
    percentile("control_op_ns", "control_op_wall_us_p99", 990, 1e3);
    percentile(
        "control_op_ns.estelle_ps",
        "core.client_op_wall_us_p50.estelle_ps",
        500,
        1e3,
    );
    percentile(
        "control_op_ns.isode",
        "core.client_op_wall_us_p50.isode",
        500,
        1e3,
    );
    percentile("select_ns", "core.select_wall_us_p50", 500, 1e3);
    percentile("select_sim_us", "core.select_sim_us_p50", 500, 1.0);
    percentile("startup_sim_us", "startup_sim_ms_p50", 500, 1e3);
    percentile("startup_sim_us", "startup_sim_ms_max", 1000, 1e3);
    percentile("jitter_sim_us", "jitter_sim_us_p50", 500, 1.0);
    percentile("jitter_sim_us", "jitter_sim_us_max", 1000, 1.0);
}

/// Replay span name → the per-unit metric it feeds.
const SPAN_METRICS: [(&str, &str); 27] = [
    ("asn1.value_encode", "asn1.value_encode_ns"),
    ("asn1.value_decode", "asn1.value_decode_ns"),
    ("core.pdu_encode", "core.pdu_encode_ns"),
    ("core.pdu_decode", "core.pdu_decode_ns"),
    ("presentation.ppdu_encode", "presentation.ppdu_encode_ns"),
    ("presentation.ppdu_decode", "presentation.ppdu_decode_ns"),
    ("session.spdu_encode", "session.spdu_encode_ns"),
    ("session.spdu_decode", "session.spdu_decode_ns"),
    ("transport.dt_encode", "transport.dt_encode_ns"),
    ("transport.dt_decode", "transport.dt_decode_ns"),
    ("netsim.pipe", "netsim.pipe_ns_per_msg"),
    ("netsim.datagram", "netsim.datagram_ns_per_packet"),
    (
        "netsim.threaded_conduit",
        "netsim.threaded_conduit_ns_per_msg",
    ),
    ("mtp.frame_encode", "mtp.frame_encode_ns"),
    ("mtp.frame_decode", "mtp.frame_decode_ns"),
    ("core.sps_open", "core.sps_open_ns"),
    ("core.sps_pump", "core.sps_pump_ns_per_frame"),
    ("store.open_stream", "store.open_stream_ns"),
    ("store.pump", "store.pump_ns_per_call"),
    ("store.seek", "store.seek_ns"),
    ("store.append_frame", "store.append_frame_ns"),
    ("share.plan_join", "share.plan_join_ns"),
    ("cluster.route", "cluster.route_ns"),
    ("directory.read", "directory.read_ns"),
    ("directory.search", "directory.search_ns"),
    ("journal.record", "journal.record_ns"),
    ("journal.verify", "journal.verify_ns_per_event"),
];

/// The per-layer ledger of the traced run.
fn ledger(untraced: &Phase, traced: &Phase, counts: &ReplayCounts, report: &mut Report) {
    let totals = trace::totals_by_name(&report.spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let v = &mut report.values;
    for (span, metric) in SPAN_METRICS {
        if let Some(t) = totals.get(span) {
            v.insert(metric, t.ns_per_unit());
        }
    }
    if counts.directory_operations > 0 {
        v.insert("directory.operations", counts.directory_operations as f64);
    }
    if totals.contains_key("journal.record") {
        v.insert(
            "journal.allocs_per_record",
            counts.journal_allocs_per_record,
        );
    }
    if traced.frames_played > 0.0 && totals.contains_key("mtp.receiver_poll") {
        v.insert(
            "mtp.receiver_poll_ns_per_frame",
            get("mtp.receiver_poll").total_ns as f64 / traced.frames_played,
        );
    }
    v.insert("trace.spans", report.spans.len() as f64);
    let base = median(&untraced.values["cpu_s"]).expect("checked by the caller");
    let with = median(&traced.values["cpu_s"]).expect("checked by the caller");
    v.insert("trace.overhead_permille", 1000.0 * (with / base - 1.0));

    // What the replayed layers account for of the time spent behind the
    // `World` boundary: the control replay covered one round's
    // exchanges, the CM replay `cm_frames` frames.
    let world_ns: u64 = [
        "world.client_op",
        "world.run_for",
        "world.push_op",
        "mtp.receiver_poll",
    ]
    .iter()
    .map(|n| get(n).total_ns)
    .sum();
    if world_ns > 0 {
        let sum = |names: &[&str]| names.iter().map(|n| get(n).total_ns).sum::<u64>() as f64;
        let control = sum(&CONTROL_LAYERS) * traced.rounds as f64;
        let cm = if counts.cm_frames > 0 {
            sum(&CM_LAYERS) * traced.frames_played / counts.cm_frames as f64
        } else {
            0.0
        };
        let unexplained = 1.0 - (control + cm) / world_ns as f64;
        v.insert("core.unexplained_permille", 1000.0 * unexplained.max(0.0));
    }
}

impl Report {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The names this run reports on its result line.
    fn result_defs(&self) -> &'static [Def] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every metric by name with value, unit and clock; `-` marks one
    /// that does not apply to this workload.
    pub fn table(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "## {} seed={} rounds={} nproc={} traced={}",
            self.workload,
            self.seed,
            self.rounds,
            std::thread::available_parallelism().map_or(0, usize::from),
            self.traced
        )
        .expect("writing to a String");
        let defs: Vec<&Def> = if self.traced {
            END_TO_END.iter().chain(PER_LAYER).collect()
        } else {
            // Without the replay, show what the rounds alone measured.
            END_TO_END
                .iter()
                .chain(
                    PER_LAYER
                        .iter()
                        .filter(|d| self.values.contains_key(d.name)),
                )
                .collect()
        };
        for d in defs {
            let value = self
                .values
                .get(d.name)
                .map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
            let note = self.notes.get(d.name).map_or("", String::as_str);
            writeln!(
                out,
                "{:<42} {:>16} {:<9} {:<5} {:<7} {}",
                d.name,
                value,
                d.unit,
                d.clock.label(),
                d.better.label(),
                note
            )
            .expect("writing to a String");
        }
        for e in &self.errors {
            writeln!(out, "CHECK FAILED: {e}").expect("writing to a String");
        }
        out
    }

    fn metrics_json(&self, defs: &mut dyn Iterator<Item = &Def>, nulls: bool) -> String {
        let mut parts = Vec::new();
        for d in defs {
            let value = match self.values.get(d.name) {
                Some(v) => format!("{v}"),
                None if nulls => "null".to_string(),
                // The result line carries numbers only: 0 where a metric
                // does not apply to the workload.
                None => "0".to_string(),
            };
            parts.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        format!("{{{}}}", parts.join(", "))
    }

    /// The last line of standard output: exactly the keys the driver
    /// reads. `failed` counts ops that got no answer or one the
    /// protocol does not allow; refusals under the overload and the
    /// crash the workload itself injects are in `ok_permille`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.ops.attempted.max(1),
            self.ops.failed,
            self.metrics_json(&mut self.result_defs().iter(), false)
        )
    }

    /// `out/<workload>.json`: every metric (null where it does not
    /// apply), with the counts behind the ratios.
    pub fn full_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"rounds\": {}, \"nproc\": {}, \
             \"correct\": {}, \"attempted\": {}, \"ok\": {}, \"refused\": {}, \"failed\": {}, \
             \"metrics\": {}}}\n",
            self.workload,
            self.seed,
            self.traced,
            self.rounds,
            std::thread::available_parallelism().map_or(0, usize::from),
            self.correct(),
            self.ops.attempted,
            self.ops.ok,
            self.ops.refused,
            self.ops.failed,
            self.metrics_json(&mut END_TO_END.iter().chain(PER_LAYER), true)
        )
    }
}

/// Reads the `"metrics"` object of a result line or an `out/*.json`
/// back: `(name, value)` for every non-null metric. Only this
/// program's own output format is understood.
pub fn parse_metrics(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_string();
        let after = &rest[at + "\": {\"value\": ".len()..];
        let end = after.find(',').unwrap_or(after.len());
        if let Ok(value) = after[..end].trim().parse::<f64>() {
            out.push((name, value));
        }
        rest = &after[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let mut report = Report {
            workload: "x".into(),
            seed: 1,
            traced: false,
            rounds: 1,
            values: BTreeMap::new(),
            notes: BTreeMap::new(),
            ops: OpCount {
                attempted: 10,
                ok: 9,
                refused: 1,
                failed: 0,
            },
            errors: Vec::new(),
            spans: Vec::new(),
        };
        report.values.insert("cpu_s", 1.25);
        report.values.insert("setup_s", 0.5);
        let line = report.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        let parsed = parse_metrics(&line);
        let names: Vec<&str> = parsed.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        assert_eq!(parsed[0], ("cpu_s".to_string(), 1.25));
        // Nulls of the full form are skipped, numbers kept.
        let full = parse_metrics(&report.full_json());
        assert_eq!(full.len(), 2);
    }
}
