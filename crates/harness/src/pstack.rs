//! The paper's §5.1 measurement environment: "a simple test
//! environment in Estelle with two protocol stacks connected by a
//! simulated transport layer pipe. Both stacks consist of presentation
//! and session layers, and an initiator or responder respectively. It
//! is possible to create multiple connections. … presentation and
//! session kernel, without ASN.1 encoding/decoding, and … very small
//! P-Data units. This is the worst case for parallelization."

use estelle::external::{MediumModule, MEDIUM_IP};
use estelle::{
    downcast, ip, is, Ctx, ExecTrace, IpIndex, ModuleId, ModuleKind, ModuleLabels, Runtime,
    StateId, StateMachine, Transition,
};
use netsim::{Network, Pipe, PipeMedium, SimDuration, SimTime};
use presentation::service::{PConCnf, PConInd, PConReq, PConRsp, PDataInd, PDataReq};
use presentation::{mcam_contexts, PresentationMachine};
use session::SessionMachine;
use std::sync::Arc;

const DOWN: IpIndex = IpIndex(0);
const S0: StateId = StateId(0);

/// Drives one connection: connects, then issues `to_send` small
/// P-DATA requests.
#[derive(Debug)]
pub struct Initiator {
    /// Data requests to issue.
    pub to_send: u32,
    /// Data requests issued so far.
    pub sent: u32,
    /// True once the connection is confirmed.
    pub connected: bool,
}

impl Initiator {
    /// Creates an initiator issuing `to_send` data requests.
    pub(crate) fn new(to_send: u32) -> Self {
        Initiator {
            to_send,
            sent: 0,
            connected: false,
        }
    }
}

impl StateMachine for Initiator {
    fn num_ips(&self) -> usize {
        1
    }
    fn initial_state(&self) -> StateId {
        S0
    }
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        ctx.output(
            DOWN,
            PConReq {
                contexts: mcam_contexts(),
                user_data: Vec::new(),
            },
        );
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::on("connected", S0, DOWN, |m: &mut Self, _ctx, msg| {
                let cnf = downcast::<PConCnf>(msg.unwrap()).unwrap();
                m.connected = cnf.accepted;
            })
            .provided(|_, msg| is::<PConCnf>(msg))
            .cost(SimDuration::from_micros(80)),
            Transition::spontaneous("send-data", S0, |m: &mut Self, ctx, _| {
                m.sent += 1;
                // "Very small P-Data units".
                ctx.output(
                    DOWN,
                    PDataReq {
                        context_id: 1,
                        user_data: vec![0xAB],
                    },
                );
            })
            .provided(|m, _| m.connected && m.sent < m.to_send)
            .cost(SimDuration::from_micros(40)),
        ]
    }
}

/// Accepts a connection and counts arriving data units.
#[derive(Debug, Default)]
pub struct Responder {
    /// Data units received.
    pub received: u32,
}

impl StateMachine for Responder {
    fn num_ips(&self) -> usize {
        1
    }
    fn initial_state(&self) -> StateId {
        S0
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::on("accept", S0, DOWN, |_m: &mut Self, ctx, msg| {
                let _ = downcast::<PConInd>(msg.unwrap()).unwrap();
                ctx.output(
                    DOWN,
                    PConRsp {
                        accept: true,
                        user_data: Vec::new(),
                    },
                );
            })
            .provided(|_, msg| is::<PConInd>(msg))
            .cost(SimDuration::from_micros(80)),
            Transition::on("data", S0, DOWN, |m: &mut Self, _ctx, msg| {
                let _ = downcast::<PDataInd>(msg.unwrap()).unwrap();
                m.received += 1;
            })
            .provided(|_, msg| is::<PDataInd>(msg))
            .cost(SimDuration::from_micros(40)),
        ]
    }
}

/// A built §5.1 environment.
pub struct PsEnv {
    /// The runtime holding all stacks.
    pub rt: Runtime,
    /// The network carrying the transport pipes.
    pub net: Arc<Network>,
    /// Per-connection (initiator, responder) module ids.
    pub endpoints: Vec<(ModuleId, ModuleId)>,
}

impl std::fmt::Debug for PsEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsEnv")
            .field("connections", &self.endpoints.len())
            .finish()
    }
}

/// Builds `connections` parallel P+S stacks, each pair joined by a
/// simulated transport pipe, with `data_requests` small P-DATA units
/// per connection.
///
/// Module labels: `conn` = connection index (both sides), `layer`:
/// 0 = app (initiator/responder), 1 = presentation, 2 = session,
/// 3 = wire.
pub fn build_ps_env(connections: usize, data_requests: u32, seed: u64) -> PsEnv {
    build_ps_env_mixed(&vec![data_requests; connections], seed)
}

/// Adds the system module `name-conn` of protocol layer `layer`.
fn add<M: StateMachine>(rt: &Runtime, name: &str, layer: u16, conn: u16, machine: M) -> ModuleId {
    let labels = ModuleLabels::layer_conn(layer, conn);
    let name = format!("{name}-{conn}");
    rt.add_module(None, name, ModuleKind::SystemProcess, labels, machine)
        .expect("builds before start")
}

/// Like [`build_ps_env`] but with a *different* number of data
/// requests per connection — the skewed workload used by the mapping
/// optimizer ablation (one busy connection next to idle ones defeats
/// purely structural policies).
pub fn build_ps_env_mixed(requests: &[u32], seed: u64) -> PsEnv {
    let net = Arc::new(Network::new(seed));
    let rt = Runtime::with_virtual_clock(net.clock());
    let mut endpoints = Vec::new();
    for (conn, &data_requests) in (0u16..).zip(requests) {
        let (a_end, b_end) = Pipe::create(&net, SimDuration::from_micros(300));
        let wire = |end| MediumModule::new(Box::new(PipeMedium::new(end)));
        let init = add(&rt, "init", 0, conn, Initiator::new(data_requests));
        let pres_a = add(&rt, "pres-a", 1, conn, PresentationMachine::default());
        let sess_a = add(&rt, "sess-a", 2, conn, SessionMachine::default());
        let wire_a = add(&rt, "wire-a", 3, conn, wire(a_end));
        let resp = add(&rt, "resp", 0, conn, Responder::default());
        let pres_b = add(&rt, "pres-b", 1, conn, PresentationMachine::default());
        let sess_b = add(&rt, "sess-b", 2, conn, SessionMachine::default());
        let wire_b = add(&rt, "wire-b", 3, conn, wire(b_end));
        rt.connect(ip(init, DOWN), ip(pres_a, presentation::UP))
            .expect("fresh points");
        rt.connect(ip(pres_a, presentation::DOWN), ip(sess_a, session::UP))
            .expect("fresh");
        rt.connect(ip(sess_a, session::DOWN), ip(wire_a, MEDIUM_IP))
            .expect("fresh");
        rt.connect(ip(resp, DOWN), ip(pres_b, presentation::UP))
            .expect("fresh");
        rt.connect(ip(pres_b, presentation::DOWN), ip(sess_b, session::UP))
            .expect("fresh");
        rt.connect(ip(sess_b, session::DOWN), ip(wire_b, MEDIUM_IP))
            .expect("fresh");
        endpoints.push((init, resp));
    }
    PsEnv { rt, net, endpoints }
}

/// Runs the environment to completion (sequential reference) with
/// trace recording; returns the trace and verifies every data unit
/// arrived.
pub fn run_ps_env(env: &PsEnv, data_requests: u32) -> ExecTrace {
    run_ps_env_mixed(env, &vec![data_requests; env.endpoints.len()])
}

/// [`run_ps_env`] for a per-connection request mix (see
/// [`build_ps_env_mixed`]).
pub fn run_ps_env_mixed(env: &PsEnv, requests: &[u32]) -> ExecTrace {
    assert_eq!(
        requests.len(),
        env.endpoints.len(),
        "one request count per connection"
    );
    env.rt.enable_trace();
    env.rt.start().expect("valid spec");
    let opts = estelle::sched::SeqOptions::default();
    estelle::driver::run_sim(&env.rt, &env.net, &opts, SimTime::from_secs(600));
    for ((init, resp), &data_requests) in env.endpoints.iter().zip(requests) {
        let connected = env
            .rt
            .with_machine::<Initiator, _>(*init, |i| i.connected)
            .expect("initiator exists");
        assert!(connected, "connection {init} did not establish");
        let received = env
            .rt
            .with_machine::<Responder, _>(*resp, |r| r.received)
            .expect("responder exists");
        assert_eq!(received, data_requests, "responder {resp} lost data");
    }
    let trace = env.rt.take_trace();
    trace.validate().expect("consistent trace");
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_completes_and_traces() {
        let env = build_ps_env(2, 10, 3);
        let trace = run_ps_env(&env, 10);
        assert!(trace.records.len() > 80, "records={}", trace.records.len());
        // Both connections appear in the trace.
        let conns: std::collections::BTreeSet<_> =
            trace.modules.iter().filter_map(|m| m.labels.conn).collect();
        assert_eq!(conns.len(), 2);
    }

    #[test]
    fn larger_envs_scale_linearly_in_firings() {
        let t1 = run_ps_env(&build_ps_env(1, 50, 3), 50);
        let t2 = run_ps_env(&build_ps_env(2, 50, 3), 50);
        let ratio = t2.records.len() as f64 / t1.records.len() as f64;
        assert!((ratio - 2.0).abs() < 0.2, "ratio={ratio}");
    }
}
