//! The session-kernel state machine as an Estelle module.
//!
//! This is the Rust rendition of the Estelle session sources the paper
//! used (originally provided by the University of Bern): a kernel
//! functional unit with connect, data, orderly release, and abort.

use crate::service::{
    SAbortInd, SAbortReq, SConCnf, SConInd, SConReq, SConRsp, SDataInd, SDataReq, SRelCnf, SRelInd,
    SRelReq, SRelRsp,
};
use crate::spdu::{Spdu, VERSION_1, VERSION_2};
use estelle::external::WireData;
use estelle::{downcast, is, Interaction, IpIndex, StateId, StateMachine, Transition};
use netsim::SimDuration;

/// Interaction point towards the session user (presentation layer).
pub const UP: IpIndex = IpIndex(0);
/// Interaction point towards the transport (wire) below.
pub const DOWN: IpIndex = IpIndex(1);

/// No association.
pub const IDLE: StateId = StateId(0);
/// CN sent, awaiting AC/RF.
pub const CONNECTING: StateId = StateId(1);
/// CN received, awaiting the user's S-CONNECT.response.
pub const RESPONDING: StateId = StateId(2);
/// Data phase.
pub const CONNECTED: StateId = StateId(3);
/// FN sent, awaiting DN.
pub const RELEASING: StateId = StateId(4);
/// FN received, awaiting the user's S-RELEASE.response.
pub const REL_RESPONDING: StateId = StateId(5);

const COST_CONNECT: SimDuration = SimDuration::from_micros(150);
const COST_DATA: SimDuration = SimDuration::from_micros(60);
const COST_RELEASE: SimDuration = SimDuration::from_micros(100);

fn wire(msg: Option<&dyn Interaction>) -> Option<&WireData> {
    msg.and_then(|m| m.downcast_ref::<WireData>())
}

fn si_is(msg: Option<&dyn Interaction>, si: u8) -> bool {
    wire(msg).and_then(|w| w.0.first().copied()) == Some(si)
}

fn decode_spdu(msg: Box<dyn Interaction>) -> Option<Spdu> {
    let w = downcast::<WireData>(msg).ok()?;
    Spdu::decode(&w.0).ok()
}

/// The session protocol entity (kernel functional unit).
#[derive(Debug, Default)]
pub struct SessionMachine {
    /// Version negotiated on the last successful connect.
    pub version: u8,
    /// DT SPDUs sent.
    pub data_sent: u64,
    /// DT SPDUs delivered up.
    pub data_received: u64,
    /// Successful connection establishments (either role).
    pub connects: u64,
    /// SPDUs that could not be parsed or were unexpected.
    pub protocol_errors: u64,
}

impl StateMachine for SessionMachine {
    fn num_ips(&self) -> usize {
        2
    }

    fn initial_state(&self) -> StateId {
        IDLE
    }

    fn transitions() -> Vec<Transition<Self>> {
        vec![
            // --- connection establishment -----------------------------
            Transition::on("s-con-req", IDLE, UP, |_m: &mut Self, ctx, msg| {
                let req = downcast::<SConReq>(msg.unwrap()).unwrap();
                let cn = Spdu::Cn {
                    versions: VERSION_1 | VERSION_2,
                    user_data: req.user_data,
                };
                ctx.output(DOWN, WireData(cn.encode()));
            })
            .provided(|_, msg| is::<SConReq>(msg))
            .to(CONNECTING)
            .cost(COST_CONNECT),
            Transition::on("cn-ind", IDLE, DOWN, |m: &mut Self, ctx, msg| {
                match decode_spdu(msg.unwrap()) {
                    Some(Spdu::Cn {
                        versions,
                        user_data,
                    }) => {
                        // Prefer version 2 when offered.
                        m.version = if versions & VERSION_2 != 0 {
                            VERSION_2
                        } else {
                            VERSION_1
                        };
                        ctx.output(UP, SConInd { user_data });
                    }
                    _ => m.protocol_errors += 1,
                }
            })
            .provided(|_, msg| si_is(msg, 13))
            .to(RESPONDING)
            .cost(COST_CONNECT),
            Transition::on("s-con-rsp", RESPONDING, UP, |m: &mut Self, ctx, msg| {
                let rsp = downcast::<SConRsp>(msg.unwrap()).unwrap();
                if rsp.accept {
                    m.connects += 1;
                    let ac = Spdu::Ac {
                        version: m.version,
                        user_data: rsp.user_data,
                    };
                    ctx.output(DOWN, WireData(ac.encode()));
                    ctx.goto(CONNECTED);
                } else {
                    ctx.output(
                        DOWN,
                        WireData(
                            Spdu::Rf {
                                reason: 1,
                                user_data: rsp.user_data,
                            }
                            .encode(),
                        ),
                    );
                    ctx.goto(IDLE);
                }
            })
            .provided(|_, msg| is::<SConRsp>(msg))
            .cost(COST_CONNECT),
            Transition::on(
                "ac-cnf",
                CONNECTING,
                DOWN,
                |m: &mut Self, ctx, msg| match decode_spdu(msg.unwrap()) {
                    Some(Spdu::Ac { version, user_data }) => {
                        m.version = version;
                        m.connects += 1;
                        ctx.output(
                            UP,
                            SConCnf {
                                accepted: true,
                                version,
                                user_data,
                            },
                        );
                    }
                    _ => m.protocol_errors += 1,
                },
            )
            .provided(|_, msg| si_is(msg, 14))
            .to(CONNECTED)
            .cost(COST_CONNECT),
            Transition::on("rf-cnf", CONNECTING, DOWN, |_m: &mut Self, ctx, msg| {
                // A refusing peer may explain itself: RF user data
                // (e.g. a CPR PPDU carrying an MCAM referral) rides up
                // with the negative confirm.
                let user_data = match decode_spdu(msg.unwrap()) {
                    Some(Spdu::Rf { user_data, .. }) => user_data,
                    _ => Vec::new(),
                };
                ctx.output(
                    UP,
                    SConCnf {
                        accepted: false,
                        version: 0,
                        user_data,
                    },
                );
            })
            .provided(|_, msg| si_is(msg, 12))
            .to(IDLE)
            .cost(COST_CONNECT),
            // --- data phase -------------------------------------------
            Transition::on("s-data-req", CONNECTED, UP, |m: &mut Self, ctx, msg| {
                let req = downcast::<SDataReq>(msg.unwrap()).unwrap();
                m.data_sent += 1;
                ctx.output(
                    DOWN,
                    WireData(
                        Spdu::Dt {
                            user_data: req.user_data,
                        }
                        .encode(),
                    ),
                );
            })
            .provided(|_, msg| is::<SDataReq>(msg))
            .cost(COST_DATA),
            Transition::on(
                "dt-ind",
                CONNECTED,
                DOWN,
                |m: &mut Self, ctx, msg| match decode_spdu(msg.unwrap()) {
                    Some(Spdu::Dt { user_data }) => {
                        m.data_received += 1;
                        ctx.output(UP, SDataInd { user_data });
                    }
                    _ => m.protocol_errors += 1,
                },
            )
            .provided(|_, msg| si_is(msg, 1))
            .cost(COST_DATA),
            // --- orderly release --------------------------------------
            Transition::on("s-rel-req", CONNECTED, UP, |_m: &mut Self, ctx, msg| {
                let _ = downcast::<SRelReq>(msg.unwrap()).unwrap();
                ctx.output(
                    DOWN,
                    WireData(
                        Spdu::Fn {
                            user_data: Vec::new(),
                        }
                        .encode(),
                    ),
                );
            })
            .provided(|_, msg| is::<SRelReq>(msg))
            .to(RELEASING)
            .cost(COST_RELEASE),
            Transition::on("fn-ind", CONNECTED, DOWN, |_m: &mut Self, ctx, msg| {
                let _ = decode_spdu(msg.unwrap());
                ctx.output(UP, SRelInd);
            })
            .provided(|_, msg| si_is(msg, 9))
            .to(REL_RESPONDING)
            .cost(COST_RELEASE),
            Transition::on(
                "s-rel-rsp",
                REL_RESPONDING,
                UP,
                |_m: &mut Self, ctx, msg| {
                    let _ = downcast::<SRelRsp>(msg.unwrap()).unwrap();
                    ctx.output(
                        DOWN,
                        WireData(
                            Spdu::Dn {
                                user_data: Vec::new(),
                            }
                            .encode(),
                        ),
                    );
                },
            )
            .provided(|_, msg| is::<SRelRsp>(msg))
            .to(IDLE)
            .cost(COST_RELEASE),
            Transition::on("dn-cnf", RELEASING, DOWN, |_m: &mut Self, ctx, msg| {
                let _ = decode_spdu(msg.unwrap());
                ctx.output(UP, SRelCnf);
            })
            .provided(|_, msg| si_is(msg, 10))
            .to(IDLE)
            .cost(COST_RELEASE),
            // --- abort (any state) ------------------------------------
            Transition::on("s-abort-req", IDLE, UP, |_m: &mut Self, ctx, msg| {
                let req = downcast::<SAbortReq>(msg.unwrap()).unwrap();
                ctx.output(DOWN, WireData(Spdu::Ab { reason: req.reason }.encode()));
            })
            .any_state()
            .provided(|_, msg| is::<SAbortReq>(msg))
            .priority(1)
            .to(IDLE)
            .cost(COST_RELEASE),
            Transition::on("ab-ind", IDLE, DOWN, |_m: &mut Self, ctx, msg| {
                let reason = match decode_spdu(msg.unwrap()) {
                    Some(Spdu::Ab { reason }) => reason,
                    _ => 0,
                };
                ctx.output(UP, SAbortInd { reason });
            })
            .any_state()
            .provided(|_, msg| si_is(msg, 25))
            .priority(1)
            .to(IDLE)
            .cost(COST_RELEASE),
            // --- otherwise: drop unexpected wire traffic ----------------
            Transition::on("unexpected-wire", IDLE, DOWN, |m: &mut Self, _ctx, msg| {
                let _ = msg;
                m.protocol_errors += 1;
            })
            .any_state()
            .priority(250)
            .cost(SimDuration::from_micros(10)),
            // --- otherwise: drop user primitives that are invalid in the
            //     current state (e.g. data before connect) ---------------
            Transition::on("unexpected-user", IDLE, UP, |m: &mut Self, _ctx, msg| {
                let _ = msg;
                m.protocol_errors += 1;
            })
            .any_state()
            .priority(250)
            .cost(SimDuration::from_micros(10)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estelle::sched::{run_sequential, SeqOptions};
    use estelle::{ip, ModuleKind, ModuleLabels, Runtime};

    /// Wire two session entities back to back (their DOWN points
    /// connected directly — the wire is symmetric).
    fn pair() -> (Runtime, estelle::ModuleId, estelle::ModuleId) {
        let (rt, _c) = Runtime::sim();
        let a = rt
            .add_module(
                None,
                "sess-a",
                ModuleKind::SystemProcess,
                ModuleLabels::default(),
                SessionMachine::default(),
            )
            .unwrap();
        let b = rt
            .add_module(
                None,
                "sess-b",
                ModuleKind::SystemProcess,
                ModuleLabels::default(),
                SessionMachine::default(),
            )
            .unwrap();
        rt.connect(ip(a, DOWN), ip(b, DOWN)).unwrap();
        rt.start().unwrap();
        (rt, a, b)
    }

    fn run(rt: &Runtime) {
        run_sequential(rt, &SeqOptions::default());
    }

    #[test]
    fn connect_accept_data_release() {
        let (rt, a, b) = pair();
        rt.inject(
            ip(a, UP),
            Box::new(SConReq {
                user_data: b"CP".to_vec(),
            }),
        )
        .unwrap();
        run(&rt);
        assert_eq!(rt.module_state(a), Some(CONNECTING));
        assert_eq!(rt.module_state(b), Some(RESPONDING));
        rt.inject(
            ip(b, UP),
            Box::new(SConRsp {
                accept: true,
                user_data: b"CPA".to_vec(),
            }),
        )
        .unwrap();
        run(&rt);
        assert_eq!(rt.module_state(a), Some(CONNECTED));
        assert_eq!(rt.module_state(b), Some(CONNECTED));
        assert_eq!(
            rt.with_machine::<SessionMachine, _>(a, |m| m.version)
                .unwrap(),
            VERSION_2
        );

        rt.inject(
            ip(a, UP),
            Box::new(SDataReq {
                user_data: b"P-DATA".to_vec(),
            }),
        )
        .unwrap();
        run(&rt);
        assert_eq!(
            rt.with_machine::<SessionMachine, _>(b, |m| m.data_received)
                .unwrap(),
            1
        );

        rt.inject(ip(a, UP), Box::new(SRelReq)).unwrap();
        run(&rt);
        assert_eq!(rt.module_state(b), Some(REL_RESPONDING));
        rt.inject(ip(b, UP), Box::new(SRelRsp)).unwrap();
        run(&rt);
        assert_eq!(rt.module_state(a), Some(IDLE));
        assert_eq!(rt.module_state(b), Some(IDLE));
        assert_eq!(
            rt.with_machine::<SessionMachine, _>(a, |m| m.protocol_errors)
                .unwrap(),
            0
        );
        assert_eq!(
            rt.with_machine::<SessionMachine, _>(b, |m| m.protocol_errors)
                .unwrap(),
            0
        );
    }

    #[test]
    fn refuse_path_returns_to_idle() {
        let (rt, a, b) = pair();
        rt.inject(ip(a, UP), Box::new(SConReq { user_data: vec![] }))
            .unwrap();
        run(&rt);
        rt.inject(
            ip(b, UP),
            Box::new(SConRsp {
                accept: false,
                user_data: vec![],
            }),
        )
        .unwrap();
        run(&rt);
        assert_eq!(rt.module_state(a), Some(IDLE));
        assert_eq!(rt.module_state(b), Some(IDLE));
    }

    #[test]
    fn abort_from_any_state() {
        let (rt, a, b) = pair();
        rt.inject(ip(a, UP), Box::new(SConReq { user_data: vec![] }))
            .unwrap();
        run(&rt);
        rt.inject(
            ip(b, UP),
            Box::new(SConRsp {
                accept: true,
                user_data: vec![],
            }),
        )
        .unwrap();
        run(&rt);
        rt.inject(ip(a, UP), Box::new(SAbortReq { reason: 7 }))
            .unwrap();
        run(&rt);
        assert_eq!(rt.module_state(a), Some(IDLE));
        assert_eq!(rt.module_state(b), Some(IDLE));
    }

    #[test]
    fn data_before_connect_is_protocol_error() {
        let (rt, a, _b) = pair();
        rt.inject(ip(a, UP), Box::new(SDataReq { user_data: vec![] }))
            .unwrap();
        run(&rt);
        assert_eq!(rt.module_state(a), Some(IDLE));
        assert_eq!(
            rt.with_machine::<SessionMachine, _>(a, |m| m.protocol_errors)
                .unwrap(),
            1
        );
    }

    #[test]
    fn garbage_on_wire_is_swallowed() {
        let (rt, a, _b) = pair();
        rt.inject(ip(a, DOWN), Box::new(WireData(vec![0xEE, 0x00])))
            .unwrap();
        run(&rt);
        assert_eq!(
            rt.with_machine::<SessionMachine, _>(a, |m| m.protocol_errors)
                .unwrap(),
            1
        );
        assert_eq!(rt.module_state(a), Some(IDLE));
    }

    #[test]
    fn many_data_units_in_order() {
        let (rt, a, b) = pair();
        rt.inject(ip(a, UP), Box::new(SConReq { user_data: vec![] }))
            .unwrap();
        run(&rt);
        rt.inject(
            ip(b, UP),
            Box::new(SConRsp {
                accept: true,
                user_data: vec![],
            }),
        )
        .unwrap();
        run(&rt);
        for i in 0..50u8 {
            rt.inject(ip(a, UP), Box::new(SDataReq { user_data: vec![i] }))
                .unwrap();
        }
        run(&rt);
        assert_eq!(
            rt.with_machine::<SessionMachine, _>(a, |m| m.data_sent)
                .unwrap(),
            50
        );
        assert_eq!(
            rt.with_machine::<SessionMachine, _>(b, |m| m.data_received)
                .unwrap(),
            50
        );
    }
}
