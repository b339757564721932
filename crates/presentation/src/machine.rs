//! The presentation-kernel state machine as an Estelle module.
//!
//! Sits on the session service: P-primitives arrive on [`UP`],
//! S-primitives are exchanged on [`DOWN`] with a
//! [`session::SessionMachine`] below. PPDUs (BER) travel as session
//! user data.

use crate::ppdu::{ContextResult, Ppdu, ProposedContext, TRANSFER_BER};
use crate::service::{
    PAbortInd, PAbortReq, PConCnf, PConInd, PConReq, PConRsp, PDataInd, PDataReq, PRelCnf, PRelInd,
    PRelReq, PRelRsp,
};
use estelle::{downcast, is, IpIndex, StateId, StateMachine, Transition};
use netsim::SimDuration;
use session::service::{
    SAbortInd, SAbortReq, SConCnf, SConInd, SConReq, SConRsp, SDataInd, SDataReq, SRelCnf, SRelInd,
    SRelReq, SRelRsp,
};

/// Interaction point towards the presentation user (MCAM).
pub const UP: IpIndex = IpIndex(0);
/// Interaction point towards the session layer.
pub const DOWN: IpIndex = IpIndex(1);

/// No association.
pub const IDLE: StateId = StateId(0);
/// CP sent (inside S-CONNECT), awaiting confirm.
pub const CONNECTING: StateId = StateId(1);
/// CP received, awaiting the user's response.
pub const RESPONDING: StateId = StateId(2);
/// Data phase.
pub const CONNECTED: StateId = StateId(3);
/// Release requested, awaiting confirm.
pub const RELEASING: StateId = StateId(4);
/// Release received, awaiting the user's response.
pub const REL_RESPONDING: StateId = StateId(5);

const COST_CONNECT: SimDuration = SimDuration::from_micros(300);
const COST_DATA: SimDuration = SimDuration::from_micros(80);
const COST_RELEASE: SimDuration = SimDuration::from_micros(120);

/// The presentation protocol entity (kernel).
#[derive(Debug, Default)]
pub struct PresentationMachine {
    /// Contexts accepted during negotiation (id list).
    pub accepted_contexts: Vec<i64>,
    /// Contexts proposed by the peer while responding.
    pub offered_contexts: Vec<ProposedContext>,
    /// TD PPDUs sent.
    pub data_sent: u64,
    /// TD PPDUs delivered up.
    pub data_received: u64,
    /// Malformed or unexpected PPDUs/primitives.
    pub protocol_errors: u64,
}

impl PresentationMachine {
    fn negotiate(&mut self, contexts: &[ProposedContext]) -> Vec<ContextResult> {
        let mut results = Vec::with_capacity(contexts.len());
        self.accepted_contexts.clear();
        for pc in contexts {
            let ok = pc.transfer_syntax == TRANSFER_BER;
            if ok {
                self.accepted_contexts.push(pc.id);
            }
            results.push(ContextResult {
                id: pc.id,
                accepted: ok,
            });
        }
        results
    }
}

impl StateMachine for PresentationMachine {
    fn num_ips(&self) -> usize {
        2
    }

    fn initial_state(&self) -> StateId {
        IDLE
    }

    fn transitions() -> Vec<Transition<Self>> {
        vec![
            // --- establishment ----------------------------------------
            Transition::on("p-con-req", IDLE, UP, |_m: &mut Self, ctx, msg| {
                let req = downcast::<PConReq>(msg.unwrap()).unwrap();
                let cp = Ppdu::Cp {
                    contexts: req.contexts,
                    user_data: req.user_data,
                };
                ctx.output(
                    DOWN,
                    SConReq {
                        user_data: cp.encode(),
                    },
                );
            })
            .provided(|_, msg| is::<PConReq>(msg))
            .to(CONNECTING)
            .cost(COST_CONNECT),
            Transition::on("cp-ind", IDLE, DOWN, |m: &mut Self, ctx, msg| {
                let ind = downcast::<SConInd>(msg.unwrap()).unwrap();
                match Ppdu::decode(&ind.user_data) {
                    Ok(Ppdu::Cp {
                        contexts,
                        user_data,
                    }) => {
                        m.offered_contexts = contexts.clone();
                        ctx.output(
                            UP,
                            PConInd {
                                contexts,
                                user_data,
                            },
                        );
                        ctx.goto(RESPONDING);
                    }
                    _ => {
                        m.protocol_errors += 1;
                        ctx.output(
                            DOWN,
                            SConRsp {
                                accept: false,
                                user_data: Vec::new(),
                            },
                        );
                    }
                }
            })
            .provided(|_, msg| is::<SConInd>(msg))
            .cost(COST_CONNECT),
            Transition::on("p-con-rsp", RESPONDING, UP, |m: &mut Self, ctx, msg| {
                let rsp = downcast::<PConRsp>(msg.unwrap()).unwrap();
                if rsp.accept {
                    let offered = std::mem::take(&mut m.offered_contexts);
                    let results = m.negotiate(&offered);
                    let cpa = Ppdu::Cpa {
                        results,
                        user_data: rsp.user_data,
                    };
                    ctx.output(
                        DOWN,
                        SConRsp {
                            accept: true,
                            user_data: cpa.encode(),
                        },
                    );
                    ctx.goto(CONNECTED);
                } else {
                    let cpr = Ppdu::Cpr {
                        reason: 1,
                        user_data: rsp.user_data,
                    };
                    ctx.output(
                        DOWN,
                        SConRsp {
                            accept: false,
                            user_data: cpr.encode(),
                        },
                    );
                    ctx.goto(IDLE);
                }
            })
            .provided(|_, msg| is::<PConRsp>(msg))
            .cost(COST_CONNECT),
            Transition::on("cpa-cnf", CONNECTING, DOWN, |m: &mut Self, ctx, msg| {
                let cnf = downcast::<SConCnf>(msg.unwrap()).unwrap();
                if !cnf.accepted {
                    // A session refusal may carry a CPR whose user
                    // data the responding presentation user supplied
                    // (e.g. an MCAM referral): surface it.
                    let user_data = match Ppdu::decode(&cnf.user_data) {
                        Ok(Ppdu::Cpr { user_data, .. }) => user_data,
                        _ => Vec::new(),
                    };
                    ctx.output(
                        UP,
                        PConCnf {
                            accepted: false,
                            results: Vec::new(),
                            user_data,
                        },
                    );
                    ctx.goto(IDLE);
                    return;
                }
                match Ppdu::decode(&cnf.user_data) {
                    Ok(Ppdu::Cpa { results, user_data }) => {
                        m.accepted_contexts = results
                            .iter()
                            .filter(|r| r.accepted)
                            .map(|r| r.id)
                            .collect();
                        ctx.output(
                            UP,
                            PConCnf {
                                accepted: true,
                                results,
                                user_data,
                            },
                        );
                        ctx.goto(CONNECTED);
                    }
                    Ok(Ppdu::Cpr { user_data, .. }) => {
                        ctx.output(
                            UP,
                            PConCnf {
                                accepted: false,
                                results: Vec::new(),
                                user_data,
                            },
                        );
                        ctx.goto(IDLE);
                    }
                    _ => {
                        m.protocol_errors += 1;
                        ctx.goto(IDLE);
                    }
                }
            })
            .provided(|_, msg| is::<SConCnf>(msg))
            .cost(COST_CONNECT),
            // --- data phase -------------------------------------------
            Transition::on("p-data-req", CONNECTED, UP, |m: &mut Self, ctx, msg| {
                let req = downcast::<PDataReq>(msg.unwrap()).unwrap();
                if !m.accepted_contexts.contains(&req.context_id) {
                    m.protocol_errors += 1;
                    return;
                }
                m.data_sent += 1;
                let td = Ppdu::Td {
                    context_id: req.context_id,
                    user_data: req.user_data,
                };
                ctx.output(
                    DOWN,
                    SDataReq {
                        user_data: td.encode(),
                    },
                );
            })
            .provided(|_, msg| is::<PDataReq>(msg))
            .cost(COST_DATA),
            Transition::on("td-ind", CONNECTED, DOWN, |m: &mut Self, ctx, msg| {
                let ind = downcast::<SDataInd>(msg.unwrap()).unwrap();
                match Ppdu::decode(&ind.user_data) {
                    Ok(Ppdu::Td {
                        context_id,
                        user_data,
                    }) => {
                        m.data_received += 1;
                        ctx.output(
                            UP,
                            PDataInd {
                                context_id,
                                user_data,
                            },
                        );
                    }
                    _ => m.protocol_errors += 1,
                }
            })
            .provided(|_, msg| is::<SDataInd>(msg))
            .cost(COST_DATA),
            // --- release ----------------------------------------------
            Transition::on("p-rel-req", CONNECTED, UP, |_m: &mut Self, ctx, msg| {
                let _ = downcast::<PRelReq>(msg.unwrap()).unwrap();
                ctx.output(DOWN, SRelReq);
            })
            .provided(|_, msg| is::<PRelReq>(msg))
            .to(RELEASING)
            .cost(COST_RELEASE),
            Transition::on("rel-ind", CONNECTED, DOWN, |_m: &mut Self, ctx, msg| {
                let _ = downcast::<SRelInd>(msg.unwrap()).unwrap();
                ctx.output(UP, PRelInd);
            })
            .provided(|_, msg| is::<SRelInd>(msg))
            .to(REL_RESPONDING)
            .cost(COST_RELEASE),
            Transition::on(
                "p-rel-rsp",
                REL_RESPONDING,
                UP,
                |_m: &mut Self, ctx, msg| {
                    let _ = downcast::<PRelRsp>(msg.unwrap()).unwrap();
                    ctx.output(DOWN, SRelRsp);
                },
            )
            .provided(|_, msg| is::<PRelRsp>(msg))
            .to(IDLE)
            .cost(COST_RELEASE),
            Transition::on("rel-cnf", RELEASING, DOWN, |_m: &mut Self, ctx, msg| {
                let _ = downcast::<SRelCnf>(msg.unwrap()).unwrap();
                ctx.output(UP, PRelCnf);
            })
            .provided(|_, msg| is::<SRelCnf>(msg))
            .to(IDLE)
            .cost(COST_RELEASE),
            // --- abort ------------------------------------------------
            Transition::on("p-abort-req", IDLE, UP, |_m: &mut Self, ctx, msg| {
                let req = downcast::<PAbortReq>(msg.unwrap()).unwrap();
                ctx.output(
                    DOWN,
                    SAbortReq {
                        reason: req.reason as u8,
                    },
                );
            })
            .any_state()
            .provided(|_, msg| is::<PAbortReq>(msg))
            .priority(1)
            .to(IDLE)
            .cost(COST_RELEASE),
            Transition::on("abort-ind", IDLE, DOWN, |_m: &mut Self, ctx, msg| {
                let ind = downcast::<SAbortInd>(msg.unwrap()).unwrap();
                ctx.output(
                    UP,
                    PAbortInd {
                        reason: i64::from(ind.reason),
                    },
                );
            })
            .any_state()
            .provided(|_, msg| is::<SAbortInd>(msg))
            .priority(1)
            .to(IDLE)
            .cost(COST_RELEASE),
            // --- otherwise --------------------------------------------
            Transition::on(
                "unexpected-session",
                IDLE,
                DOWN,
                |m: &mut Self, _ctx, _msg| {
                    m.protocol_errors += 1;
                },
            )
            .any_state()
            .priority(250)
            .cost(SimDuration::from_micros(10)),
            Transition::on("unexpected-user", IDLE, UP, |m: &mut Self, _ctx, _msg| {
                m.protocol_errors += 1;
            })
            .any_state()
            .priority(250)
            .cost(SimDuration::from_micros(10)),
        ]
    }
}

/// The default MCAM presentation context proposal.
pub fn mcam_contexts() -> Vec<ProposedContext> {
    vec![ProposedContext {
        id: 1,
        abstract_syntax: "mcam-pci".into(),
        transfer_syntax: TRANSFER_BER.into(),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use estelle::sched::{run_sequential, SeqOptions};
    use estelle::{ip, ModuleKind, ModuleLabels, Runtime};
    use session::{SessionMachine, DOWN as S_DOWN, UP as S_UP};

    /// Builds a full two-sided P+S stack with the session entities
    /// wired back to back:  [pres-a]-[sess-a]=[sess-b]-[pres-b].
    fn stack_pair() -> (Runtime, estelle::ModuleId, estelle::ModuleId) {
        let (rt, _c) = Runtime::sim();
        let labels = ModuleLabels::default();
        let pa = rt
            .add_module(
                None,
                "pres-a",
                ModuleKind::SystemProcess,
                labels,
                PresentationMachine::default(),
            )
            .unwrap();
        let sa = rt
            .add_module(
                None,
                "sess-a",
                ModuleKind::SystemProcess,
                labels,
                SessionMachine::default(),
            )
            .unwrap();
        let pb = rt
            .add_module(
                None,
                "pres-b",
                ModuleKind::SystemProcess,
                labels,
                PresentationMachine::default(),
            )
            .unwrap();
        let sb = rt
            .add_module(
                None,
                "sess-b",
                ModuleKind::SystemProcess,
                labels,
                SessionMachine::default(),
            )
            .unwrap();
        rt.connect(ip(pa, DOWN), ip(sa, S_UP)).unwrap();
        rt.connect(ip(pb, DOWN), ip(sb, S_UP)).unwrap();
        rt.connect(ip(sa, S_DOWN), ip(sb, S_DOWN)).unwrap();
        rt.start().unwrap();
        (rt, pa, pb)
    }

    fn run(rt: &Runtime) {
        run_sequential(rt, &SeqOptions::default());
    }

    fn establish(rt: &Runtime, pa: estelle::ModuleId, pb: estelle::ModuleId) {
        rt.inject(
            ip(pa, UP),
            Box::new(PConReq {
                contexts: mcam_contexts(),
                user_data: b"AARQ".to_vec(),
            }),
        )
        .unwrap();
        run(rt);
        assert_eq!(rt.module_state(pb), Some(RESPONDING));
        rt.inject(
            ip(pb, UP),
            Box::new(PConRsp {
                accept: true,
                user_data: b"AARE".to_vec(),
            }),
        )
        .unwrap();
        run(rt);
        assert_eq!(rt.module_state(pa), Some(CONNECTED));
        assert_eq!(rt.module_state(pb), Some(CONNECTED));
    }

    #[test]
    fn full_stack_connect_and_data() {
        let (rt, pa, pb) = stack_pair();
        establish(&rt, pa, pb);
        assert_eq!(
            rt.with_machine::<PresentationMachine, _>(pa, |m| m.accepted_contexts.clone())
                .unwrap(),
            vec![1]
        );
        rt.inject(
            ip(pa, UP),
            Box::new(PDataReq {
                context_id: 1,
                user_data: b"pdu".to_vec(),
            }),
        )
        .unwrap();
        run(&rt);
        assert_eq!(
            rt.with_machine::<PresentationMachine, _>(pb, |m| m.data_received)
                .unwrap(),
            1
        );
    }

    #[test]
    fn unknown_transfer_syntax_rejected_in_negotiation() {
        let (rt, pa, pb) = stack_pair();
        let contexts = vec![
            ProposedContext {
                id: 1,
                abstract_syntax: "mcam-pci".into(),
                transfer_syntax: TRANSFER_BER.into(),
            },
            ProposedContext {
                id: 3,
                abstract_syntax: "weird".into(),
                transfer_syntax: "xdr".into(),
            },
        ];
        rt.inject(
            ip(pa, UP),
            Box::new(PConReq {
                contexts,
                user_data: vec![],
            }),
        )
        .unwrap();
        run(&rt);
        rt.inject(
            ip(pb, UP),
            Box::new(PConRsp {
                accept: true,
                user_data: vec![],
            }),
        )
        .unwrap();
        run(&rt);
        let accepted = rt
            .with_machine::<PresentationMachine, _>(pa, |m| m.accepted_contexts.clone())
            .unwrap();
        assert_eq!(accepted, vec![1], "xdr context must be refused");
    }

    #[test]
    fn data_on_unaccepted_context_is_error() {
        let (rt, pa, pb) = stack_pair();
        establish(&rt, pa, pb);
        rt.inject(
            ip(pa, UP),
            Box::new(PDataReq {
                context_id: 99,
                user_data: vec![],
            }),
        )
        .unwrap();
        run(&rt);
        assert_eq!(
            rt.with_machine::<PresentationMachine, _>(pa, |m| m.protocol_errors)
                .unwrap(),
            1
        );
        assert_eq!(
            rt.with_machine::<PresentationMachine, _>(pb, |m| m.data_received)
                .unwrap(),
            0
        );
    }

    #[test]
    fn orderly_release_through_both_layers() {
        let (rt, pa, pb) = stack_pair();
        establish(&rt, pa, pb);
        rt.inject(ip(pa, UP), Box::new(PRelReq)).unwrap();
        run(&rt);
        assert_eq!(rt.module_state(pb), Some(REL_RESPONDING));
        rt.inject(ip(pb, UP), Box::new(PRelRsp)).unwrap();
        run(&rt);
        assert_eq!(rt.module_state(pa), Some(IDLE));
        assert_eq!(rt.module_state(pb), Some(IDLE));
    }

    #[test]
    fn user_rejection_propagates() {
        let (rt, pa, pb) = stack_pair();
        rt.inject(
            ip(pa, UP),
            Box::new(PConReq {
                contexts: mcam_contexts(),
                user_data: vec![],
            }),
        )
        .unwrap();
        run(&rt);
        rt.inject(
            ip(pb, UP),
            Box::new(PConRsp {
                accept: false,
                user_data: vec![],
            }),
        )
        .unwrap();
        run(&rt);
        assert_eq!(rt.module_state(pa), Some(IDLE));
        assert_eq!(rt.module_state(pb), Some(IDLE));
    }

    #[test]
    fn abort_tears_down_both_sides() {
        let (rt, pa, pb) = stack_pair();
        establish(&rt, pa, pb);
        rt.inject(ip(pa, UP), Box::new(PAbortReq { reason: 9 }))
            .unwrap();
        run(&rt);
        assert_eq!(rt.module_state(pa), Some(IDLE));
        assert_eq!(rt.module_state(pb), Some(IDLE));
    }
}
