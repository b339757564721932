//! The Estelle↔ISODE interface module (paper §4.3).
//!
//! In the paper's second stack configuration the MCAM module sits
//! directly on ISODE: an external-body Estelle module maps interaction
//! -point messages onto ISODE library calls (`PConnectRequest()` …) and
//! inbound ISODE events back onto Estelle interactions. The execution
//! loop is literally:
//!
//! ```text
//! while true do
//!   if (IP.message)    then encode in ISODE format; call ISODE function
//!   if (ISODE.message) then encode in Estelle format; output IP.message
//! end
//! ```

use crate::stack::{IsodeEvent, IsodeStack};
use estelle::{downcast, Ctx, IpIndex, StateId, StateMachine, Transition};
use netsim::SimDuration;
use presentation::service::{
    PAbortInd, PAbortReq, PConCnf, PConInd, PConReq, PConRsp, PDataInd, PDataReq, PRelCnf, PRelInd,
    PRelReq, PRelRsp,
};

/// The interface module's single interaction point (P-service up).
pub const UP: IpIndex = IpIndex(0);

const RUN: StateId = StateId(0);

/// External-body module wrapping an [`IsodeStack`].
#[derive(Debug)]
pub struct IsodeInterfaceModule {
    /// The wrapped hand-coded stack.
    pub stack: IsodeStack,
    /// Service calls that failed (wrong state etc.).
    pub call_errors: u64,
}

impl IsodeInterfaceModule {
    /// Wraps `stack`.
    pub fn new(stack: IsodeStack) -> Self {
        IsodeInterfaceModule {
            stack,
            call_errors: 0,
        }
    }
}

impl StateMachine for IsodeInterfaceModule {
    fn num_ips(&self) -> usize {
        1
    }

    fn initial_state(&self) -> StateId {
        RUN
    }

    fn transitions() -> Vec<Transition<Self>> {
        vec![
            // if (IP.message) then call appropriate ISODE function
            Transition::on("ip-to-isode", RUN, UP, |m: &mut Self, _ctx, msg| {
                let msg = msg.expect("when clause");
                let msg = match downcast::<PConReq>(msg) {
                    Ok(req) => {
                        if m.stack
                            .p_connect_request(req.contexts, req.user_data)
                            .is_err()
                        {
                            m.call_errors += 1;
                        }
                        return;
                    }
                    Err(m2) => m2,
                };
                let msg = match downcast::<PConRsp>(msg) {
                    Ok(rsp) => {
                        if m.stack
                            .p_connect_response(rsp.accept, rsp.user_data)
                            .is_err()
                        {
                            m.call_errors += 1;
                        }
                        return;
                    }
                    Err(m2) => m2,
                };
                let msg = match downcast::<PDataReq>(msg) {
                    Ok(req) => {
                        if m.stack
                            .p_data_request(req.context_id, req.user_data)
                            .is_err()
                        {
                            m.call_errors += 1;
                        }
                        return;
                    }
                    Err(m2) => m2,
                };
                let msg = match downcast::<PRelReq>(msg) {
                    Ok(_) => {
                        if m.stack.p_release_request().is_err() {
                            m.call_errors += 1;
                        }
                        return;
                    }
                    Err(m2) => m2,
                };
                let msg = match downcast::<PRelRsp>(msg) {
                    Ok(_) => {
                        if m.stack.p_release_response().is_err() {
                            m.call_errors += 1;
                        }
                        return;
                    }
                    Err(m2) => m2,
                };
                match downcast::<PAbortReq>(msg) {
                    Ok(req) => m.stack.p_abort_request(req.reason as u8),
                    Err(_) => m.call_errors += 1,
                }
            })
            .cost(SimDuration::from_micros(40)),
            // if (ISODE.message) then output IP.message
            Transition::spontaneous("isode-to-ip", RUN, |m: &mut Self, ctx, _| {
                m.stack.pump();
                while let Some(ev) = m.stack.poll_event() {
                    match ev {
                        IsodeEvent::ConnectInd {
                            contexts,
                            user_data,
                        } => {
                            ctx.output(
                                UP,
                                PConInd {
                                    contexts,
                                    user_data,
                                },
                            );
                        }
                        IsodeEvent::ConnectCnf {
                            accepted,
                            results,
                            user_data,
                        } => {
                            ctx.output(
                                UP,
                                PConCnf {
                                    accepted,
                                    results,
                                    user_data,
                                },
                            );
                        }
                        IsodeEvent::DataInd {
                            context_id,
                            user_data,
                        } => {
                            ctx.output(
                                UP,
                                PDataInd {
                                    context_id,
                                    user_data,
                                },
                            );
                        }
                        IsodeEvent::ReleaseInd => ctx.output(UP, PRelInd),
                        IsodeEvent::ReleaseCnf => ctx.output(UP, PRelCnf),
                        IsodeEvent::AbortInd { reason } => {
                            ctx.output(
                                UP,
                                PAbortInd {
                                    reason: i64::from(reason),
                                },
                            );
                        }
                    }
                }
            })
            .provided(|m, _| m.stack.has_work())
            // Woken by the stack's medium after each delivery; events
            // the stack queues itself come from this module's actions.
            .woken()
            .cost(SimDuration::from_micros(40)),
        ]
    }

    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.on_available(ctx.waker());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estelle::sched::{run_sequential, SeqOptions};
    use estelle::{ip, ModuleKind, ModuleLabels, Runtime};
    use netsim::LoopbackMedium;
    use presentation::mcam_contexts;

    /// Two interface modules in one runtime, their stacks joined by a
    /// loopback medium — the full ISODE configuration minus MCAM.
    #[test]
    fn interface_modules_bridge_p_service() {
        let (ma, mb) = LoopbackMedium::pair();
        let (rt, _c) = Runtime::sim();
        let ia = rt
            .add_module(
                None,
                "isode-a",
                ModuleKind::SystemProcess,
                ModuleLabels::default(),
                IsodeInterfaceModule::new(IsodeStack::new(Box::new(ma))),
            )
            .unwrap();
        let ib = rt
            .add_module(
                None,
                "isode-b",
                ModuleKind::SystemProcess,
                ModuleLabels::default(),
                IsodeInterfaceModule::new(IsodeStack::new(Box::new(mb))),
            )
            .unwrap();
        rt.start().unwrap();
        let run = || run_sequential(&rt, &SeqOptions::default());

        rt.inject(
            ip(ia, UP),
            Box::new(PConReq {
                contexts: mcam_contexts(),
                user_data: b"AARQ".to_vec(),
            }),
        )
        .unwrap();
        run();
        rt.inject(
            ip(ib, UP),
            Box::new(PConRsp {
                accept: true,
                user_data: b"AARE".to_vec(),
            }),
        )
        .unwrap();
        run();
        assert!(rt
            .with_machine::<IsodeInterfaceModule, _>(ia, |m| m.stack.is_connected())
            .unwrap());
        rt.inject(
            ip(ia, UP),
            Box::new(PDataReq {
                context_id: 1,
                user_data: b"x".to_vec(),
            }),
        )
        .unwrap();
        run();
        assert_eq!(
            rt.with_machine::<IsodeInterfaceModule, _>(ib, |m| m.stack.data_received)
                .unwrap(),
            1
        );
        assert_eq!(
            rt.with_machine::<IsodeInterfaceModule, _>(ia, |m| m.call_errors)
                .unwrap(),
            0
        );
    }
}
