//! The application module.
//!
//! In the paper this module's body is external: a generated X-Window
//! interface where "any message sent by the application can be invoked
//! via a button-click". Our substitute is script- or queue-driven: a
//! list of [`McamOp`]s is played against the MCA one at a time (each
//! sent when the previous confirmation arrives), and a test harness
//! can push further operations interactively.

use crate::pdus::McamPdu;
use crate::service::{McamCnf, McamOp, McamReq};
use estelle::{downcast, is, Ctx, IpIndex, StateId, StateMachine, Transition};
use netsim::SimDuration;
use std::collections::VecDeque;

/// Interaction point to the client root (association bootstrap).
pub const TO_ROOT: IpIndex = IpIndex(0);
/// Interaction point to the MCA (everything else).
pub const TO_MCA: IpIndex = IpIndex(1);

const RUN: StateId = StateId(0);

/// The scriptable application module.
#[derive(Debug, Default)]
pub struct AppMachine {
    /// Pre-loaded operations (played in order).
    pub script: VecDeque<McamOp>,
    /// Operations pushed interactively by a driver.
    pub queued: VecDeque<McamOp>,
    /// True while a confirmation is outstanding.
    pub awaiting: bool,
    /// True once the association bootstrap was sent.
    pub started: bool,
    /// Confirmations received, in order.
    pub replies: Vec<McamPdu>,
}

impl AppMachine {
    /// An application that will play `script`; the first operation
    /// must be [`McamOp::Associate`] (it triggers stack creation).
    pub(crate) fn with_script(script: Vec<McamOp>) -> Self {
        AppMachine {
            script: script.into(),
            ..Default::default()
        }
    }

    fn next_op(&mut self) -> Option<McamOp> {
        self.script.pop_front().or_else(|| self.queued.pop_front())
    }

    fn peek_is_associate(&self) -> bool {
        matches!(
            self.script.front().or_else(|| self.queued.front()),
            Some(McamOp::Associate { .. })
        )
    }
}

impl StateMachine for AppMachine {
    fn num_ips(&self) -> usize {
        2
    }

    fn initial_state(&self) -> StateId {
        RUN
    }

    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        if self.peek_is_associate() {
            let op = self.next_op().expect("peeked");
            self.started = true;
            self.awaiting = true;
            ctx.output(TO_ROOT, McamReq(op));
        }
    }

    fn transitions() -> Vec<Transition<Self>> {
        vec![
            // Bootstrap when the Associate arrives interactively.
            Transition::spontaneous("bootstrap", RUN, |m: &mut Self, ctx, _| {
                let op = m.next_op().expect("guard checked");
                m.started = true;
                m.awaiting = true;
                ctx.output(TO_ROOT, McamReq(op));
            })
            .provided(|m, _| !m.started && m.peek_is_associate())
            // Woken by `Runtime::with_machine_mut` (`World::push_op`).
            .woken()
            .cost(SimDuration::from_micros(30)),
            Transition::on("confirmation", RUN, TO_MCA, |m: &mut Self, _ctx, msg| {
                let cnf = downcast::<McamCnf>(msg.unwrap()).unwrap();
                m.replies.push(cnf.0);
                m.awaiting = false;
            })
            .cost(SimDuration::from_micros(30)),
            // The root, too, may confirm an operation — it reports
            // referral-following failures itself because the MCA that
            // carried the operation is gone by then.
            Transition::on(
                "root-confirmation",
                RUN,
                TO_ROOT,
                |m: &mut Self, _ctx, msg| {
                    let cnf = downcast::<McamCnf>(msg.unwrap()).unwrap();
                    m.replies.push(cnf.0);
                    m.awaiting = false;
                },
            )
            .provided(|_, msg| is::<McamCnf>(msg))
            .cost(SimDuration::from_micros(30)),
            Transition::spontaneous("next-op", RUN, |m: &mut Self, ctx, _| {
                let op = m.next_op().expect("guard checked");
                m.awaiting = true;
                ctx.output(TO_MCA, McamReq(op));
            })
            .provided(|m, _| {
                m.started && !m.awaiting && (!m.script.is_empty() || !m.queued.is_empty())
            })
            // Woken by `Runtime::with_machine_mut` (`World::push_op`);
            // `awaiting` and `started` change in this module's actions.
            .woken()
            .cost(SimDuration::from_micros(30)),
        ]
    }
}
