//! External-body utility modules.
//!
//! The paper's specification declares some module bodies `external`
//! (ISODE interface, X application) and fills them with hand-written
//! code (§4.3). The most common external body — bridging an Estelle
//! interaction point to a byte-oriented transport medium — is provided
//! here as [`MediumModule`].

use crate::ctx::Ctx;
use crate::ids::{IpIndex, StateId};
use crate::impl_interaction;
use crate::machine::{StateMachine, Transition};
use netsim::{Medium, SimDuration};

/// Raw bytes crossing the boundary between a specification and a
/// transport medium.
#[derive(Debug)]
pub struct WireData(pub Vec<u8>);
impl_interaction!(WireData);

/// The single interaction point of a [`MediumModule`].
pub const MEDIUM_IP: IpIndex = IpIndex(0);

/// An external-body module that forwards [`WireData`] interactions to a
/// [`Medium`] and delivers the medium's inbound traffic.
///
/// The meaning of its body is exactly the §4.3 loop:
///
/// ```text
/// while true do
///   if (IP.message)    then send on medium
///   if (medium.message) then output IP.message
/// end
/// ```
///
/// The runtime no longer *executes* that loop by polling: the first
/// branch is a `when` transition, announced by its message, and the
/// second is a [`Transition::woken`] transition — the module hands its
/// waker to the medium in `initialize`, and `medium.message` is looked
/// at when the medium says something arrived. Between announcements
/// the module costs the scheduler nothing, and every firing happens
/// where the loop would have made it.
#[derive(Debug)]
pub struct MediumModule {
    medium: Box<dyn Medium>,
    /// Bytes forwarded from the specification to the medium.
    pub bytes_out: u64,
    /// Bytes delivered from the medium into the specification.
    pub bytes_in: u64,
}

impl MediumModule {
    /// Wraps `medium`.
    pub fn new(medium: Box<dyn Medium>) -> Self {
        MediumModule {
            medium,
            bytes_out: 0,
            bytes_in: 0,
        }
    }
}

const RUN: StateId = StateId(0);

impl StateMachine for MediumModule {
    fn num_ips(&self) -> usize {
        1
    }

    fn initial_state(&self) -> StateId {
        RUN
    }

    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        self.medium.on_available(ctx.waker());
    }

    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::on("to-medium", RUN, MEDIUM_IP, |m: &mut Self, _ctx, msg| {
                let data = crate::interaction::downcast::<WireData>(msg.expect("when clause"))
                    .expect("medium modules carry WireData only");
                m.bytes_out += data.0.len() as u64;
                m.medium.send(data.0);
            })
            .cost(SimDuration::from_micros(20)),
            Transition::spontaneous("from-medium", RUN, |m: &mut Self, ctx, _| {
                if let Some(data) = m.medium.poll() {
                    m.bytes_in += data.len() as u64;
                    ctx.output(MEDIUM_IP, WireData(data));
                }
            })
            .provided(|m, _| m.medium.available() > 0)
            // Woken by the medium after each delivery (`on_available`).
            .woken()
            .cost(SimDuration::from_micros(20)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ModuleKind, ModuleLabels};
    use crate::runtime::Runtime;
    use crate::sched::{run_sequential, SeqOptions};
    use netsim::LoopbackMedium;

    #[derive(Debug, Default)]
    struct EchoUser {
        got: Vec<Vec<u8>>,
    }
    impl StateMachine for EchoUser {
        fn num_ips(&self) -> usize {
            1
        }
        fn initial_state(&self) -> StateId {
            RUN
        }
        fn on_init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.output(IpIndex(0), WireData(b"hello".to_vec()));
        }
        fn transitions() -> Vec<Transition<Self>> {
            vec![Transition::on(
                "recv",
                RUN,
                IpIndex(0),
                |m: &mut Self, _ctx, msg| {
                    let d = crate::interaction::downcast::<WireData>(msg.unwrap()).unwrap();
                    m.got.push(d.0);
                },
            )]
        }
    }

    /// Creates its wire as a child, in `initialize`, over a medium
    /// handed to it — the way a server root wires a stack onto a
    /// connection that may already hold the connect request.
    #[derive(Debug)]
    struct Acceptor {
        medium: Option<Box<dyn Medium>>,
        got: Vec<Vec<u8>>,
    }
    impl StateMachine for Acceptor {
        fn num_ips(&self) -> usize {
            1
        }
        fn initial_state(&self) -> StateId {
            RUN
        }
        fn on_init(&mut self, ctx: &mut Ctx<'_>) {
            let wire = ctx.create_child(
                "wire",
                ModuleKind::Process,
                ModuleLabels::default(),
                MediumModule::new(self.medium.take().expect("initialized once")),
            );
            ctx.connect(ctx.self_ip(IpIndex(0)), crate::ctx::ip(wire, MEDIUM_IP));
        }
        fn transitions() -> Vec<Transition<Self>> {
            vec![Transition::on(
                "recv",
                RUN,
                IpIndex(0),
                |m: &mut Self, _ctx, msg| {
                    let d = crate::interaction::downcast::<WireData>(msg.unwrap()).unwrap();
                    m.got.push(d.0);
                },
            )]
        }
    }

    #[test]
    fn data_that_arrived_before_the_waker_was_registered_is_delivered() {
        let (ma, mb) = LoopbackMedium::pair();
        // Nobody is registered yet: this send wakes no one.
        mb.send(b"connect".to_vec());
        let (rt, _c) = Runtime::sim();
        let acceptor = rt
            .add_module(
                None,
                "acceptor",
                ModuleKind::SystemProcess,
                ModuleLabels::default(),
                Acceptor {
                    medium: Some(Box::new(ma)),
                    got: Vec::new(),
                },
            )
            .unwrap();
        rt.start().unwrap();
        let before = rt.counters().selects;
        let report = run_sequential(&rt, &SeqOptions::default());
        // The look every new wake-driven module is owed finds it.
        let got = |rt: &Runtime| {
            rt.with_machine::<Acceptor, _>(acceptor, |a| a.got.clone())
                .unwrap()
        };
        assert_eq!(got(&rt), vec![b"connect".to_vec()]);
        assert_eq!(report.firings, 2);
        // After that the wire is looked at when the medium says so,
        // and not otherwise.
        assert_eq!(rt.ready_index_violations(), Vec::<String>::new());
        let idle = rt.counters().selects;
        assert!(idle - before <= 4, "{} selections", idle - before);
        run_sequential(&rt, &SeqOptions::default());
        assert_eq!(rt.counters().selects, idle);
        mb.send(b"request".to_vec());
        run_sequential(&rt, &SeqOptions::default());
        assert_eq!(got(&rt).len(), 2);
    }

    #[test]
    fn medium_module_bridges_both_directions() {
        let (ma, mb) = LoopbackMedium::pair();
        let (rt, _c) = Runtime::sim();
        let user = rt
            .add_module(
                None,
                "user",
                ModuleKind::SystemProcess,
                ModuleLabels::default(),
                EchoUser::default(),
            )
            .unwrap();
        let sys = rt
            .add_module(
                None,
                "wire",
                ModuleKind::SystemProcess,
                ModuleLabels::default(),
                MediumModule::new(Box::new(ma)),
            )
            .unwrap();
        rt.connect(
            crate::ctx::ip(user, IpIndex(0)),
            crate::ctx::ip(sys, MEDIUM_IP),
        )
        .unwrap();
        rt.start().unwrap();
        run_sequential(&rt, &SeqOptions::default());
        // The user's init message crossed onto the medium.
        assert_eq!(mb.poll().unwrap(), b"hello");
        // Push something back and run again.
        mb.send(b"world".to_vec());
        run_sequential(&rt, &SeqOptions::default());
        let got = rt
            .with_machine::<EchoUser, _>(user, |u| u.got.clone())
            .unwrap();
        assert_eq!(got, vec![b"world".to_vec()]);
        assert!(
            rt.with_machine::<MediumModule, _>(sys, |m| m.bytes_out)
                .unwrap()
                == 5
        );
    }
}
