//! The hand-coded presentation/session stack with an ISODE-style call
//! interface.
//!
//! This is the reproduction's "ISODE v8.0": a direct-style, manually
//! optimized implementation of the same wire protocol the generated
//! Estelle stack speaks (CN/AC/… SPDUs carrying CP/CPA/… PPDUs). It is
//! byte-compatible with `presentation::PresentationMachine` over
//! `session::SessionMachine`, which lets the experiments compare
//! generated vs. hand-written code on identical traffic — and even
//! interoperate across the two implementations.

use netsim::Medium;
use presentation::{ContextResult, Ppdu, ProposedContext, TRANSFER_BER};
use session::{Spdu, VERSION_1, VERSION_2};
use std::collections::VecDeque;
use std::fmt;

/// Events delivered by the stack to its user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsodeEvent {
    /// P-CONNECT.indication: a peer proposes an association.
    ConnectInd {
        /// Proposed presentation contexts.
        contexts: Vec<ProposedContext>,
        /// Presentation-user data.
        user_data: Vec<u8>,
    },
    /// P-CONNECT.confirm.
    ConnectCnf {
        /// Whether the association was accepted.
        accepted: bool,
        /// Context negotiation results.
        results: Vec<ContextResult>,
        /// Presentation-user data.
        user_data: Vec<u8>,
    },
    /// P-DATA.indication.
    DataInd {
        /// Context identifier.
        context_id: i64,
        /// Presentation-user data.
        user_data: Vec<u8>,
    },
    /// P-RELEASE.indication.
    ReleaseInd,
    /// P-RELEASE.confirm.
    ReleaseCnf,
    /// Abort indication (P-U-ABORT / P-P-ABORT).
    AbortInd {
        /// Reason code.
        reason: u8,
    },
}

/// Errors returned by ISODE-style service calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsodeError {
    /// The call is invalid in the current association state.
    WrongState(&'static str),
    /// Data was sent on a context that was not accepted.
    BadContext(i64),
}

impl fmt::Display for IsodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsodeError::WrongState(op) => write!(f, "{op} invalid in current state"),
            IsodeError::BadContext(id) => write!(f, "context {id} not accepted"),
        }
    }
}
impl std::error::Error for IsodeError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Idle,
    Connecting,
    Responding,
    Connected,
    Releasing,
    RelResponding,
}

/// The hand-coded combined presentation+session entity.
pub struct IsodeStack {
    medium: Box<dyn Medium>,
    state: St,
    offered: Vec<ProposedContext>,
    /// Contexts accepted in the last negotiation.
    pub accepted_contexts: Vec<i64>,
    events: VecDeque<IsodeEvent>,
    /// TDs sent.
    pub data_sent: u64,
    /// TDs received.
    pub data_received: u64,
    /// Malformed or out-of-state PDUs seen.
    pub protocol_errors: u64,
}

impl fmt::Debug for IsodeStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IsodeStack")
            .field("state", &self.state)
            .field("pending_events", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl IsodeStack {
    /// Creates a stack over `medium`.
    pub fn new(medium: Box<dyn Medium>) -> Self {
        IsodeStack {
            medium,
            state: St::Idle,
            offered: Vec::new(),
            accepted_contexts: Vec::new(),
            events: VecDeque::new(),
            data_sent: 0,
            data_received: 0,
            protocol_errors: 0,
        }
    }

    /// True once the association is in the data phase.
    pub fn is_connected(&self) -> bool {
        self.state == St::Connected
    }

    /// PConnectRequest(): proposes an association.
    ///
    /// # Errors
    ///
    /// Fails outside the idle state.
    pub fn p_connect_request(
        &mut self,
        contexts: Vec<ProposedContext>,
        user_data: Vec<u8>,
    ) -> Result<(), IsodeError> {
        if self.state != St::Idle {
            return Err(IsodeError::WrongState("PConnectRequest"));
        }
        // Hand-coded optimization: build CP and CN in one pass.
        let cp = Ppdu::Cp {
            contexts,
            user_data,
        };
        let cn = Spdu::Cn {
            versions: VERSION_1 | VERSION_2,
            user_data: cp.encode(),
        };
        self.medium.send(cn.encode());
        self.state = St::Connecting;
        Ok(())
    }

    /// PConnectResponse(): accepts or rejects a pending indication.
    ///
    /// # Errors
    ///
    /// Fails unless a connect indication is outstanding.
    pub fn p_connect_response(
        &mut self,
        accept: bool,
        user_data: Vec<u8>,
    ) -> Result<(), IsodeError> {
        if self.state != St::Responding {
            return Err(IsodeError::WrongState("PConnectResponse"));
        }
        if accept {
            let offered = std::mem::take(&mut self.offered);
            let results: Vec<ContextResult> = offered
                .iter()
                .map(|pc| ContextResult {
                    id: pc.id,
                    accepted: pc.transfer_syntax == TRANSFER_BER,
                })
                .collect();
            self.accepted_contexts = results
                .iter()
                .filter(|r| r.accepted)
                .map(|r| r.id)
                .collect();
            let cpa = Ppdu::Cpa { results, user_data };
            let ac = Spdu::Ac {
                version: VERSION_2,
                user_data: cpa.encode(),
            };
            self.medium.send(ac.encode());
            self.state = St::Connected;
        } else {
            // Refuse like the generated stack does: an RF whose user
            // data is a CPR carrying the responder's application PDU
            // (empty for a plain rejection).
            let cpr = Ppdu::Cpr {
                reason: 1,
                user_data,
            };
            self.medium.send(
                Spdu::Rf {
                    reason: 1,
                    user_data: cpr.encode(),
                }
                .encode(),
            );
            self.state = St::Idle;
        }
        Ok(())
    }

    /// PDataRequest(): sends user data on a negotiated context.
    ///
    /// # Errors
    ///
    /// Fails outside the data phase or on an unaccepted context.
    pub fn p_data_request(&mut self, context_id: i64, data: Vec<u8>) -> Result<(), IsodeError> {
        if self.state != St::Connected {
            return Err(IsodeError::WrongState("PDataRequest"));
        }
        if !self.accepted_contexts.contains(&context_id) {
            return Err(IsodeError::BadContext(context_id));
        }
        let td = Ppdu::Td {
            context_id,
            user_data: data,
        };
        self.medium.send(
            Spdu::Dt {
                user_data: td.encode(),
            }
            .encode(),
        );
        self.data_sent += 1;
        Ok(())
    }

    /// PReleaseRequest(): starts an orderly release.
    ///
    /// # Errors
    ///
    /// Fails outside the data phase.
    pub fn p_release_request(&mut self) -> Result<(), IsodeError> {
        if self.state != St::Connected {
            return Err(IsodeError::WrongState("PReleaseRequest"));
        }
        self.medium.send(
            Spdu::Fn {
                user_data: Vec::new(),
            }
            .encode(),
        );
        self.state = St::Releasing;
        Ok(())
    }

    /// PReleaseResponse(): completes a peer-initiated release.
    ///
    /// # Errors
    ///
    /// Fails unless a release indication is outstanding.
    pub fn p_release_response(&mut self) -> Result<(), IsodeError> {
        if self.state != St::RelResponding {
            return Err(IsodeError::WrongState("PReleaseResponse"));
        }
        self.medium.send(
            Spdu::Dn {
                user_data: Vec::new(),
            }
            .encode(),
        );
        self.state = St::Idle;
        Ok(())
    }

    /// PUAbortRequest(): abruptly aborts the association.
    pub fn p_abort_request(&mut self, reason: u8) {
        self.medium.send(Spdu::Ab { reason }.encode());
        self.state = St::Idle;
    }

    /// Drains the next pending event.
    pub fn poll_event(&mut self) -> Option<IsodeEvent> {
        self.events.pop_front()
    }

    /// Registers the waker of whoever asks [`IsodeStack::has_work`]
    /// with the stack's medium (see [`Medium::on_available`]).
    pub(crate) fn on_available(&self, waker: std::task::Waker) {
        self.medium.on_available(waker);
    }

    /// True when the medium has unprocessed traffic or events wait.
    pub(crate) fn has_work(&self) -> bool {
        !self.events.is_empty() || self.medium.available() > 0
    }

    /// Processes all available wire traffic; returns PDUs handled.
    pub fn pump(&mut self) -> usize {
        let mut n = 0;
        while let Some(raw) = self.medium.poll() {
            n += 1;
            match Spdu::decode(&raw) {
                Ok(s) => self.handle(s),
                Err(_) => self.protocol_errors += 1,
            }
        }
        n
    }

    fn handle(&mut self, spdu: Spdu) {
        match (self.state, spdu) {
            (St::Idle, Spdu::Cn { user_data, .. }) => match Ppdu::decode(&user_data) {
                Ok(Ppdu::Cp {
                    contexts,
                    user_data,
                }) => {
                    self.offered = contexts.clone();
                    self.state = St::Responding;
                    self.events.push_back(IsodeEvent::ConnectInd {
                        contexts,
                        user_data,
                    });
                }
                _ => {
                    self.protocol_errors += 1;
                    self.medium.send(
                        Spdu::Rf {
                            reason: 2,
                            user_data: Vec::new(),
                        }
                        .encode(),
                    );
                }
            },
            (St::Connecting, Spdu::Ac { user_data, .. }) => match Ppdu::decode(&user_data) {
                Ok(Ppdu::Cpa { results, user_data }) => {
                    self.accepted_contexts = results
                        .iter()
                        .filter(|r| r.accepted)
                        .map(|r| r.id)
                        .collect();
                    self.state = St::Connected;
                    self.events.push_back(IsodeEvent::ConnectCnf {
                        accepted: true,
                        results,
                        user_data,
                    });
                }
                _ => {
                    self.protocol_errors += 1;
                    self.state = St::Idle;
                }
            },
            (St::Connecting, Spdu::Rf { user_data, .. }) => {
                let user_data = match Ppdu::decode(&user_data) {
                    Ok(Ppdu::Cpr { user_data, .. }) => user_data,
                    _ => Vec::new(),
                };
                self.state = St::Idle;
                self.events.push_back(IsodeEvent::ConnectCnf {
                    accepted: false,
                    results: Vec::new(),
                    user_data,
                });
            }
            (St::Connected, Spdu::Dt { user_data }) => match Ppdu::decode(&user_data) {
                Ok(Ppdu::Td {
                    context_id,
                    user_data,
                }) => {
                    self.data_received += 1;
                    self.events.push_back(IsodeEvent::DataInd {
                        context_id,
                        user_data,
                    });
                }
                _ => self.protocol_errors += 1,
            },
            (St::Connected, Spdu::Fn { .. }) => {
                self.state = St::RelResponding;
                self.events.push_back(IsodeEvent::ReleaseInd);
            }
            (St::Releasing, Spdu::Dn { .. }) => {
                self.state = St::Idle;
                self.events.push_back(IsodeEvent::ReleaseCnf);
            }
            (_, Spdu::Ab { reason }) => {
                self.state = St::Idle;
                self.events.push_back(IsodeEvent::AbortInd { reason });
            }
            _ => self.protocol_errors += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::LoopbackMedium;
    use presentation::mcam_contexts;

    fn pair() -> (IsodeStack, IsodeStack) {
        let (a, b) = LoopbackMedium::pair();
        (IsodeStack::new(Box::new(a)), IsodeStack::new(Box::new(b)))
    }

    fn settle(a: &mut IsodeStack, b: &mut IsodeStack) {
        while a.pump() + b.pump() > 0 {}
    }

    fn establish(a: &mut IsodeStack, b: &mut IsodeStack) {
        a.p_connect_request(mcam_contexts(), b"AARQ".to_vec())
            .unwrap();
        settle(a, b);
        assert!(matches!(
            b.poll_event(),
            Some(IsodeEvent::ConnectInd { .. })
        ));
        b.p_connect_response(true, b"AARE".to_vec()).unwrap();
        settle(a, b);
        assert!(matches!(
            a.poll_event(),
            Some(IsodeEvent::ConnectCnf { accepted: true, .. })
        ));
        assert!(a.is_connected() && b.is_connected());
    }

    #[test]
    fn connect_data_release() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
        a.p_data_request(1, b"pdu".to_vec()).unwrap();
        settle(&mut a, &mut b);
        assert_eq!(
            b.poll_event(),
            Some(IsodeEvent::DataInd {
                context_id: 1,
                user_data: b"pdu".to_vec()
            })
        );
        a.p_release_request().unwrap();
        settle(&mut a, &mut b);
        assert_eq!(b.poll_event(), Some(IsodeEvent::ReleaseInd));
        b.p_release_response().unwrap();
        settle(&mut a, &mut b);
        assert_eq!(a.poll_event(), Some(IsodeEvent::ReleaseCnf));
        assert!(!a.is_connected() && !b.is_connected());
        assert_eq!(a.protocol_errors + b.protocol_errors, 0);
    }

    #[test]
    fn refuse_path() {
        let (mut a, mut b) = pair();
        a.p_connect_request(mcam_contexts(), vec![]).unwrap();
        settle(&mut a, &mut b);
        b.poll_event();
        b.p_connect_response(false, vec![]).unwrap();
        settle(&mut a, &mut b);
        assert!(matches!(
            a.poll_event(),
            Some(IsodeEvent::ConnectCnf {
                accepted: false,
                ..
            })
        ));
    }

    #[test]
    fn abort_path() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
        a.p_abort_request(5);
        settle(&mut a, &mut b);
        assert_eq!(b.poll_event(), Some(IsodeEvent::AbortInd { reason: 5 }));
        assert!(!b.is_connected());
    }

    #[test]
    fn state_errors_reported() {
        let (mut a, _b) = pair();
        assert!(matches!(
            a.p_data_request(1, vec![]),
            Err(IsodeError::WrongState(_))
        ));
        assert!(a.p_release_request().is_err());
        assert!(a.p_connect_response(true, vec![]).is_err());
    }

    #[test]
    fn bad_context_rejected() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b);
        assert_eq!(
            a.p_data_request(42, vec![]),
            Err(IsodeError::BadContext(42))
        );
    }
}
