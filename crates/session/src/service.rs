//! S-service primitives exchanged between the session entity and its
//! user (normally the presentation layer).

use estelle::impl_interaction;

/// S-CONNECT.request.
#[derive(Debug)]
pub struct SConReq {
    /// Session-user data carried in the CN SPDU.
    pub user_data: Vec<u8>,
}

/// S-CONNECT.indication.
#[derive(Debug)]
pub struct SConInd {
    /// Session-user data from the initiator.
    pub user_data: Vec<u8>,
}

/// S-CONNECT.response.
#[derive(Debug)]
pub struct SConRsp {
    /// Accept or refuse the connection.
    pub accept: bool,
    /// Session-user data for the AC SPDU.
    pub user_data: Vec<u8>,
}

/// S-CONNECT.confirm.
#[derive(Debug)]
pub struct SConCnf {
    /// True when the peer accepted.
    pub accepted: bool,
    /// Negotiated protocol version (meaningful when accepted).
    pub version: u8,
    /// Session-user data from the acceptor.
    pub user_data: Vec<u8>,
}

/// S-DATA.request.
#[derive(Debug)]
pub struct SDataReq {
    /// Session-user data.
    pub user_data: Vec<u8>,
}

/// S-DATA.indication.
#[derive(Debug)]
pub struct SDataInd {
    /// Session-user data.
    pub user_data: Vec<u8>,
}

/// S-RELEASE.request (orderly release).
#[derive(Debug)]
pub struct SRelReq;

/// S-RELEASE.indication.
#[derive(Debug)]
pub struct SRelInd;

/// S-RELEASE.response.
#[derive(Debug)]
pub struct SRelRsp;

/// S-RELEASE.confirm.
#[derive(Debug)]
pub struct SRelCnf;

/// S-U-ABORT.request.
#[derive(Debug)]
pub struct SAbortReq {
    /// Abort reason propagated in the AB SPDU.
    pub reason: u8,
}

/// S-P-ABORT / S-U-ABORT indication.
#[derive(Debug)]
pub struct SAbortInd {
    /// Abort reason.
    pub reason: u8,
}

impl_interaction!(
    SConReq, SConInd, SConRsp, SConCnf, SDataReq, SDataInd, SRelReq, SRelInd, SRelRsp, SRelCnf,
    SAbortReq, SAbortInd
);

#[cfg(test)]
mod tests {
    use estelle::{downcast, Interaction};

    #[test]
    fn primitives_downcast_through_the_interaction_box() {
        let b: Box<dyn Interaction> = Box::new(super::SConReq { user_data: vec![7] });
        assert!(!b.is::<super::SConInd>());
        let req = downcast::<super::SConReq>(b).unwrap();
        assert_eq!(req.user_data, [7]);
        let b: Box<dyn Interaction> = Box::new(super::SRelCnf);
        assert!(b.is::<super::SRelCnf>());
    }
}
