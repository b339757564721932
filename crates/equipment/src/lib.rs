//! `equipment` — the CM Equipment Control System (ECS).
//!
//! The second support service the paper calls "absolutely necessary"
//! (§2): control of continuous-media equipment attached to remote
//! computer systems — speakers, cameras, microphones (and displays).
//! The functional model (Fig. 1) has an Equipment Control Agent (ECA)
//! per site and an Equipment User Agent (EUA) inside each MCAM
//! instance.
//!
//! Beyond the paper's base model the crate provides *leased*
//! reservations with expiry ([`Eca::reserve_until`] /
//! [`Eca::expire_leases`], judged by the ECA's monotonic clock) and
//! FIFO wait queues for contended devices ([`Eca::enqueue`]). The
//! crate keeps no log of its own: what happened in a run is recorded
//! once, in the `journal` crate.
//!
//! # Examples
//!
//! ```
//! use equipment::{Eca, Eua, EquipmentClass, param};
//!
//! # fn main() -> Result<(), equipment::EcsError> {
//! let site = Eca::new("studio");
//! let cam = site.register(EquipmentClass::Camera, "cam-1");
//! let mut eua = Eua::new(1);
//! eua.add_site(&site);
//! eua.reserve("studio", cam)?;
//! eua.set_param("studio", cam, param::FRAME_RATE, 25)?;
//! eua.activate("studio", cam)?;
//! eua.release("studio", cam)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod agents;
mod error;
pub mod params;
mod registry;

/// Compatibility alias for [`params`].
pub use self::params as param;

pub use agents::Eua;
pub use error::EcsError;
pub use registry::{
    ClientId, DeviceState, Eca, Enqueued, EquipmentClass, EquipmentDesc, EquipmentId,
};
