//! `equipment` — the CM Equipment Control System (ECS).
//!
//! The second support service the paper calls "absolutely necessary"
//! (§2): control of continuous-media equipment attached to remote
//! computer systems — speakers, cameras, microphones (and displays).
//! The functional model (Fig. 1) has an Equipment Control Agent (ECA)
//! per site and an Equipment User Agent (EUA) inside each MCAM
//! instance.
//!
//! This crate is the ECA ([`Eca`]) and the paper's reservation model:
//! a client reserves a device, sets its parameters, activates it, and
//! releases it; a device held by one client is refused to every other.
//! The EUA is the MCA's agent module, `mcam::agents::EuaAgent`, which
//! calls the site's [`Eca`] directly. The crate keeps no log of its
//! own: what happened in a run is recorded once, in the `journal`
//! crate.
//!
//! # Examples
//!
//! ```
//! use equipment::{params, ClientId, Eca, EcsError, EquipmentClass};
//!
//! # fn main() -> Result<(), EcsError> {
//! let site = Eca::new("studio");
//! let cam = site.register(EquipmentClass::Camera, "cam-1");
//! let (producer, viewer) = (ClientId(1), ClientId(2));
//! site.reserve(cam, producer)?;
//! site.set_param(cam, producer, params::FRAME_RATE, 25)?;
//! site.activate(cam, producer)?;
//! // The camera is the producer's until released.
//! assert_eq!(site.reserve(cam, viewer), Err(EcsError::AlreadyReserved(cam)));
//! assert_eq!(
//!     site.acquire_class(EquipmentClass::Camera, viewer),
//!     Err(EcsError::NoFreeDevice(EquipmentClass::Camera))
//! );
//! site.release(cam, producer)?;
//! assert_eq!(site.acquire_class(EquipmentClass::Camera, viewer), Ok(cam));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
pub mod params;
mod registry;

pub use error::EcsError;
pub use registry::{ClientId, DeviceState, Eca, EquipmentClass, EquipmentDesc, EquipmentId};
