//! ECS error types.

use crate::registry::EquipmentId;
use std::fmt;

/// ECS operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcsError {
    /// Unknown device id.
    NotFound(EquipmentId),
    /// The device is reserved by someone else.
    AlreadyReserved(EquipmentId),
    /// The caller does not hold the reservation.
    NotOwner(EquipmentId),
    /// Parameter unknown for this device class or value out of range.
    InvalidParameter {
        /// Parameter name.
        name: String,
        /// Offending value.
        value: i64,
    },
    /// Operation requires the device to be reserved first.
    NotReserved(EquipmentId),
    /// No free device of the requested class exists at the site.
    NoFreeDevice(crate::registry::EquipmentClass),
}

impl fmt::Display for EcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcsError::NotFound(id) => write!(f, "no such equipment: {id:?}"),
            EcsError::AlreadyReserved(id) => write!(f, "equipment busy: {id:?}"),
            EcsError::NotOwner(id) => write!(f, "not the reservation owner of {id:?}"),
            EcsError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name}={value}")
            }
            EcsError::NotReserved(id) => write!(f, "equipment not reserved: {id:?}"),
            EcsError::NoFreeDevice(class) => write!(f, "no free {class} available"),
        }
    }
}

impl std::error::Error for EcsError {}
