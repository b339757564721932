//! Per-site device registry: the Equipment Control Agent (ECA).

use crate::error::EcsError;
use crate::params;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Kinds of controllable CM equipment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EquipmentClass {
    /// Video capture.
    Camera,
    /// Audio capture.
    Microphone,
    /// Audio playout.
    Speaker,
    /// Video playout.
    Display,
}

impl fmt::Display for EquipmentClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EquipmentClass::Camera => "camera",
            EquipmentClass::Microphone => "microphone",
            EquipmentClass::Speaker => "speaker",
            EquipmentClass::Display => "display",
        };
        f.write_str(s)
    }
}

/// Identifies a device within one site's ECA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EquipmentId(pub u32);

/// Identifies a client (an MCAM user) holding reservations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientId(pub u32);

/// Operational state of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceState {
    /// Unreserved.
    Free,
    /// Reserved by a client but not streaming.
    Reserved(ClientId),
    /// Reserved and actively capturing/playing.
    Active(ClientId),
}

#[derive(Debug)]
struct Device {
    class: EquipmentClass,
    name: String,
    state: DeviceState,
    params: BTreeMap<String, i64>,
}

impl Device {
    fn new(class: EquipmentClass, name: String) -> Self {
        let params = params::specs(class)
            .iter()
            .map(|s| (s.name.to_string(), s.default))
            .collect();
        Device {
            class,
            name,
            state: DeviceState::Free,
            params,
        }
    }

    /// Takes the reservation for `client`: granted when the device is
    /// free or already `client`'s, refused when another client holds it.
    fn reserve(&mut self, client: ClientId) -> bool {
        match self.state {
            DeviceState::Free => {
                self.state = DeviceState::Reserved(client);
                true
            }
            DeviceState::Reserved(c) | DeviceState::Active(c) => c == client,
        }
    }
}

/// Description of a registered device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquipmentDesc {
    /// Device id.
    pub id: EquipmentId,
    /// Device class.
    pub class: EquipmentClass,
    /// Human-readable name.
    pub name: String,
    /// Current state.
    pub state: DeviceState,
}

/// Equipment Control Agent: the per-site device registry and the
/// paper's reservation model. A device is free, reserved by one
/// client, or active under that client; a reservation is held until
/// its owner releases it.
#[derive(Debug)]
pub struct Eca {
    site: String,
    devices: RwLock<BTreeMap<EquipmentId, Device>>,
    next_id: RwLock<u32>,
}

impl Eca {
    /// Creates an empty ECA for `site`.
    pub fn new(site: impl Into<String>) -> Arc<Self> {
        Arc::new(Eca {
            site: site.into(),
            devices: RwLock::new(BTreeMap::new()),
            next_id: RwLock::new(1),
        })
    }

    /// This ECA's site name.
    pub fn site(&self) -> &str {
        &self.site
    }

    /// Registers a device and returns its id. Parameters start at
    /// their class defaults.
    pub fn register(&self, class: EquipmentClass, name: impl Into<String>) -> EquipmentId {
        let mut next = self.next_id.write();
        let id = EquipmentId(*next);
        *next += 1;
        self.devices
            .write()
            .insert(id, Device::new(class, name.into()));
        id
    }

    /// Lists devices, optionally restricted to one class.
    pub fn list(&self, class: Option<EquipmentClass>) -> Vec<EquipmentDesc> {
        self.devices
            .read()
            .iter()
            .filter(|(_, d)| class.is_none_or(|c| d.class == c))
            .map(|(&id, d)| EquipmentDesc {
                id,
                class: d.class,
                name: d.name.clone(),
                state: d.state,
            })
            .collect()
    }

    /// Reserves a device for `client`. Reservation is idempotent for
    /// the same client.
    ///
    /// # Errors
    ///
    /// Fails if the device is unknown or held by another client.
    pub fn reserve(&self, id: EquipmentId, client: ClientId) -> Result<(), EcsError> {
        let mut devs = self.devices.write();
        let d = devs.get_mut(&id).ok_or(EcsError::NotFound(id))?;
        if d.reserve(client) {
            Ok(())
        } else {
            Err(EcsError::AlreadyReserved(id))
        }
    }

    /// Reserves the first device of `class` (in id order) that
    /// [`Eca::reserve`] grants `client`, and returns its id. A device
    /// `client` already holds counts as granted.
    ///
    /// # Errors
    ///
    /// Returns [`EcsError::NoFreeDevice`] when every device of the
    /// class is held by other clients, or none is registered.
    pub fn acquire_class(
        &self,
        class: EquipmentClass,
        client: ClientId,
    ) -> Result<EquipmentId, EcsError> {
        self.devices
            .write()
            .iter_mut()
            .filter(|(_, d)| d.class == class)
            .find_map(|(&id, d)| d.reserve(client).then_some(id))
            .ok_or(EcsError::NoFreeDevice(class))
    }

    /// Releases a device held by `client` (active devices stop
    /// first).
    ///
    /// # Errors
    ///
    /// Fails if unknown, free, or held by someone else.
    pub fn release(&self, id: EquipmentId, client: ClientId) -> Result<(), EcsError> {
        let mut devs = self.devices.write();
        let d = devs.get_mut(&id).ok_or(EcsError::NotFound(id))?;
        match d.state {
            DeviceState::Reserved(c) | DeviceState::Active(c) if c == client => {
                d.state = DeviceState::Free;
                Ok(())
            }
            DeviceState::Free => Err(EcsError::NotReserved(id)),
            _ => Err(EcsError::NotOwner(id)),
        }
    }

    /// Starts the device (capture/playout).
    ///
    /// # Errors
    ///
    /// Requires an owned reservation.
    pub fn activate(&self, id: EquipmentId, client: ClientId) -> Result<(), EcsError> {
        let mut devs = self.devices.write();
        let d = devs.get_mut(&id).ok_or(EcsError::NotFound(id))?;
        match d.state {
            DeviceState::Reserved(c) | DeviceState::Active(c) if c == client => {
                d.state = DeviceState::Active(client);
                Ok(())
            }
            DeviceState::Free => Err(EcsError::NotReserved(id)),
            _ => Err(EcsError::NotOwner(id)),
        }
    }

    /// Stops an active device, keeping the reservation.
    ///
    /// # Errors
    ///
    /// Requires an owned reservation.
    pub fn deactivate(&self, id: EquipmentId, client: ClientId) -> Result<(), EcsError> {
        let mut devs = self.devices.write();
        let d = devs.get_mut(&id).ok_or(EcsError::NotFound(id))?;
        match d.state {
            DeviceState::Active(c) | DeviceState::Reserved(c) if c == client => {
                d.state = DeviceState::Reserved(client);
                Ok(())
            }
            DeviceState::Free => Err(EcsError::NotReserved(id)),
            _ => Err(EcsError::NotOwner(id)),
        }
    }

    /// Sets a device parameter; requires an owned reservation and a
    /// class-valid parameter.
    ///
    /// # Errors
    ///
    /// Fails on ownership or validation problems.
    pub fn set_param(
        &self,
        id: EquipmentId,
        client: ClientId,
        name: &str,
        value: i64,
    ) -> Result<(), EcsError> {
        let mut devs = self.devices.write();
        let d = devs.get_mut(&id).ok_or(EcsError::NotFound(id))?;
        match d.state {
            DeviceState::Reserved(c) | DeviceState::Active(c) if c == client => {}
            DeviceState::Free => return Err(EcsError::NotReserved(id)),
            _ => return Err(EcsError::NotOwner(id)),
        }
        let spec = params::spec(d.class, name).ok_or_else(|| EcsError::InvalidParameter {
            name: name.into(),
            value,
        })?;
        if !spec.accepts(value) {
            return Err(EcsError::InvalidParameter {
                name: name.into(),
                value,
            });
        }
        d.params.insert(name.to_string(), value);
        Ok(())
    }

    /// Reads a device parameter (class defaults are pre-populated at
    /// registration).
    pub fn get_param(&self, id: EquipmentId, name: &str) -> Option<i64> {
        self.devices
            .read()
            .get(&id)
            .and_then(|d| d.params.get(name).copied())
    }

    /// Reads a device's state.
    pub fn state(&self, id: EquipmentId) -> Option<DeviceState> {
        self.devices.read().get(&id).map(|d| d.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_lifecycle() {
        let eca = Eca::new("lab");
        let cam = eca.register(EquipmentClass::Camera, "cam");
        let alice = ClientId(1);
        let bob = ClientId(2);
        assert_eq!(eca.state(cam), Some(DeviceState::Free));
        eca.reserve(cam, alice).unwrap();
        eca.reserve(cam, alice).unwrap(); // idempotent
        assert_eq!(eca.reserve(cam, bob), Err(EcsError::AlreadyReserved(cam)));
        eca.activate(cam, alice).unwrap();
        assert_eq!(eca.state(cam), Some(DeviceState::Active(alice)));
        assert_eq!(eca.release(cam, bob), Err(EcsError::NotOwner(cam)));
        eca.deactivate(cam, alice).unwrap();
        eca.release(cam, alice).unwrap();
        assert_eq!(eca.state(cam), Some(DeviceState::Free));
        assert_eq!(eca.release(cam, alice), Err(EcsError::NotReserved(cam)));
    }

    #[test]
    fn parameters_validated_by_class() {
        let eca = Eca::new("lab");
        let spk = eca.register(EquipmentClass::Speaker, "spk");
        let c = ClientId(1);
        assert_eq!(
            eca.set_param(spk, c, params::VOLUME, 50),
            Err(EcsError::NotReserved(spk))
        );
        eca.reserve(spk, c).unwrap();
        eca.set_param(spk, c, params::VOLUME, 80).unwrap();
        assert_eq!(eca.get_param(spk, params::VOLUME), Some(80));
        assert!(matches!(
            eca.set_param(spk, c, params::VOLUME, 150),
            Err(EcsError::InvalidParameter { .. })
        ));
        // Gain is not a speaker parameter.
        assert!(matches!(
            eca.set_param(spk, c, params::GAIN, 10),
            Err(EcsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn defaults_prepopulated() {
        let eca = Eca::new("lab");
        let cam = eca.register(EquipmentClass::Camera, "cam");
        assert_eq!(eca.get_param(cam, params::FRAME_RATE), Some(25));
        assert_eq!(eca.get_param(cam, params::GAIN), Some(50));
        assert_eq!(eca.get_param(cam, params::VOLUME), None);
    }

    #[test]
    fn listing_by_class() {
        let eca = Eca::new("lab");
        eca.register(EquipmentClass::Camera, "c1");
        eca.register(EquipmentClass::Camera, "c2");
        eca.register(EquipmentClass::Speaker, "s1");
        assert_eq!(eca.list(None).len(), 3);
        assert_eq!(eca.list(Some(EquipmentClass::Camera)).len(), 2);
        assert_eq!(eca.list(Some(EquipmentClass::Display)).len(), 0);
    }

    #[test]
    fn unknown_device() {
        let eca = Eca::new("lab");
        assert_eq!(
            eca.reserve(EquipmentId(99), ClientId(1)),
            Err(EcsError::NotFound(EquipmentId(99)))
        );
        assert_eq!(eca.state(EquipmentId(99)), None);
    }

    #[test]
    fn acquire_class_picks_a_free_device() {
        let site = Eca::new("studio");
        let c1 = site.register(EquipmentClass::Camera, "c1");
        let c2 = site.register(EquipmentClass::Camera, "c2");
        let (a, b, c) = (ClientId(1), ClientId(2), ClientId(3));
        let got_a = site.acquire_class(EquipmentClass::Camera, a).unwrap();
        let got_b = site.acquire_class(EquipmentClass::Camera, b).unwrap();
        assert_ne!(got_a, got_b);
        assert!([c1, c2].contains(&got_a));
        assert!([c1, c2].contains(&got_b));
        // Both taken now.
        assert_eq!(
            site.acquire_class(EquipmentClass::Camera, c),
            Err(EcsError::NoFreeDevice(EquipmentClass::Camera))
        );
        // But a different class is unaffected (none registered).
        assert!(site.acquire_class(EquipmentClass::Speaker, c).is_err());
    }
}
