//! Per-site device registry: the Equipment Control Agent (ECA).

use crate::error::EcsError;
use crate::params;
use netsim::SimTime;
use parking_lot::RwLock;
use std::collections::{BTreeMap, VecDeque};
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

impl DeviceState {
    /// The reservation holder, if any.
    pub fn owner(&self) -> Option<ClientId> {
        match self {
            DeviceState::Free => None,
            DeviceState::Reserved(c) | DeviceState::Active(c) => Some(*c),
        }
    }
}

/// Outcome of [`Eca::enqueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueued {
    /// The device was free (or already ours); the reservation is held
    /// now.
    Granted,
    /// The device is busy; the caller is waiting at this queue
    /// position (0 = next in line).
    Waiting(usize),
}

#[derive(Debug)]
struct Device {
    class: EquipmentClass,
    name: String,
    state: DeviceState,
    params: BTreeMap<String, i64>,
    /// Absolute expiry of the current reservation, if leased.
    lease: Option<SimTime>,
    /// Clients waiting for the reservation, FIFO.
    waiters: VecDeque<ClientId>,
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
            lease: None,
            waiters: VecDeque::new(),
        }
    }

    /// Hands the device to the next waiter, if any.
    fn grant_next(&mut self) {
        if let Some(next) = self.waiters.pop_front() {
            self.state = DeviceState::Reserved(next);
            self.lease = None;
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

/// Equipment Control Agent: the per-site device registry and state
/// machine server.
///
/// Reservations may be *unleased* (held until released, the paper's
/// base model) or *leased* until an absolute [`SimTime`]
/// ([`Eca::reserve_until`]); expired leases are revoked by
/// [`Eca::expire_leases`] and the device passes to the first waiting
/// client, if any.
#[derive(Debug)]
pub struct Eca {
    site: String,
    devices: RwLock<BTreeMap<EquipmentId, Device>>,
    next_id: RwLock<u32>,
    clock: RwLock<SimTime>,
}

impl Eca {
    /// Creates an empty ECA for `site`.
    pub fn new(site: impl Into<String>) -> Arc<Self> {
        Arc::new(Eca {
            site: site.into(),
            devices: RwLock::new(BTreeMap::new()),
            next_id: RwLock::new(1),
            clock: RwLock::new(SimTime::ZERO),
        })
    }

    /// This ECA's site name.
    pub fn site(&self) -> &str {
        &self.site
    }

    /// Advances the registry clock leases are judged by. Time never
    /// moves backwards.
    pub fn set_time(&self, now: SimTime) {
        let mut clock = self.clock.write();
        *clock = clock.max(now);
    }

    /// The registry's current notion of time.
    pub fn now(&self) -> SimTime {
        *self.clock.read()
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

    /// Reserves a device for `client` with no lease. Reservation is
    /// idempotent for the same client (an existing lease is kept).
    ///
    /// # Errors
    ///
    /// Fails if the device is unknown or held by another client.
    pub fn reserve(&self, id: EquipmentId, client: ClientId) -> Result<(), EcsError> {
        self.reserve_inner(id, client, None)
    }

    /// Reserves a device for `client` under a lease that
    /// [`Eca::expire_leases`] revokes once past `expires`. Re-reserving
    /// as the same client replaces the lease.
    ///
    /// # Errors
    ///
    /// Fails if the device is unknown or held by another client.
    pub fn reserve_until(
        &self,
        id: EquipmentId,
        client: ClientId,
        expires: SimTime,
    ) -> Result<(), EcsError> {
        self.reserve_inner(id, client, Some(expires))
    }

    fn reserve_inner(
        &self,
        id: EquipmentId,
        client: ClientId,
        lease: Option<SimTime>,
    ) -> Result<(), EcsError> {
        let mut devs = self.devices.write();
        let d = devs.get_mut(&id).ok_or(EcsError::NotFound(id))?;
        match d.state {
            DeviceState::Free => {
                d.state = DeviceState::Reserved(client);
                d.lease = lease;
                Ok(())
            }
            DeviceState::Reserved(c) | DeviceState::Active(c) if c == client => {
                if lease.is_some() {
                    d.lease = lease;
                }
                Ok(())
            }
            _ => Err(EcsError::AlreadyReserved(id)),
        }
    }

    /// Extends (or sets) the lease of an owned reservation.
    ///
    /// # Errors
    ///
    /// Fails if unknown, free, or held by someone else.
    pub fn renew(
        &self,
        id: EquipmentId,
        client: ClientId,
        expires: SimTime,
    ) -> Result<(), EcsError> {
        let mut devs = self.devices.write();
        let d = devs.get_mut(&id).ok_or(EcsError::NotFound(id))?;
        match d.state {
            DeviceState::Reserved(c) | DeviceState::Active(c) if c == client => {
                d.lease = Some(expires);
                Ok(())
            }
            DeviceState::Free => Err(EcsError::NotReserved(id)),
            _ => Err(EcsError::NotOwner(id)),
        }
    }

    /// The absolute lease expiry of a device's reservation, if leased.
    pub fn lease(&self, id: EquipmentId) -> Option<SimTime> {
        self.devices.read().get(&id).and_then(|d| d.lease)
    }

    /// Revokes every reservation whose lease lies strictly before the
    /// registry clock after advancing it to `now` (the clock is
    /// monotonic, so a stale `now` cannot resurrect an expired
    /// lease); each affected device passes to its first waiter (who
    /// receives an unleased reservation) or becomes free. Returns the
    /// revoked (device, previous owner) pairs.
    pub fn expire_leases(&self, now: SimTime) -> Vec<(EquipmentId, ClientId)> {
        self.set_time(now);
        let now = self.now();
        let mut revoked = Vec::new();
        for (&id, d) in self.devices.write().iter_mut() {
            if !matches!(d.lease, Some(t) if t < now) {
                continue;
            }
            d.lease = None;
            let Some(owner) = d.state.owner() else {
                continue;
            };
            d.state = DeviceState::Free;
            revoked.push((id, owner));
            d.grant_next();
        }
        revoked
    }

    /// Requests the device, waiting in FIFO order if it is busy.
    ///
    /// Returns [`Enqueued::Granted`] when the reservation is held on
    /// return (free device, or already ours) and
    /// [`Enqueued::Waiting`] with the 0-based queue position
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Fails if the device is unknown or the client is already in the
    /// queue.
    pub fn enqueue(&self, id: EquipmentId, client: ClientId) -> Result<Enqueued, EcsError> {
        let mut devs = self.devices.write();
        let d = devs.get_mut(&id).ok_or(EcsError::NotFound(id))?;
        match d.state {
            DeviceState::Free => {
                d.state = DeviceState::Reserved(client);
                d.lease = None;
                Ok(Enqueued::Granted)
            }
            DeviceState::Reserved(c) | DeviceState::Active(c) if c == client => {
                Ok(Enqueued::Granted)
            }
            _ => {
                if d.waiters.contains(&client) {
                    return Err(EcsError::AlreadyWaiting(id));
                }
                d.waiters.push_back(client);
                Ok(Enqueued::Waiting(d.waiters.len() - 1))
            }
        }
    }

    /// Withdraws `client` from a device's wait queue. Returns whether
    /// the client was waiting.
    pub fn cancel_wait(&self, id: EquipmentId, client: ClientId) -> bool {
        let mut devs = self.devices.write();
        let Some(d) = devs.get_mut(&id) else {
            return false;
        };
        let before = d.waiters.len();
        d.waiters.retain(|&c| c != client);
        d.waiters.len() != before
    }

    /// Number of clients waiting for the device.
    pub fn queue_len(&self, id: EquipmentId) -> usize {
        self.devices.read().get(&id).map_or(0, |d| d.waiters.len())
    }

    /// Releases a device held by `client` (active devices stop
    /// first). The first waiting client, if any, immediately receives
    /// an unleased reservation.
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
                d.lease = None;
                d.grant_next();
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
    use netsim::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

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
    fn lease_expiry_revokes() {
        let eca = Eca::new("lab");
        let cam = eca.register(EquipmentClass::Camera, "cam");
        let alice = ClientId(1);
        eca.reserve_until(cam, alice, t(100)).unwrap();
        assert_eq!(eca.lease(cam), Some(t(100)));
        // Not yet expired at exactly the deadline.
        assert!(eca.expire_leases(t(100)).is_empty());
        assert_eq!(eca.state(cam), Some(DeviceState::Reserved(alice)));
        // Expired strictly after.
        let revoked = eca.expire_leases(t(101));
        assert_eq!(revoked, vec![(cam, alice)]);
        assert_eq!(eca.state(cam), Some(DeviceState::Free));
        assert_eq!(eca.lease(cam), None);
    }

    #[test]
    fn renew_extends_lease() {
        let eca = Eca::new("lab");
        let cam = eca.register(EquipmentClass::Camera, "cam");
        let alice = ClientId(1);
        eca.reserve_until(cam, alice, t(100)).unwrap();
        eca.renew(cam, alice, t(500)).unwrap();
        assert!(eca.expire_leases(t(200)).is_empty());
        assert_eq!(eca.state(cam), Some(DeviceState::Reserved(alice)));
        assert_eq!(
            eca.renew(cam, ClientId(2), t(900)),
            Err(EcsError::NotOwner(cam))
        );
    }

    #[test]
    fn unleased_reservation_never_expires() {
        let eca = Eca::new("lab");
        let cam = eca.register(EquipmentClass::Camera, "cam");
        eca.reserve(cam, ClientId(1)).unwrap();
        assert!(eca.expire_leases(t(1_000_000)).is_empty());
        assert_eq!(eca.state(cam), Some(DeviceState::Reserved(ClientId(1))));
    }

    #[test]
    fn queue_fifo_grant_on_release() {
        let eca = Eca::new("lab");
        let cam = eca.register(EquipmentClass::Camera, "cam");
        let (a, b, c) = (ClientId(1), ClientId(2), ClientId(3));
        assert_eq!(eca.enqueue(cam, a).unwrap(), Enqueued::Granted);
        assert_eq!(eca.enqueue(cam, b).unwrap(), Enqueued::Waiting(0));
        assert_eq!(eca.enqueue(cam, c).unwrap(), Enqueued::Waiting(1));
        assert_eq!(eca.enqueue(cam, b), Err(EcsError::AlreadyWaiting(cam)));
        assert_eq!(eca.queue_len(cam), 2);
        eca.release(cam, a).unwrap();
        assert_eq!(eca.state(cam), Some(DeviceState::Reserved(b)));
        assert_eq!(eca.queue_len(cam), 1);
        eca.release(cam, b).unwrap();
        assert_eq!(eca.state(cam), Some(DeviceState::Reserved(c)));
        eca.release(cam, c).unwrap();
        assert_eq!(eca.state(cam), Some(DeviceState::Free));
    }

    #[test]
    fn queue_grant_on_lease_expiry() {
        let eca = Eca::new("lab");
        let cam = eca.register(EquipmentClass::Camera, "cam");
        let (a, b) = (ClientId(1), ClientId(2));
        eca.reserve_until(cam, a, t(10)).unwrap();
        assert_eq!(eca.enqueue(cam, b).unwrap(), Enqueued::Waiting(0));
        let revoked = eca.expire_leases(t(11));
        assert_eq!(revoked, vec![(cam, a)]);
        assert_eq!(eca.state(cam), Some(DeviceState::Reserved(b)));
        // The grant from the queue is unleased.
        assert_eq!(eca.lease(cam), None);
    }

    #[test]
    fn cancel_wait_removes_from_queue() {
        let eca = Eca::new("lab");
        let cam = eca.register(EquipmentClass::Camera, "cam");
        let (a, b, c) = (ClientId(1), ClientId(2), ClientId(3));
        eca.reserve(cam, a).unwrap();
        eca.enqueue(cam, b).unwrap();
        eca.enqueue(cam, c).unwrap();
        assert!(eca.cancel_wait(cam, b));
        assert!(!eca.cancel_wait(cam, b));
        eca.release(cam, a).unwrap();
        assert_eq!(eca.state(cam), Some(DeviceState::Reserved(c)));
    }

    #[test]
    fn clock_is_monotonic() {
        let eca = Eca::new("lab");
        eca.set_time(t(50));
        eca.set_time(t(10));
        assert_eq!(eca.now(), t(50));
    }
}
