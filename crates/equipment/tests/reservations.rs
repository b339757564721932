//! The ECA's reservation model through its public API: how
//! `acquire_class` picks a device, what activation and parameters
//! require of the caller, and what the errors say.

use equipment::{
    params, ClientId, DeviceState, Eca, EcsError, EquipmentClass, EquipmentDesc, EquipmentId,
};

const CAMERA: EquipmentClass = EquipmentClass::Camera;

#[test]
fn acquire_class_walks_its_class_in_id_order() {
    let site = Eca::new("studio");
    let c1 = site.register(CAMERA, "c1");
    let mic = site.register(EquipmentClass::Microphone, "mic");
    let c2 = site.register(CAMERA, "c2");
    let c3 = site.register(CAMERA, "c3");
    let (a, b) = (ClientId(1), ClientId(2));
    site.reserve(c1, a).unwrap();
    // c1 is another client's and the microphone is another class, so
    // the first grantable camera is c2, and it is again once released.
    assert_eq!(site.acquire_class(CAMERA, b), Ok(c2));
    site.release(c2, b).unwrap();
    assert_eq!(site.acquire_class(CAMERA, b), Ok(c2));
    assert_eq!(site.state(mic), Some(DeviceState::Free));
    assert_eq!(site.state(c3), Some(DeviceState::Free));
}

#[test]
fn acquire_class_grants_the_holder_its_own_device_unchanged() {
    let site = Eca::new("studio");
    let cam = site.register(CAMERA, "cam");
    let a = ClientId(1);
    assert_eq!(site.acquire_class(CAMERA, a), Ok(cam));
    site.activate(cam, a).unwrap();
    // A device the client already holds counts as granted, and an
    // active one stays active.
    assert_eq!(site.acquire_class(CAMERA, a), Ok(cam));
    assert_eq!(site.state(cam), Some(DeviceState::Active(a)));
}

#[test]
fn activation_requires_an_owned_reservation() {
    let eca = Eca::new("lab");
    let cam = eca.register(CAMERA, "cam");
    let (alice, bob, missing) = (ClientId(1), ClientId(2), EquipmentId(99));
    assert_eq!(
        eca.activate(missing, alice),
        Err(EcsError::NotFound(missing))
    );
    assert_eq!(eca.activate(cam, alice), Err(EcsError::NotReserved(cam)));
    assert_eq!(eca.deactivate(cam, alice), Err(EcsError::NotReserved(cam)));
    eca.reserve(cam, alice).unwrap();
    assert_eq!(eca.activate(cam, bob), Err(EcsError::NotOwner(cam)));
    assert_eq!(eca.state(cam), Some(DeviceState::Reserved(alice)));
    eca.activate(cam, alice).unwrap();
    assert_eq!(eca.deactivate(cam, bob), Err(EcsError::NotOwner(cam)));
    assert_eq!(eca.state(cam), Some(DeviceState::Active(alice)));
    // Deactivating keeps the reservation, and repeats are harmless.
    eca.deactivate(cam, alice).unwrap();
    eca.deactivate(cam, alice).unwrap();
    assert_eq!(eca.state(cam), Some(DeviceState::Reserved(alice)));
    assert_eq!(eca.reserve(cam, bob), Err(EcsError::AlreadyReserved(cam)));
}

#[test]
fn releasing_an_active_device_frees_it() {
    let eca = Eca::new("lab");
    let cam = eca.register(CAMERA, "cam");
    let (alice, bob) = (ClientId(1), ClientId(2));
    eca.reserve(cam, alice).unwrap();
    eca.activate(cam, alice).unwrap();
    eca.release(cam, alice).unwrap();
    assert_eq!(eca.state(cam), Some(DeviceState::Free));
    eca.reserve(cam, bob).unwrap();
    assert_eq!(eca.state(cam), Some(DeviceState::Reserved(bob)));
}

#[test]
fn only_the_holder_sets_parameters() {
    let eca = Eca::new("lab");
    let cam = eca.register(CAMERA, "cam");
    let (alice, bob) = (ClientId(1), ClientId(2));
    eca.reserve(cam, alice).unwrap();
    let refused = eca.set_param(cam, bob, params::FRAME_RATE, 30);
    assert_eq!(refused, Err(EcsError::NotOwner(cam)));
    assert_eq!(eca.get_param(cam, params::FRAME_RATE), Some(25));
    // The holder may retune an active device.
    eca.activate(cam, alice).unwrap();
    eca.set_param(cam, alice, params::FRAME_RATE, 30).unwrap();
    assert_eq!(eca.get_param(cam, params::FRAME_RATE), Some(30));
    assert_eq!(eca.get_param(EquipmentId(99), params::FRAME_RATE), None);
}

#[test]
fn list_describes_each_device_in_id_order() {
    let eca = Eca::new("lab");
    let cam = eca.register(CAMERA, "cam-0");
    let spk = eca.register(EquipmentClass::Speaker, "spk-0");
    eca.reserve(spk, ClientId(3)).unwrap();
    let desc = |id, class, name: &str, state| EquipmentDesc {
        id,
        class,
        name: name.into(),
        state,
    };
    let held = DeviceState::Reserved(ClientId(3));
    assert_eq!(
        eca.list(None),
        [
            desc(cam, CAMERA, "cam-0", DeviceState::Free),
            desc(spk, EquipmentClass::Speaker, "spk-0", held),
        ]
    );
    assert!(cam < spk);
}

#[test]
fn concurrent_reserves_grant_exactly_one_client() {
    let eca = Eca::new("lab");
    let cam = eca.register(CAMERA, "cam");
    let granted: Vec<ClientId> = std::thread::scope(|s| {
        let tries: Vec<_> = (1..=8)
            .map(|c| {
                let eca = &eca;
                s.spawn(move || eca.reserve(cam, ClientId(c)).ok().map(|()| ClientId(c)))
            })
            .collect();
        tries
            .into_iter()
            .filter_map(|t| t.join().unwrap())
            .collect()
    });
    assert_eq!(granted.len(), 1, "granted to {granted:?}");
    assert_eq!(eca.state(cam), Some(DeviceState::Reserved(granted[0])));
}

/// `EuaAgent` hands these strings to the MCA as its failure reason, so
/// each names the device, parameter or class.
#[test]
fn errors_name_what_was_refused() {
    let id = EquipmentId(7);
    let invalid = EcsError::InvalidParameter {
        name: "volume".into(),
        value: 150,
    };
    let cases = [
        (EcsError::NotFound(id), "no such equipment: EquipmentId(7)"),
        (
            EcsError::AlreadyReserved(id),
            "equipment busy: EquipmentId(7)",
        ),
        (
            EcsError::NotOwner(id),
            "not the reservation owner of EquipmentId(7)",
        ),
        (invalid, "invalid parameter volume=150"),
        (
            EcsError::NotReserved(id),
            "equipment not reserved: EquipmentId(7)",
        ),
        (EcsError::NoFreeDevice(CAMERA), "no free camera available"),
    ];
    for (err, text) in cases {
        assert_eq!(err.to_string(), text);
    }
}
