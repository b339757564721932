//! Property tests for the ECS reservation state machine.
//!
//! A random sequence of operations from a small client population is
//! applied to one device; a reference model (a plain owner field)
//! must agree with the registry at every step. The same holds for
//! class acquisition over a site of several devices.

use equipment::{ClientId, DeviceState, Eca, EcsError, EquipmentClass, EquipmentId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Reserve(u32),
    Release(u32),
    Activate(u32),
    Deactivate(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let client = 1u32..5;
    prop_oneof![
        client.clone().prop_map(Op::Reserve),
        client.clone().prop_map(Op::Release),
        client.clone().prop_map(Op::Activate),
        client.prop_map(Op::Deactivate),
    ]
}

/// Reference model of one device.
#[derive(Debug, Default)]
struct Model {
    owner: Option<(u32, bool)>, // (client, active)
}

impl Model {
    fn apply(&mut self, op: &Op) {
        let owns = |c| self.owner.map(|(o, _)| o) == Some(c);
        match *op {
            // Idempotent self-reserve keeps state; foreign reserve fails.
            Op::Reserve(c) if self.owner.is_none() => self.owner = Some((c, false)),
            Op::Release(c) if owns(c) => self.owner = None,
            Op::Activate(c) if owns(c) => self.owner = Some((c, true)),
            Op::Deactivate(c) if owns(c) => self.owner = Some((c, false)),
            _ => {}
        }
    }

    fn state(&self) -> DeviceState {
        match self.owner {
            None => DeviceState::Free,
            Some((c, false)) => DeviceState::Reserved(ClientId(c)),
            Some((c, true)) => DeviceState::Active(ClientId(c)),
        }
    }
}

fn apply_real(eca: &Eca, id: EquipmentId, op: &Op) {
    let _ = match *op {
        Op::Reserve(c) => eca.reserve(id, ClientId(c)),
        Op::Release(c) => eca.release(id, ClientId(c)),
        Op::Activate(c) => eca.activate(id, ClientId(c)),
        Op::Deactivate(c) => eca.deactivate(id, ClientId(c)),
    };
}

proptest! {
    /// The registry agrees with the reference model after every
    /// operation, for any operation sequence.
    #[test]
    fn registry_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let eca = Eca::new("prop");
        let id = eca.register(EquipmentClass::Camera, "cam");
        let mut model = Model::default();
        for op in &ops {
            apply_real(&eca, id, op);
            model.apply(op);
            prop_assert_eq!(eca.state(id), Some(model.state()), "after {:?}", op);
        }
    }

    /// Reserve errors are exactly: unknown id, or held by another.
    #[test]
    fn reserve_error_classification(c1 in 1u32..5, c2 in 1u32..5) {
        let eca = Eca::new("prop");
        let id = eca.register(EquipmentClass::Speaker, "spk");
        eca.reserve(id, ClientId(c1)).unwrap();
        let second = eca.reserve(id, ClientId(c2));
        if c1 == c2 {
            prop_assert!(second.is_ok());
        } else {
            prop_assert_eq!(second, Err(EcsError::AlreadyReserved(id)));
        }
        prop_assert_eq!(
            eca.reserve(EquipmentId(999), ClientId(c1)),
            Err(EcsError::NotFound(EquipmentId(999)))
        );
    }

    /// `acquire_class` grants the first camera, in id order, that is
    /// free or already the caller's, never another class, and refuses
    /// with `NoFreeDevice` when no camera qualifies.
    #[test]
    fn acquire_class_matches_reference_model(
        ops in prop::collection::vec((1u32..5, prop::option::of(0usize..4)), 1..60)
    ) {
        let eca = Eca::new("prop");
        let classes = [
            EquipmentClass::Camera,
            EquipmentClass::Microphone,
            EquipmentClass::Camera,
            EquipmentClass::Camera,
        ];
        let ids: Vec<_> = classes.iter().map(|&c| eca.register(c, "dev")).collect();
        let mut owners: [Option<u32>; 4] = [None; 4];
        // `(c, None)` acquires a camera for c; `(c, Some(i))` has c
        // release device i (refused unless c holds it).
        for &(c, release) in &ops {
            if let Some(i) = release {
                let _ = eca.release(ids[i], ClientId(c));
                if owners[i] == Some(c) {
                    owners[i] = None;
                }
            } else {
                let pick = (0..4).find(|&i| {
                    classes[i] == EquipmentClass::Camera && owners[i].is_none_or(|o| o == c)
                });
                let expected = match pick {
                    Some(i) => {
                        owners[i] = Some(c);
                        Ok(ids[i])
                    }
                    None => Err(EcsError::NoFreeDevice(EquipmentClass::Camera)),
                };
                prop_assert_eq!(eca.acquire_class(EquipmentClass::Camera, ClientId(c)), expected);
            }
            for (i, &id) in ids.iter().enumerate() {
                let state = owners[i].map_or(DeviceState::Free, |o| DeviceState::Reserved(ClientId(o)));
                prop_assert_eq!(eca.state(id), Some(state), "device {} after {:?}", i, (c, release));
            }
        }
    }
}
