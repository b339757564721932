//! Tour of the two MCAM support services (paper §2): the X.500-style
//! movie directory with referrals, and the CM equipment control
//! system.
//!
//! Run with `cargo run --example directory_equipment_tour`.

use directory::{attr, Dn, Dsa, Dua, Filter, ModOp, MovieEntry, Scope};
use equipment::{params, ClientId, DeviceState, Eca, EcsError, EquipmentClass};

fn main() {
    // --- movie directory -------------------------------------------
    println!("-- movie directory --");
    let mannheim = Dsa::new("mannheim");
    let karlsruhe = Dsa::new("karlsruhe");
    let base: Dn = "o=movies".parse().unwrap();
    mannheim.add(base.clone(), directory::Attrs::new()).unwrap();
    mannheim.add_referral("o=archive".parse().unwrap(), "karlsruhe");

    let mut dua = Dua::new(&mannheim);
    dua.add_dsa(&karlsruhe);

    for (title, rate) in [("Star Wars", 24), ("Das Boot", 25), ("Stalker", 25)] {
        let mut e = MovieEntry::new(title, "node-1");
        e.frame_rate = rate;
        let dn: Dn = format!("o=movies/cn={title}").parse().unwrap();
        dua.add(dn, e.to_attrs()).unwrap();
    }
    // An archived movie mastered by the other DSA, reached by referral.
    karlsruhe
        .add(
            "o=archive/cn=Metropolis".parse().unwrap(),
            MovieEntry::new("Metropolis", "node-9").to_attrs(),
        )
        .unwrap();
    let got = dua
        .read(&"o=archive/cn=Metropolis".parse().unwrap())
        .unwrap();
    println!(
        "referral chase: found {:?} on karlsruhe",
        got.get(attr::TITLE).and_then(|v| v.as_str()).unwrap()
    );

    let hits = dua
        .search(
            &base,
            Scope::Subtree,
            &Filter::And(vec![
                Filter::eq_str(attr::OBJECT_CLASS, "movie"),
                Filter::Ge(attr::FRAME_RATE.into(), 25),
            ]),
        )
        .unwrap();
    println!(
        "25fps movies: {:?}",
        hits.iter()
            .map(|(dn, _)| dn.to_string())
            .collect::<Vec<_>>()
    );

    dua.modify(
        &"o=movies/cn=Star Wars".parse().unwrap(),
        &[ModOp::Put(attr::FRAME_RATE.into(), asn1::Value::Int(25))],
    )
    .unwrap();
    println!("modified Star Wars to 25fps");

    // --- equipment control ------------------------------------------
    println!("\n-- equipment control --");
    let studio = Eca::new("studio");
    let cam = studio.register(EquipmentClass::Camera, "cam-1");
    let mic = studio.register(EquipmentClass::Microphone, "mic-1");
    studio.register(EquipmentClass::Speaker, "spk-1");

    // Two clients contend for the studio's devices on one ECA.
    let (producer, viewer) = (ClientId(1), ClientId(2));
    studio.reserve(cam, producer).unwrap();
    studio.reserve(mic, producer).unwrap();
    studio
        .set_param(cam, producer, params::FRAME_RATE, 25)
        .unwrap();
    studio
        .set_param(cam, producer, params::BRIGHTNESS, 70)
        .unwrap();
    studio.activate(cam, producer).unwrap();
    studio.activate(mic, producer).unwrap();
    println!(
        "producer recording with {:?}",
        studio
            .list(None)
            .iter()
            .filter(|d| d.state != DeviceState::Free)
            .map(|d| d.name.clone())
            .collect::<Vec<_>>()
    );

    // A competing user is locked out while the recording runs.
    match studio.reserve(cam, viewer) {
        Err(e @ EcsError::AlreadyReserved(_)) => println!("viewer blocked as expected: {e}"),
        other => unreachable!("camera is held by the producer: {other:?}"),
    }
    match studio.acquire_class(EquipmentClass::Camera, viewer) {
        Err(e @ EcsError::NoFreeDevice(_)) => println!("no other camera either: {e}"),
        other => unreachable!("the studio has one camera: {other:?}"),
    }

    studio.release(cam, producer).unwrap();
    studio.release(mic, producer).unwrap();
    let handed = studio
        .acquire_class(EquipmentClass::Camera, viewer)
        .unwrap();
    assert_eq!(handed, cam);
    println!("camera handed over to the viewer");
}
