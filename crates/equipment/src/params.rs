//! Device parameters: well-known names and per-class validity.
//!
//! The paper's equipment control service lets a user "manage (query and
//! modify attributes)" of remote CM equipment; parameters model the
//! modifiable attributes of speakers, cameras, microphones and
//! displays.

use crate::registry::EquipmentClass;

/// Playout volume, 0–100 (speaker/display).
pub const VOLUME: &str = "volume";
/// Capture gain, 0–100 (camera/microphone).
pub const GAIN: &str = "gain";
/// Frame rate, 1–120 (camera/display).
pub const FRAME_RATE: &str = "framerate";
/// Brightness, 0–100 (display/camera).
pub const BRIGHTNESS: &str = "brightness";

/// Description of one parameter a device class supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSpec {
    /// Parameter name (one of the module constants).
    pub name: &'static str,
    /// Smallest accepted value.
    pub min: i64,
    /// Largest accepted value.
    pub max: i64,
    /// Value used when the device is registered.
    pub default: i64,
}

impl ParamSpec {
    /// Whether `value` is inside this spec's range.
    pub(crate) fn accepts(&self, value: i64) -> bool {
        (self.min..=self.max).contains(&value)
    }
}

const VOLUME_SPEC: ParamSpec = ParamSpec {
    name: VOLUME,
    min: 0,
    max: 100,
    default: 50,
};
const GAIN_SPEC: ParamSpec = ParamSpec {
    name: GAIN,
    min: 0,
    max: 100,
    default: 50,
};
const FRAME_RATE_SPEC: ParamSpec = ParamSpec {
    name: FRAME_RATE,
    min: 1,
    max: 120,
    default: 25,
};
const BRIGHTNESS_SPEC: ParamSpec = ParamSpec {
    name: BRIGHTNESS,
    min: 0,
    max: 100,
    default: 50,
};

/// The parameters supported by a device class, with ranges and
/// defaults.
pub(crate) fn specs(class: EquipmentClass) -> &'static [ParamSpec] {
    use EquipmentClass::*;
    match class {
        Camera => &[GAIN_SPEC, FRAME_RATE_SPEC, BRIGHTNESS_SPEC],
        Microphone => &[GAIN_SPEC],
        Speaker => &[VOLUME_SPEC],
        Display => &[VOLUME_SPEC, FRAME_RATE_SPEC, BRIGHTNESS_SPEC],
    }
}

/// Looks up the spec for `name` on `class`, if the class supports it.
pub(crate) fn spec(class: EquipmentClass, name: &str) -> Option<&'static ParamSpec> {
    specs(class).iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_has_specs() {
        for class in [
            EquipmentClass::Camera,
            EquipmentClass::Microphone,
            EquipmentClass::Speaker,
            EquipmentClass::Display,
        ] {
            let list = specs(class);
            assert!(!list.is_empty(), "{class} has no parameters");
            for s in list {
                assert!(s.min <= s.max);
                assert!(
                    s.accepts(s.default),
                    "{class}/{} default out of range",
                    s.name
                );
            }
        }
    }

    #[test]
    fn spec_lookup_matches_class_support() {
        assert!(spec(EquipmentClass::Speaker, VOLUME).is_some());
        assert!(spec(EquipmentClass::Speaker, GAIN).is_none());
        assert!(spec(EquipmentClass::Camera, GAIN).is_some());
        assert!(spec(EquipmentClass::Microphone, FRAME_RATE).is_none());
    }

    #[test]
    fn accepts_boundaries() {
        let s = FRAME_RATE_SPEC;
        assert!(!s.accepts(0));
        assert!(s.accepts(1));
        assert!(s.accepts(120));
        assert!(!s.accepts(121));
    }
}
