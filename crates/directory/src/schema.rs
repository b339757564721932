//! Movie-entry schema: the attribute vocabulary of the movie
//! directory (paper §2: "a repository for movie information, such as
//! digital image format and storage location").

use asn1::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Attribute set of a directory entry.
pub type Attrs = BTreeMap<String, Value>;

/// Well-known attribute names.
pub mod attr {
    /// Human-readable title.
    pub const TITLE: &str = "movietitle";
    /// Digital image format (e.g. `"XMovie-24"`, `"MJPEG"`).
    pub const FORMAT: &str = "imageformat";
    /// Nominal frame rate (frames/second).
    pub const FRAME_RATE: &str = "framerate";
    /// Frame width in pixels.
    pub const WIDTH: &str = "width";
    /// Frame height in pixels.
    pub const HEIGHT: &str = "height";
    /// Storage location: the network address of the stream provider
    /// holding the movie, as `"node-<n>"`.
    pub const LOCATION: &str = "storagelocation";
    /// Replica locations: every stream provider holding a copy of the
    /// movie, as a sequence of `"node-<n>"` strings. The primary
    /// [`LOCATION`] is conventionally the first element.
    pub const REPLICAS: &str = "replicalocations";
    /// Number of frames in the movie.
    pub const FRAME_COUNT: &str = "framecount";
    /// Mean bitrate in bits/second, measured at record time (0 =
    /// unknown; synthetic published titles usually omit it).
    pub const BITRATE: &str = "meanbitrate";
    /// Object class marker (`"movie"` for movie entries).
    pub const OBJECT_CLASS: &str = "objectclass";
}

/// A validated movie description.
#[derive(Debug, Clone, PartialEq)]
pub struct MovieEntry {
    /// Title.
    pub title: String,
    /// Image format name.
    pub format: String,
    /// Frames per second.
    pub frame_rate: u32,
    /// Frame width (pixels).
    pub width: u32,
    /// Frame height (pixels).
    pub height: u32,
    /// Stream-provider node that stores the movie.
    pub location: String,
    /// Every stream-provider node holding a replica of the movie
    /// (includes `location`; a single-copy movie lists just it).
    pub replicas: Vec<String>,
    /// Total frames.
    pub frame_count: u64,
    /// Mean bitrate in bits/second as measured when the movie was
    /// recorded (0 when unknown — e.g. synthetic published titles).
    pub bitrate_bps: u64,
}

/// Error converting attributes to a [`MovieEntry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A required attribute is absent.
    Missing(&'static str),
    /// An attribute has the wrong ASN.1 type or an invalid value.
    Invalid(&'static str),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Missing(a) => write!(f, "missing attribute {a}"),
            SchemaError::Invalid(a) => write!(f, "invalid attribute {a}"),
        }
    }
}
impl std::error::Error for SchemaError {}

impl MovieEntry {
    /// Builds a movie entry with sensible XMovie-era defaults.
    pub fn new(title: impl Into<String>, location: impl Into<String>) -> Self {
        let location = location.into();
        MovieEntry {
            title: title.into(),
            format: "XMovie-24".into(),
            frame_rate: 25,
            width: 384,
            height: 288,
            replicas: vec![location.clone()],
            location,
            frame_count: 25 * 60, // one minute
            bitrate_bps: 0,
        }
    }

    /// Sets the replica list, making the first replica the primary
    /// location (a placement decision applied to the entry).
    pub fn set_replicas(&mut self, replicas: Vec<String>) {
        if let Some(first) = replicas.first() {
            self.location = first.clone();
        }
        self.replicas = replicas;
    }

    /// Encodes a replica list as the [`attr::REPLICAS`] attribute
    /// value — what a rebalance writes back into an existing entry
    /// (paired with an [`attr::LOCATION`] put of the first replica,
    /// so replica-unaware readers keep seeing a valid primary).
    pub fn replicas_value(replicas: &[String]) -> Value {
        Value::Seq(replicas.iter().map(|r| Value::Str(r.clone())).collect())
    }

    /// Converts to a directory attribute set.
    pub fn to_attrs(&self) -> Attrs {
        let mut m = Attrs::new();
        m.insert(attr::OBJECT_CLASS.into(), Value::Str("movie".into()));
        m.insert(attr::TITLE.into(), Value::Str(self.title.clone()));
        m.insert(attr::FORMAT.into(), Value::Str(self.format.clone()));
        m.insert(
            attr::FRAME_RATE.into(),
            Value::Int(i64::from(self.frame_rate)),
        );
        m.insert(attr::WIDTH.into(), Value::Int(i64::from(self.width)));
        m.insert(attr::HEIGHT.into(), Value::Int(i64::from(self.height)));
        m.insert(attr::LOCATION.into(), Value::Str(self.location.clone()));
        m.insert(
            attr::REPLICAS.into(),
            Value::Seq(
                self.replicas
                    .iter()
                    .map(|r| Value::Str(r.clone()))
                    .collect(),
            ),
        );
        m.insert(
            attr::FRAME_COUNT.into(),
            Value::Int(self.frame_count as i64),
        );
        if self.bitrate_bps > 0 {
            m.insert(attr::BITRATE.into(), Value::Int(self.bitrate_bps as i64));
        }
        m
    }

    /// Parses a directory attribute set back into a movie entry.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError`] for missing or ill-typed attributes.
    pub fn from_attrs(attrs: &Attrs) -> Result<Self, SchemaError> {
        fn get_str(attrs: &Attrs, k: &'static str) -> Result<String, SchemaError> {
            attrs
                .get(k)
                .ok_or(SchemaError::Missing(k))?
                .as_str()
                .map(str::to_owned)
                .ok_or(SchemaError::Invalid(k))
        }
        fn get_int(attrs: &Attrs, k: &'static str) -> Result<i64, SchemaError> {
            attrs
                .get(k)
                .ok_or(SchemaError::Missing(k))?
                .as_int()
                .ok_or(SchemaError::Invalid(k))
        }
        let class = get_str(attrs, attr::OBJECT_CLASS)?;
        if class != "movie" {
            return Err(SchemaError::Invalid(attr::OBJECT_CLASS));
        }
        let frame_rate = get_int(attrs, attr::FRAME_RATE)?;
        if !(1..=120).contains(&frame_rate) {
            return Err(SchemaError::Invalid(attr::FRAME_RATE));
        }
        let location = get_str(attrs, attr::LOCATION)?;
        // Pre-replication entries carry no replica list: the single
        // location is the one replica.
        let replicas = match attrs.get(attr::REPLICAS) {
            None => vec![location.clone()],
            Some(Value::Seq(items)) => {
                let mut replicas = Vec::with_capacity(items.len());
                for item in items {
                    replicas.push(
                        item.as_str()
                            .map(str::to_owned)
                            .ok_or(SchemaError::Invalid(attr::REPLICAS))?,
                    );
                }
                if replicas.is_empty() {
                    vec![location.clone()]
                } else {
                    replicas
                }
            }
            Some(_) => return Err(SchemaError::Invalid(attr::REPLICAS)),
        };
        Ok(MovieEntry {
            title: get_str(attrs, attr::TITLE)?,
            format: get_str(attrs, attr::FORMAT)?,
            frame_rate: frame_rate as u32,
            width: get_int(attrs, attr::WIDTH)?.max(0) as u32,
            height: get_int(attrs, attr::HEIGHT)?.max(0) as u32,
            location,
            replicas,
            frame_count: get_int(attrs, attr::FRAME_COUNT)?.max(0) as u64,
            // Absent on entries published before the write path (and
            // on synthetic titles): bitrate is advisory metadata.
            bitrate_bps: match attrs.get(attr::BITRATE) {
                None => 0,
                Some(v) => v
                    .as_int()
                    .ok_or(SchemaError::Invalid(attr::BITRATE))?
                    .max(0) as u64,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrs_roundtrip() {
        let e = MovieEntry {
            title: "Alien".into(),
            format: "MJPEG".into(),
            frame_rate: 30,
            width: 640,
            height: 480,
            location: "node-3".into(),
            replicas: vec!["node-3".into(), "node-7".into()],
            frame_count: 54_000,
            bitrate_bps: 700_000,
        };
        let attrs = e.to_attrs();
        assert_eq!(MovieEntry::from_attrs(&attrs).unwrap(), e);
    }

    #[test]
    fn legacy_entry_without_replicas_defaults_to_location() {
        let e = MovieEntry::new("X", "node-5");
        let mut attrs = e.to_attrs();
        attrs.remove(attr::REPLICAS);
        let got = MovieEntry::from_attrs(&attrs).unwrap();
        assert_eq!(got.replicas, vec!["node-5".to_string()]);
    }

    #[test]
    fn set_replicas_promotes_first_to_primary() {
        let mut e = MovieEntry::new("X", "node-1");
        e.set_replicas(vec!["node-4".into(), "node-2".into()]);
        assert_eq!(e.location, "node-4");
        assert_eq!(e.replicas, vec!["node-4".to_string(), "node-2".to_string()]);
        // An empty placement leaves the primary untouched.
        e.set_replicas(Vec::new());
        assert_eq!(e.location, "node-4");
        assert!(e.replicas.is_empty());
    }

    /// A rebalance rewrites `replicalocations` (and the primary) on a
    /// live entry: the rewritten attribute set round-trips for new
    /// readers, and a replica-unaware reader — one that drops the
    /// attribute it does not know — still decodes a valid entry whose
    /// location is the rewritten primary.
    #[test]
    fn rebalanced_replicas_roundtrip_and_degrade_for_old_readers() {
        let published = MovieEntry::new("Hot", "node-1");
        let mut attrs = published.to_attrs();
        // The control plane grew the title and promoted a new primary.
        let grown = vec!["node-2".to_string(), "node-1".into(), "node-3".into()];
        attrs.insert(attr::REPLICAS.into(), MovieEntry::replicas_value(&grown));
        attrs.insert(attr::LOCATION.into(), Value::Str(grown[0].clone()));
        let rewritten = MovieEntry::from_attrs(&attrs).unwrap();
        assert_eq!(rewritten.replicas, grown);
        assert_eq!(rewritten.location, "node-2");
        assert_eq!(
            MovieEntry::from_attrs(&rewritten.to_attrs()).unwrap(),
            rewritten
        );
        // Old reader: no replicalocations in its schema.
        let mut legacy = attrs.clone();
        legacy.remove(attr::REPLICAS);
        let old_view = MovieEntry::from_attrs(&legacy).unwrap();
        assert_eq!(old_view.location, "node-2");
        assert_eq!(old_view.replicas, vec!["node-2".to_string()]);
        // An empty rewritten list degrades to the primary, not to an
        // invalid entry.
        attrs.insert(attr::REPLICAS.into(), MovieEntry::replicas_value(&[]));
        let emptied = MovieEntry::from_attrs(&attrs).unwrap();
        assert_eq!(emptied.replicas, vec!["node-2".to_string()]);
    }

    #[test]
    fn ill_typed_replicas_detected() {
        let e = MovieEntry::new("X", "node-1");
        let mut attrs = e.to_attrs();
        attrs.insert(attr::REPLICAS.into(), Value::Str("node-1".into()));
        assert_eq!(
            MovieEntry::from_attrs(&attrs),
            Err(SchemaError::Invalid(attr::REPLICAS))
        );
        attrs.insert(attr::REPLICAS.into(), Value::Seq(vec![Value::Int(3)]));
        assert_eq!(
            MovieEntry::from_attrs(&attrs),
            Err(SchemaError::Invalid(attr::REPLICAS))
        );
    }

    #[test]
    fn missing_attribute_detected() {
        let e = MovieEntry::new("X", "node-1");
        let mut attrs = e.to_attrs();
        attrs.remove(attr::LOCATION);
        assert_eq!(
            MovieEntry::from_attrs(&attrs),
            Err(SchemaError::Missing(attr::LOCATION))
        );
    }

    #[test]
    fn ill_typed_attribute_detected() {
        let e = MovieEntry::new("X", "node-1");
        let mut attrs = e.to_attrs();
        attrs.insert(attr::FRAME_RATE.into(), Value::Str("fast".into()));
        assert_eq!(
            MovieEntry::from_attrs(&attrs),
            Err(SchemaError::Invalid(attr::FRAME_RATE))
        );
    }

    #[test]
    fn frame_rate_bounds() {
        let e = MovieEntry::new("X", "node-1");
        let mut attrs = e.to_attrs();
        attrs.insert(attr::FRAME_RATE.into(), Value::Int(500));
        assert_eq!(
            MovieEntry::from_attrs(&attrs),
            Err(SchemaError::Invalid(attr::FRAME_RATE))
        );
    }

    #[test]
    fn non_movie_class_rejected() {
        let e = MovieEntry::new("X", "node-1");
        let mut attrs = e.to_attrs();
        attrs.insert(attr::OBJECT_CLASS.into(), Value::Str("printer".into()));
        assert!(MovieEntry::from_attrs(&attrs).is_err());
    }

    #[test]
    fn bitrate_is_optional_metadata() {
        // Legacy entries without the attribute decode to 0.
        let e = MovieEntry::new("X", "node-1");
        assert_eq!(e.bitrate_bps, 0);
        let attrs = e.to_attrs();
        assert!(!attrs.contains_key(attr::BITRATE));
        assert_eq!(MovieEntry::from_attrs(&attrs).unwrap().bitrate_bps, 0);
        // Ill-typed bitrate is rejected.
        let mut attrs = e.to_attrs();
        attrs.insert(attr::BITRATE.into(), Value::Str("fast".into()));
        assert_eq!(
            MovieEntry::from_attrs(&attrs),
            Err(SchemaError::Invalid(attr::BITRATE))
        );
    }
}
