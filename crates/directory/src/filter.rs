//! Search filters over directory entries.

use crate::schema::Attrs;
use asn1::Value;

/// An X.500-flavoured search filter.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches every entry.
    True,
    /// The attribute exists.
    Present(String),
    /// The attribute equals the value (strings compare
    /// case-insensitively, following directory convention).
    Eq(String, Value),
    /// The attribute is a string containing the given substring
    /// (case-insensitive).
    Contains(String, String),
    /// The attribute is an integer `>=` the bound.
    Ge(String, i64),
    /// The attribute is an integer `<=` the bound.
    Le(String, i64),
    /// All sub-filters match.
    And(Vec<Filter>),
    /// Any sub-filter matches.
    Or(Vec<Filter>),
    /// The sub-filter does not match.
    Not(Box<Filter>),
}

impl Filter {
    /// Convenience: equality on a string attribute.
    pub fn eq_str(attr: impl Into<String>, value: impl Into<String>) -> Filter {
        Filter::Eq(attr.into().to_lowercase(), Value::Str(value.into()))
    }

    /// Evaluates the filter against an attribute set.
    pub fn matches(&self, attrs: &Attrs) -> bool {
        match self {
            Filter::True => true,
            Filter::Present(a) => attrs.contains_key(&a.to_lowercase()),
            Filter::Eq(a, v) => match (attrs.get(&a.to_lowercase()), v) {
                (Some(Value::Str(have)), Value::Str(want)) => have.eq_ignore_ascii_case(want),
                (Some(have), want) => have == want,
                (None, _) => false,
            },
            Filter::Contains(a, sub) => attrs
                .get(&a.to_lowercase())
                .and_then(Value::as_str)
                .is_some_and(|s| s.to_lowercase().contains(&sub.to_lowercase())),
            Filter::Ge(a, bound) => attrs
                .get(&a.to_lowercase())
                .and_then(Value::as_int)
                .is_some_and(|v| v >= *bound),
            Filter::Le(a, bound) => attrs
                .get(&a.to_lowercase())
                .and_then(Value::as_int)
                .is_some_and(|v| v <= *bound),
            Filter::And(fs) => fs.iter().all(|f| f.matches(attrs)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(attrs)),
            Filter::Not(f) => !f.matches(attrs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{attr, MovieEntry};

    fn movie() -> Attrs {
        let mut e = MovieEntry::new("Star Wars", "node-1");
        e.frame_rate = 25;
        e.to_attrs()
    }

    #[test]
    fn primitives() {
        let a = movie();
        assert!(Filter::True.matches(&a));
        assert!(Filter::Present(attr::TITLE.into()).matches(&a));
        assert!(!Filter::Present("nonexistent".into()).matches(&a));
        assert!(
            Filter::eq_str(attr::TITLE, "star wars").matches(&a),
            "case-insensitive"
        );
        assert!(!Filter::eq_str(attr::TITLE, "Alien").matches(&a));
        assert!(Filter::Eq(attr::FRAME_RATE.into(), Value::Int(25)).matches(&a));
        assert!(Filter::Contains(attr::TITLE.into(), "war".into()).matches(&a));
        assert!(!Filter::Contains(attr::TITLE.into(), "trek".into()).matches(&a));
        assert!(Filter::Ge(attr::FRAME_RATE.into(), 24).matches(&a));
        assert!(!Filter::Ge(attr::FRAME_RATE.into(), 30).matches(&a));
        assert!(Filter::Le(attr::FRAME_RATE.into(), 25).matches(&a));
    }

    #[test]
    fn combinators() {
        let a = movie();
        let f = Filter::And(vec![
            Filter::eq_str(attr::OBJECT_CLASS, "movie"),
            Filter::Or(vec![
                Filter::Contains(attr::TITLE.into(), "wars".into()),
                Filter::Contains(attr::TITLE.into(), "trek".into()),
            ]),
            Filter::Not(Box::new(Filter::eq_str(attr::FORMAT, "MJPEG"))),
        ]);
        assert!(f.matches(&a));
        assert!(!Filter::And(vec![Filter::True, Filter::Present("zzz".into())]).matches(&a));
        assert!(!Filter::Or(vec![]).matches(&a));
        assert!(Filter::And(vec![]).matches(&a));
    }

    #[test]
    fn type_mismatch_never_matches() {
        let a = movie();
        assert!(!Filter::Ge(attr::TITLE.into(), 1).matches(&a));
        assert!(!Filter::Contains(attr::FRAME_RATE.into(), "2".into()).matches(&a));
    }
}
