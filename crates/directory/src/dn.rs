//! Distinguished names, X.500 style.

use std::fmt;
use std::str::FromStr;

/// One relative distinguished name component, e.g. `cn=StarWars`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rdn {
    /// Attribute type (lowercased).
    pub attr: String,
    /// Attribute value.
    pub value: String,
}

impl Rdn {
    /// Creates an RDN, normalizing the attribute type to lowercase.
    pub fn new(attr: impl Into<String>, value: impl Into<String>) -> Self {
        Rdn {
            attr: attr.into().to_lowercase(),
            value: value.into(),
        }
    }
}

impl fmt::Display for Rdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.attr, self.value)
    }
}

/// A distinguished name: a path of RDNs from root to entry, e.g.
/// `c=DE/o=uni-mannheim/cn=StarWars`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dn(pub Vec<Rdn>);

impl Dn {
    /// The empty (root) name.
    pub(crate) fn root() -> Self {
        Dn(Vec::new())
    }

    /// Number of RDN components.
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// Extends the name with one more RDN.
    pub fn child(&self, rdn: Rdn) -> Dn {
        let mut v = self.0.clone();
        v.push(rdn);
        Dn(v)
    }

    /// The parent name, or `None` at the root.
    pub fn parent(&self) -> Option<Dn> {
        if self.0.is_empty() {
            None
        } else {
            Some(Dn(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// True if `self` equals `prefix` or lies below it.
    pub fn starts_with(&self, prefix: &Dn) -> bool {
        self.0.len() >= prefix.0.len() && self.0[..prefix.0.len()] == prefix.0[..]
    }
}

/// Error parsing a distinguished name from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDnError {
    /// The offending component.
    pub component: String,
}

impl fmt::Display for ParseDnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid DN component: {:?}", self.component)
    }
}
impl std::error::Error for ParseDnError {}

impl FromStr for Dn {
    type Err = ParseDnError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "/" {
            return Ok(Dn::root());
        }
        let mut rdns = Vec::new();
        for part in s.split('/') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (attr, value) = part.split_once('=').ok_or_else(|| ParseDnError {
                component: part.to_string(),
            })?;
            if attr.trim().is_empty() || value.trim().is_empty() {
                return Err(ParseDnError {
                    component: part.to_string(),
                });
            }
            rdns.push(Rdn::new(attr.trim(), value.trim()));
        }
        Ok(Dn(rdns))
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "/");
        }
        for (i, rdn) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{rdn}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let dn: Dn = "c=DE/o=uni-mannheim/cn=StarWars".parse().unwrap();
        assert_eq!(dn.depth(), 3);
        assert_eq!(dn.to_string(), "c=DE/o=uni-mannheim/cn=StarWars");
        let again: Dn = dn.to_string().parse().unwrap();
        assert_eq!(again, dn);
    }

    #[test]
    fn root_forms() {
        assert_eq!("".parse::<Dn>().unwrap(), Dn::root());
        assert_eq!("/".parse::<Dn>().unwrap(), Dn::root());
        assert_eq!(Dn::root().to_string(), "/");
    }

    #[test]
    fn invalid_components_rejected() {
        assert!("c=DE/bogus".parse::<Dn>().is_err());
        assert!("c=/x=1".parse::<Dn>().is_err());
        assert!("=v".parse::<Dn>().is_err());
    }

    #[test]
    fn hierarchy_operations() {
        let base: Dn = "o=movies".parse().unwrap();
        let child = base.child(Rdn::new("cn", "Alien"));
        assert!(child.starts_with(&base));
        assert!(!base.starts_with(&child));
        assert!(child.starts_with(&child));
        assert_eq!(child.parent().unwrap(), base);
        assert_eq!(child, "o=movies/cn=Alien".parse().unwrap());
        assert!(Dn::root().parent().is_none());
        assert!(child.starts_with(&Dn::root()));
    }

    #[test]
    fn attr_case_insensitive() {
        let a: Dn = "CN=X".parse().unwrap();
        let b: Dn = "cn=X".parse().unwrap();
        assert_eq!(a, b);
    }
}
