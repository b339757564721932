//! DSA (Directory System Agent) and DUA (Directory User Agent).
//!
//! The movie directory of the MCAM functional model (Fig. 1): X.500
//! DSAs hold movie entries; the DUA inside each MCAM instance queries
//! and modifies them, following referrals between DSAs.

use crate::dn::Dn;
use crate::filter::Filter;
use crate::schema::Attrs;
use asn1::Value;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Search scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Only the base entry itself.
    Base,
    /// The base entry and everything below it.
    Subtree,
}

/// One attribute modification.
#[derive(Debug, Clone, PartialEq)]
pub enum ModOp {
    /// Insert or replace an attribute.
    Put(String, Value),
    /// Remove an attribute.
    Delete(String),
}

/// Directory operation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DirError {
    /// No entry with that name.
    NoSuchEntry(Dn),
    /// An entry with that name already exists.
    EntryExists(Dn),
    /// The name is mastered by another DSA; retry there.
    Referral {
        /// Name of the DSA to contact.
        dsa: String,
        /// The name that triggered the referral.
        name: Dn,
    },
    /// Deleting an attribute that is not present.
    NoSuchAttribute(String),
    /// Referral chain exceeded the hop limit.
    ReferralLoop,
    /// The referenced DSA is not reachable/known to the DUA.
    UnknownDsa(String),
}

impl fmt::Display for DirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirError::NoSuchEntry(dn) => write!(f, "no such entry: {dn}"),
            DirError::EntryExists(dn) => write!(f, "entry exists: {dn}"),
            DirError::Referral { dsa, name } => write!(f, "referral to {dsa} for {name}"),
            DirError::NoSuchAttribute(a) => write!(f, "no such attribute: {a}"),
            DirError::ReferralLoop => write!(f, "referral limit exceeded"),
            DirError::UnknownDsa(d) => write!(f, "unknown DSA: {d}"),
        }
    }
}
impl std::error::Error for DirError {}

/// A Directory System Agent: one naming-context server.
#[derive(Debug)]
pub struct Dsa {
    name: String,
    entries: RwLock<BTreeMap<Dn, Attrs>>,
    /// Subtrees mastered elsewhere: (prefix, dsa-name).
    referrals: RwLock<Vec<(Dn, String)>>,
    /// Operation counter (for load experiments).
    ops: RwLock<u64>,
}

impl Dsa {
    /// Creates an empty DSA named `name`.
    pub fn new(name: impl Into<String>) -> Arc<Self> {
        Arc::new(Dsa {
            name: name.into(),
            entries: RwLock::new(BTreeMap::new()),
            referrals: RwLock::new(Vec::new()),
            ops: RwLock::new(0),
        })
    }

    /// This DSA's name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Total operations served.
    pub fn operations(&self) -> u64 {
        *self.ops.read()
    }

    /// Declares that `prefix` is mastered by `dsa`.
    pub fn add_referral(&self, prefix: Dn, dsa: impl Into<String>) {
        self.referrals.write().push((prefix, dsa.into()));
    }

    fn check_referral(&self, dn: &Dn) -> Result<(), DirError> {
        for (prefix, dsa) in self.referrals.read().iter() {
            if dn.starts_with(prefix) {
                return Err(DirError::Referral {
                    dsa: dsa.clone(),
                    name: dn.clone(),
                });
            }
        }
        Ok(())
    }

    fn bump(&self) {
        *self.ops.write() += 1;
    }

    /// Adds an entry.
    ///
    /// # Errors
    ///
    /// Referral, or [`DirError::EntryExists`].
    pub fn add(&self, dn: Dn, attrs: Attrs) -> Result<(), DirError> {
        self.bump();
        self.check_referral(&dn)?;
        let mut e = self.entries.write();
        if e.contains_key(&dn) {
            return Err(DirError::EntryExists(dn));
        }
        e.insert(dn, attrs);
        Ok(())
    }

    /// Removes an entry.
    ///
    /// # Errors
    ///
    /// Referral, or [`DirError::NoSuchEntry`].
    pub fn remove(&self, dn: &Dn) -> Result<Attrs, DirError> {
        self.bump();
        self.check_referral(dn)?;
        self.entries
            .write()
            .remove(dn)
            .ok_or_else(|| DirError::NoSuchEntry(dn.clone()))
    }

    /// Reads an entry's attributes.
    ///
    /// # Errors
    ///
    /// Referral, or [`DirError::NoSuchEntry`].
    pub fn read(&self, dn: &Dn) -> Result<Attrs, DirError> {
        self.bump();
        self.check_referral(dn)?;
        self.entries
            .read()
            .get(dn)
            .cloned()
            .ok_or_else(|| DirError::NoSuchEntry(dn.clone()))
    }

    /// Applies modifications to an entry.
    ///
    /// # Errors
    ///
    /// Referral, missing entry, or missing attribute on delete.
    pub fn modify(&self, dn: &Dn, ops: &[ModOp]) -> Result<(), DirError> {
        self.bump();
        self.check_referral(dn)?;
        let mut entries = self.entries.write();
        let attrs = entries
            .get_mut(dn)
            .ok_or_else(|| DirError::NoSuchEntry(dn.clone()))?;
        // Validate deletes first so the modify is atomic.
        for op in ops {
            if let ModOp::Delete(a) = op {
                if !attrs.contains_key(&a.to_lowercase()) {
                    return Err(DirError::NoSuchAttribute(a.clone()));
                }
            }
        }
        for op in ops {
            match op {
                ModOp::Put(a, v) => {
                    attrs.insert(a.to_lowercase(), v.clone());
                }
                ModOp::Delete(a) => {
                    attrs.remove(&a.to_lowercase());
                }
            }
        }
        Ok(())
    }

    /// Searches under `base` with the given scope and filter.
    ///
    /// # Errors
    ///
    /// Referral only; an empty result set is `Ok(vec![])`.
    pub fn search(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
    ) -> Result<Vec<(Dn, Attrs)>, DirError> {
        self.bump();
        self.check_referral(base)?;
        let entries = self.entries.read();
        let hits = entries
            .iter()
            .filter(|(dn, _)| match scope {
                Scope::Base => *dn == base,
                Scope::Subtree => dn.starts_with(base),
            })
            .filter(|(_, attrs)| filter.matches(attrs))
            .map(|(dn, attrs)| (dn.clone(), attrs.clone()))
            .collect();
        Ok(hits)
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when the DSA holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

/// A Directory User Agent: resolves operations across a set of DSAs,
/// following referrals.
#[derive(Debug, Clone)]
pub struct Dua {
    dsas: HashMap<String, Arc<Dsa>>,
    home: String,
}

const MAX_REFERRAL_HOPS: usize = 4;

impl Dua {
    /// Creates a DUA whose first contact is `home`.
    pub fn new(home: &Arc<Dsa>) -> Self {
        let mut dsas = HashMap::new();
        dsas.insert(home.name().to_string(), Arc::clone(home));
        Dua {
            dsas,
            home: home.name().to_string(),
        }
    }

    /// Makes another DSA reachable for referral chasing.
    pub fn add_dsa(&mut self, dsa: &Arc<Dsa>) {
        self.dsas.insert(dsa.name().to_string(), Arc::clone(dsa));
    }

    fn run<T>(&self, mut op: impl FnMut(&Dsa) -> Result<T, DirError>) -> Result<T, DirError> {
        let mut current = self.home.clone();
        for _ in 0..=MAX_REFERRAL_HOPS {
            let dsa = self
                .dsas
                .get(&current)
                .ok_or_else(|| DirError::UnknownDsa(current.clone()))?;
            match op(dsa) {
                Err(DirError::Referral { dsa: next, .. }) => current = next,
                other => return other,
            }
        }
        Err(DirError::ReferralLoop)
    }

    /// Adds an entry (following referrals).
    ///
    /// # Errors
    ///
    /// See [`Dsa::add`].
    pub fn add(&self, dn: Dn, attrs: Attrs) -> Result<(), DirError> {
        self.run(|d| d.add(dn.clone(), attrs.clone()))
    }

    /// Removes an entry.
    ///
    /// # Errors
    ///
    /// See [`Dsa::remove`].
    pub fn remove(&self, dn: &Dn) -> Result<Attrs, DirError> {
        self.run(|d| d.remove(dn))
    }

    /// Reads an entry.
    ///
    /// # Errors
    ///
    /// See [`Dsa::read`].
    pub fn read(&self, dn: &Dn) -> Result<Attrs, DirError> {
        self.run(|d| d.read(dn))
    }

    /// Modifies an entry.
    ///
    /// # Errors
    ///
    /// See [`Dsa::modify`].
    pub fn modify(&self, dn: &Dn, ops: &[ModOp]) -> Result<(), DirError> {
        self.run(|d| d.modify(dn, ops))
    }

    /// Searches the directory.
    ///
    /// # Errors
    ///
    /// See [`Dsa::search`].
    pub fn search(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
    ) -> Result<Vec<(Dn, Attrs)>, DirError> {
        self.run(|d| d.search(base, scope, filter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{attr, MovieEntry};

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    #[test]
    fn crud_cycle() {
        let dsa = Dsa::new("main");
        let name = dn("o=movies/cn=Alien");
        let entry = MovieEntry::new("Alien", "node-2");
        dsa.add(name.clone(), entry.to_attrs()).unwrap();
        assert_eq!(
            dsa.add(name.clone(), entry.to_attrs()),
            Err(DirError::EntryExists(name.clone()))
        );
        let got = MovieEntry::from_attrs(&dsa.read(&name).unwrap()).unwrap();
        assert_eq!(got, entry);
        dsa.modify(
            &name,
            &[ModOp::Put(attr::FRAME_RATE.into(), Value::Int(30))],
        )
        .unwrap();
        let got = dsa.read(&name).unwrap();
        assert_eq!(got.get(attr::FRAME_RATE).unwrap().as_int(), Some(30));
        dsa.remove(&name).unwrap();
        assert_eq!(dsa.read(&name), Err(DirError::NoSuchEntry(name)));
    }

    #[test]
    fn modify_is_atomic_on_bad_delete() {
        let dsa = Dsa::new("main");
        let name = dn("cn=X");
        dsa.add(name.clone(), MovieEntry::new("X", "node-1").to_attrs())
            .unwrap();
        let err = dsa
            .modify(
                &name,
                &[
                    ModOp::Put(attr::FRAME_RATE.into(), Value::Int(99)),
                    ModOp::Delete("missing".into()),
                ],
            )
            .unwrap_err();
        assert_eq!(err, DirError::NoSuchAttribute("missing".into()));
        // The Put before the failing Delete must not have applied.
        assert_eq!(
            dsa.read(&name)
                .unwrap()
                .get(attr::FRAME_RATE)
                .unwrap()
                .as_int(),
            Some(25)
        );
    }

    #[test]
    fn search_scopes_and_filters() {
        let dsa = Dsa::new("main");
        let base = dn("o=movies");
        dsa.add(base.clone(), Attrs::new()).unwrap();
        for (t, rate) in [("Alien", 24), ("Aliens", 30), ("Brazil", 25)] {
            let mut e = MovieEntry::new(t, "node-1");
            e.frame_rate = rate;
            dsa.add(base.child(crate::dn::Rdn::new("cn", t)), e.to_attrs())
                .unwrap();
        }
        let all = dsa
            .search(
                &base,
                Scope::Subtree,
                &Filter::eq_str(attr::OBJECT_CLASS, "movie"),
            )
            .unwrap();
        assert_eq!(all.len(), 3);
        let aliens = dsa
            .search(
                &base,
                Scope::Subtree,
                &Filter::Contains(attr::TITLE.into(), "alien".into()),
            )
            .unwrap();
        assert_eq!(aliens.len(), 2);
        let fast = dsa
            .search(
                &base,
                Scope::Subtree,
                &Filter::Ge(attr::FRAME_RATE.into(), 25),
            )
            .unwrap();
        assert_eq!(fast.len(), 2);
        let base_only = dsa.search(&base, Scope::Base, &Filter::True).unwrap();
        assert_eq!(base_only.len(), 1);
    }

    #[test]
    fn referrals_followed_by_dua() {
        let main = Dsa::new("main");
        let remote = Dsa::new("remote");
        main.add_referral(dn("o=remote-movies"), "remote");
        let name = dn("o=remote-movies/cn=Metropolis");
        remote
            .add(
                name.clone(),
                MovieEntry::new("Metropolis", "node-9").to_attrs(),
            )
            .unwrap();

        // Raw DSA access reports the referral.
        assert!(matches!(main.read(&name), Err(DirError::Referral { .. })));

        // The DUA chases it.
        let mut dua = Dua::new(&main);
        dua.add_dsa(&remote);
        let got = MovieEntry::from_attrs(&dua.read(&name).unwrap()).unwrap();
        assert_eq!(got.title, "Metropolis");
    }

    #[test]
    fn referral_loop_detected() {
        let a = Dsa::new("a");
        let b = Dsa::new("b");
        a.add_referral(dn("o=ping"), "b");
        b.add_referral(dn("o=ping"), "a");
        let mut dua = Dua::new(&a);
        dua.add_dsa(&b);
        assert_eq!(dua.read(&dn("o=ping/cn=x")), Err(DirError::ReferralLoop));
    }

    #[test]
    fn unknown_dsa_reported() {
        let a = Dsa::new("a");
        a.add_referral(dn("o=far"), "nowhere");
        let dua = Dua::new(&a);
        assert_eq!(
            dua.read(&dn("o=far/cn=x")),
            Err(DirError::UnknownDsa("nowhere".into()))
        );
    }
}
