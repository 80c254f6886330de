//! The catalog: named, versioned databases and named NRAB plans.
//!
//! Registering under an existing name bumps the entry's version; trace-cache
//! keys include the version, so stale traces of a replaced database can never
//! be served.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use nested_data::Value;
use nrab_algebra::{Database, QueryPlan};

use crate::error::{ServiceError, ServiceResult};
use crate::wire::plan_to_json;

/// FNV-1a 64-bit hash, used to fingerprint canonical wire encodings.
pub fn fingerprint64(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A registered database: shared data plus the identity the cache keys on.
#[derive(Debug, Clone)]
pub struct DbHandle {
    /// Catalog name.
    pub name: String,
    /// Version, bumped on re-registration.
    pub version: u64,
    /// The shared database.
    pub db: Arc<Database>,
}

/// A registered plan: shared plan plus its canonical-encoding fingerprint.
#[derive(Debug, Clone)]
pub struct PlanHandle {
    /// Catalog name.
    pub name: String,
    /// Fingerprint of the plan's canonical wire encoding.
    pub fingerprint: u64,
    /// The shared plan.
    pub plan: Arc<QueryPlan>,
}

/// Named databases and plans.
#[derive(Debug, Default)]
pub struct Catalog {
    dbs: BTreeMap<String, DbHandle>,
    plans: BTreeMap<String, PlanHandle>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers (or replaces) a database; returns its handle.
    pub fn register_database(&mut self, name: impl Into<String>, db: Database) -> DbHandle {
        let name = name.into();
        let version = self.dbs.get(&name).map(|h| h.version + 1).unwrap_or(1);
        let handle = DbHandle { name: name.clone(), version, db: Arc::new(db) };
        self.dbs.insert(name, handle.clone());
        handle
    }

    /// Registers (or replaces) a plan; returns its handle.
    pub fn register_plan(&mut self, name: impl Into<String>, plan: QueryPlan) -> PlanHandle {
        let name = name.into();
        let fingerprint = plan_fingerprint(&plan);
        let handle = PlanHandle { name: name.clone(), fingerprint, plan: Arc::new(plan) };
        self.plans.insert(name, handle.clone());
        handle
    }

    /// Looks up a database by name.
    pub fn database(&self, name: &str) -> ServiceResult<DbHandle> {
        self.dbs
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownCatalogEntry(format!("database `{name}`")))
    }

    /// Looks up a plan by name.
    pub fn plan(&self, name: &str) -> ServiceResult<PlanHandle> {
        self.plans
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownCatalogEntry(format!("plan `{name}`")))
    }
}

/// The fingerprint of a plan's canonical wire encoding.
pub fn plan_fingerprint(plan: &QueryPlan) -> u64 {
    fingerprint64(&plan_to_json(plan).to_compact())
}

/// A structural fingerprint of a database's relation names, schemas and
/// contents. Unlike `Value`'s `Hash`, which must agree with the numeric
/// cross-variant equality (`Int(2) == Float(2.0)`), it hashes each value's
/// variant and exact bits, so databases that differ in any stored value get
/// different fingerprints (up to 64-bit collisions).
pub fn database_fingerprint(db: &Database) -> u64 {
    let mut state = DefaultHasher::new();
    for name in db.relation_names() {
        name.hash(&mut state);
        // Both lookups succeed for a listed name.
        if let (Ok(schema), Ok(bag)) = (db.schema(name), db.relation(name)) {
            schema.hash(&mut state);
            state.write_usize(bag.distinct());
            for (value, mult) in bag.iter() {
                hash_value_exactly(value, &mut state);
                state.write_u64(*mult);
            }
        }
    }
    state.finish()
}

fn hash_value_exactly(value: &Value, state: &mut DefaultHasher) {
    match value {
        Value::Null => state.write_u8(0),
        Value::Bool(b) => {
            state.write_u8(1);
            b.hash(state);
        }
        Value::Int(i) => {
            state.write_u8(2);
            state.write_i64(*i);
        }
        Value::Float(f) => {
            state.write_u8(3);
            state.write_u64(f.to_bits());
        }
        Value::Str(s) => {
            state.write_u8(4);
            s.hash(state);
        }
        Value::Tuple(t) => {
            state.write_u8(5);
            state.write_usize(t.arity());
            for (name, field) in t.fields() {
                name.hash(state);
                hash_value_exactly(field, state);
            }
        }
        Value::Bag(b) => {
            state.write_u8(6);
            state.write_usize(b.distinct());
            for (element, mult) in b.iter() {
                hash_value_exactly(element, state);
                state.write_u64(*mult);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrab_algebra::PlanBuilder;

    #[test]
    fn registration_bumps_versions() {
        let mut catalog = Catalog::new();
        let v1 = catalog.register_database("db", Database::new());
        assert_eq!(v1.version, 1);
        let v2 = catalog.register_database("db", Database::new());
        assert_eq!(v2.version, 2);
        assert_eq!(catalog.database("db").unwrap().version, 2);
        assert!(catalog.database("missing").is_err());
    }

    #[test]
    fn plan_fingerprints_distinguish_plans() {
        let mut catalog = Catalog::new();
        let a = catalog.register_plan("a", PlanBuilder::table("r").build().unwrap());
        let b = catalog.register_plan("b", PlanBuilder::table("s").build().unwrap());
        let a2 = catalog.register_plan("a2", PlanBuilder::table("r").build().unwrap());
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(a.fingerprint, a2.fingerprint);
        assert_eq!(catalog.plan("a").unwrap().fingerprint, a.fingerprint);
    }
}
