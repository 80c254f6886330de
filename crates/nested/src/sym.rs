//! Interned attribute symbols.
//!
//! Attribute names occur everywhere in nested data — every tuple field, every
//! path segment, every tuple-type attribute — and the same few dozen names are
//! repeated across millions of tuples in the benchmark datasets. A [`Sym`] is
//! a handle into a process-wide, thread-safe interner: the first time a name
//! is seen it is copied into the interner (and leaked, so the backing `str`
//! lives for the rest of the process); every later interning of the same name
//! returns the same handle.
//!
//! Consequences:
//!
//! * **Equality is an integer compare** (`u32` handle comparison), not a
//!   string compare — the hot operation in tuple field lookup.
//! * **Cloning is a `Copy`** — no per-tuple name allocations in `project`,
//!   `rename`, flattening, or data generation.
//! * **Ordering and hashing delegate to the underlying string**, so the
//!   canonical (name-sorted) tuple order and name-based tuple hashes are
//!   bit-identical to the previous `String` representation. Determinism does
//!   not depend on interning order.
//!
//! The interner only ever grows; its memory is bounded by the number of
//! *distinct* attribute names, which is small in practice.
//!
//! The lookup table is *sharded* (16 independent mutexes, keyed by a hash of
//! the name) so that concurrent tracing threads interning operator parameters
//! do not serialize on a single lock; symbol ids come from one atomic counter
//! and the [`MAX_INTERNED_SYMBOLS`] cap honored by [`Sym::try_intern`] stays
//! global and exact (a single atomic reservation guards every new name,
//! whichever shard it lands in).

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// An interned attribute name: a `u32` handle plus a pointer to the interned
/// string (so resolving a symbol never takes the interner lock).
#[derive(Clone, Copy)]
pub struct Sym {
    id: u32,
    text: &'static str,
}

/// Number of independent lock shards. A small power of two: contention on
/// the interner is bursty (operator parameters at trace time), and 16 locks
/// already make collisions between tracing threads unlikely.
const SHARD_COUNT: usize = 16;

struct Interner {
    shards: [Mutex<HashMap<&'static str, Sym>>; SHARD_COUNT],
    /// Distinct symbols interned so far, across all shards. New names reserve
    /// a slot here *before* allocating, which is what keeps the
    /// [`MAX_INTERNED_SYMBOLS`] cap exact under concurrency.
    count: AtomicUsize,
    /// Next symbol id (ids are unique but not contiguous per shard).
    next_id: AtomicU32,
}

static INTERNER: OnceLock<Interner> = OnceLock::new();

fn interner() -> &'static Interner {
    INTERNER.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        count: AtomicUsize::new(0),
        next_id: AtomicU32::new(0),
    })
}

/// The shard a name lives in: deterministic within the process (which is all
/// sharding needs — symbol identity never depends on the shard index).
fn shard_index(name: &str) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut hasher);
    (hasher.finish() as usize) % SHARD_COUNT
}

/// Hard ceiling on distinct interned symbols honored by [`Sym::try_intern`].
///
/// Interned strings are leaked for the lifetime of the process, so code that
/// interns *untrusted* names (e.g. the service wire codecs decoding client
/// JSON) must go through [`Sym::try_intern`], which refuses new names beyond
/// this bound instead of letting a client grow the interner without limit.
/// 2^20 distinct attribute names is far beyond any legitimate schema while
/// capping the worst-case leak at tens of megabytes.
pub const MAX_INTERNED_SYMBOLS: usize = 1 << 20;

impl Sym {
    /// Interns `name`, returning its symbol. Idempotent: the same string
    /// always yields the same handle. Use [`Sym::try_intern`] instead when
    /// the name comes from untrusted input.
    pub fn intern(name: &str) -> Sym {
        let interner = interner();
        let mut shard =
            interner.shards[shard_index(name)].lock().expect("symbol interner poisoned");
        if let Some(&sym) = shard.get(name) {
            return sym;
        }
        interner.count.fetch_add(1, Ordering::SeqCst);
        let sym = Sym::allocate(interner, name);
        shard.insert(sym.text, sym);
        sym
    }

    /// Leaks `name` and assigns a fresh id. Caller holds the shard lock for
    /// `name` (so a name is never allocated twice) and has already accounted
    /// for the new symbol in `count`.
    fn allocate(interner: &Interner, name: &str) -> Sym {
        let text: &'static str = Box::leak(name.to_string().into_boxed_str());
        let id = interner.next_id.fetch_add(1, Ordering::SeqCst);
        assert!(id != u32::MAX, "symbol interner overflow");
        Sym { id, text }
    }

    /// Interns `name` unless doing so would push the number of distinct
    /// symbols past [`MAX_INTERNED_SYMBOLS`]; already-interned names always
    /// succeed. This is the entry point for untrusted (wire) input, whose
    /// attribute names must not leak unbounded interner memory.
    pub fn try_intern(name: &str) -> Option<Sym> {
        let interner = interner();
        let mut shard =
            interner.shards[shard_index(name)].lock().expect("symbol interner poisoned");
        if let Some(&sym) = shard.get(name) {
            return Some(sym);
        }
        // Reserve a slot under the global cap before allocating. The atomic
        // reservation keeps the cap exact even when other shards are
        // admitting names concurrently.
        interner
            .count
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |count| {
                (count < MAX_INTERNED_SYMBOLS).then_some(count + 1)
            })
            .ok()?;
        let sym = Sym::allocate(interner, name);
        shard.insert(sym.text, sym);
        Some(sym)
    }

    /// The interned string. Free: no lock, no allocation.
    pub fn as_str(self) -> &'static str {
        self.text
    }

    /// The `u32` interner handle (stable within a process, not across runs).
    pub fn id(self) -> u32 {
        self.id
    }

    /// Number of distinct symbols interned so far (diagnostics / benches).
    pub fn interned_count() -> usize {
        interner().count.load(Ordering::SeqCst)
    }
}

impl PartialEq for Sym {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Sym {}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    /// String order (with an integer fast path for equal symbols), preserving
    /// the canonical orders of the previous `String` representation.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.id == other.id {
            std::cmp::Ordering::Equal
        } else {
            self.text.cmp(other.text)
        }
    }
}

impl Hash for Sym {
    /// Hashes the interned string so tuple hashes stay deterministic across
    /// runs regardless of interning order.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.text.hash(state);
    }
}

impl Deref for Sym {
    type Target = str;

    fn deref(&self) -> &str {
        self.text
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.text
    }
}

impl std::borrow::Borrow<str> for Sym {
    fn borrow(&self) -> &str {
        self.text
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.text)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::intern(&s)
    }
}

impl From<&Sym> for Sym {
    fn from(s: &Sym) -> Sym {
        *s
    }
}

impl From<Sym> for String {
    fn from(s: Sym) -> String {
        s.text.to_string()
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.text == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.text == *other
    }
}

impl PartialEq<String> for Sym {
    fn eq(&self, other: &String) -> bool {
        self.text == other.as_str()
    }
}

impl PartialEq<Sym> for str {
    fn eq(&self, other: &Sym) -> bool {
        self == other.text
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.text
    }
}

impl PartialEq<Sym> for String {
    fn eq(&self, other: &Sym) -> bool {
        self.as_str() == other.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::intern("city");
        let b = Sym::intern("city");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let a = Sym::intern("sym-test-a");
        let b = Sym::intern("sym-test-b");
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn order_and_hash_follow_the_string() {
        // Intern in reverse lexicographic order: ordering must still be
        // lexicographic, not insertion order.
        let z = Sym::intern("sym-test-z");
        let m = Sym::intern("sym-test-m");
        assert!(m < z);
        assert_eq!(hash(&z), hash(&"sym-test-z".to_string()));
        let mut v = [z, m, Sym::intern("sym-test-a2")];
        v.sort();
        assert_eq!(
            v.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            vec!["sym-test-a2", "sym-test-m", "sym-test-z"]
        );
    }

    #[test]
    fn string_comparisons_work_both_ways() {
        let s = Sym::intern("name");
        assert_eq!(s, "name");
        assert_eq!("name", s);
        assert_eq!(s, "name".to_string());
        assert_eq!(&s[..2], "na");
        assert_eq!(s.to_string(), "name");
        assert_eq!(String::from(s), "name");
    }

    #[test]
    fn symbols_are_shared_across_threads() {
        let handles: Vec<_> =
            (0..4).map(|_| std::thread::spawn(|| Sym::intern("sym-test-threaded"))).collect();
        let syms: Vec<Sym> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn try_intern_accepts_known_and_new_names_under_the_cap() {
        let known = Sym::intern("sym-test-try");
        assert_eq!(Sym::try_intern("sym-test-try"), Some(known));
        let fresh = Sym::try_intern("sym-test-try-fresh").unwrap();
        assert_eq!(fresh.as_str(), "sym-test-try-fresh");
        assert!(Sym::interned_count() <= MAX_INTERNED_SYMBOLS);
    }

    #[test]
    fn concurrent_interning_of_distinct_names_stays_consistent() {
        // Hammer the sharded interner from several threads with overlapping
        // name sets: every name must resolve to exactly one id, and the
        // count must grow by exactly the number of distinct new names.
        let before = Sym::interned_count();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..64)
                        .map(|i| {
                            // Each name is interned by two of the four threads.
                            let name = format!("sym-shard-test-{}-{i}", (t / 2) as u32);
                            (name.clone(), Sym::intern(&name))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut seen: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
        for handle in handles {
            for (name, sym) in handle.join().unwrap() {
                assert_eq!(sym.as_str(), name);
                let id = seen.entry(name.clone()).or_insert_with(|| sym.id());
                assert_eq!(*id, sym.id(), "id of {name} must be stable across threads");
            }
        }
        assert_eq!(seen.len(), 128);
        // Other tests may intern concurrently, so only a lower bound is exact.
        assert!(Sym::interned_count() >= before + 128);
    }

    #[test]
    fn interned_count_grows_monotonically() {
        let before = Sym::interned_count();
        let first = Sym::intern("sym-test-count-probe");
        let after = Sym::interned_count();
        assert!(after >= before);
        // Re-interning a known name adds no symbol. The count only grows on
        // the path that calls `allocate`, which hands out a fresh id and a
        // freshly leaked string.
        let again = Sym::intern("sym-test-count-probe");
        assert_eq!(again.id(), first.id());
        assert!(std::ptr::eq(again.as_str(), first.as_str()));
    }
}
