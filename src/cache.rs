//! Content-addressed on-disk result cache.
//!
//! The campaign engine ([`crate::campaign`]) keys every simulation cell
//! by a stable fingerprint of its *fully resolved* configuration —
//! platform parameters, device spec, workload spec, fault regime, run
//! options, and the code-schema version stamps — and stores the cell's
//! serialized result under that key. Because the simulator is
//! deterministic, a fingerprint hit can be loaded instead of
//! re-simulated with byte-identical downstream output.
//!
//! Layout: one JSON file per cell at
//! `<root>/<key[0..2]>/<key>.json`, each a `CacheEntry` envelope
//! `{"v": <schema>, "key": <fingerprint>, "payload": <cell JSON>}`.
//! The two-character fan-out directories keep any single directory from
//! accumulating hundreds of thousands of entries on full-scale grids.
//!
//! Robustness rules (enforced by the fuzz/corruption tests):
//!
//! - **Corruption is a miss, never a panic.** A truncated, garbled, or
//!   wrong-version entry is counted (`cache.corrupt` telemetry counter +
//!   [`CacheStats::corrupt`]) and treated as a miss; the cell simply
//!   re-simulates and the entry is rewritten.
//! - **Writes are atomic.** Entries are written to a temp file and
//!   renamed into place, so a killed run never leaves a half-written
//!   entry that a later run would have to classify.
//! - **Self-invalidating.** [`CACHE_SCHEMA_VERSION`] is stored in every
//!   envelope *and* mixed into every fingerprint; schema bumps make old
//!   entries unreachable (different key) and unreadable (version check)
//!   at once.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{fs, io};

use serde::{Deserialize, Serialize};

/// Version of the on-disk cache envelope *and* of the result payloads
/// melody writes into it. Mixed into every fingerprint, so bumping it
/// orphans (rather than misinterprets) every existing cache entry.
///
/// Bump procedure (see EXPERIMENTS.md "Campaigns and the result cache"):
/// increment this constant whenever a cached payload's meaning changes —
/// a result struct gains/renames a field, a simulation fix changes
/// outputs without touching [`melody_mem::SPEC_SCHEMA_VERSION`] /
/// [`melody_workloads::SPEC_SCHEMA_VERSION`], or the envelope format
/// itself changes — and note the bump in CHANGES.md.
///
/// v3: topology-lowered device specs joined the campaign device axis
/// (the `AccessBreakdown::node` field and switch contention model can
/// shift results for composite devices), so all v2 entries are orphaned.
///
/// v4: tiering policies joined the campaign grid (`policies` axis,
/// `CampaignRow::policy`) and the CPU engine grew the full-stream
/// slot tap for tiered devices, so all v3 entries are orphaned.
pub const CACHE_SCHEMA_VERSION: u32 = 4;

/// 64-bit FNV-1a over `bytes`, from an arbitrary offset basis.
fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Stable 128-bit hex fingerprint of an ordered list of string parts.
///
/// Two independent FNV-1a-64 passes (distinct offset bases, which makes
/// them behave as independent hash functions) are concatenated into 32
/// hex characters. Parts are length-prefixed so `["ab","c"]` and
/// `["a","bc"]` cannot collide structurally.
pub fn fingerprint(parts: &[&str]) -> String {
    let mut a: u64 = 0xcbf29ce484222325; // standard FNV offset basis
    let mut b: u64 = 0x6d656c6f64792121; // "melody!!"
    for p in parts {
        let len = (p.len() as u64).to_le_bytes();
        a = fnv64(fnv64(a, &len), p.as_bytes());
        b = fnv64(fnv64(b, &len), p.as_bytes());
    }
    format!("{a:016x}{b:016x}")
}

/// On-disk envelope of one cached cell result.
#[derive(Debug, Serialize, Deserialize)]
struct CacheEntry {
    /// [`CACHE_SCHEMA_VERSION`] at write time.
    v: u32,
    /// The fingerprint this entry was stored under (defends against
    /// renamed/copied files).
    key: String,
    /// The cell result, JSON-encoded by the campaign layer.
    payload: String,
}

/// Hit/miss/corruption counters of one cache handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups with no (valid) entry.
    pub misses: u64,
    /// Entries that existed but failed validation (truncated, garbled,
    /// wrong version, wrong key). Each also counts as a miss.
    pub corrupt: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// One-line render used on stderr by `melody campaign` (stderr so
    /// cache state never perturbs byte-compared stdout output).
    pub fn render(&self) -> String {
        format!(
            "cache: {} hits, {} misses, {} corrupt ({:.1}% warm)",
            self.hits,
            self.misses,
            self.corrupt,
            self.hit_rate() * 100.0
        )
    }
}

/// A content-addressed result cache rooted at one directory.
///
/// Counters are atomics so a shared handle can be consulted from the
/// worker pool; the lookup/store operations themselves are plain
/// filesystem reads/atomic renames and need no lock.
#[derive(Debug)]
pub struct ResultCache {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        })
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        let shard = key.get(0..2).unwrap_or("xx");
        self.root.join(shard).join(format!("{key}.json"))
    }

    fn note_corrupt(&self) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        if melody_telemetry::metrics_on() {
            melody_telemetry::count("cache.corrupt", 1);
        }
    }

    /// Looks up `key`, returning the stored payload on a valid hit.
    ///
    /// Any defect — unreadable file, truncated/garbled JSON, version or
    /// key mismatch — is a miss (and counts toward
    /// [`CacheStats::corrupt`] when an entry existed but was invalid).
    pub fn get(&self, key: &str) -> Option<String> {
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                if e.kind() != io::ErrorKind::NotFound {
                    self.note_corrupt();
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match serde_json::from_str::<CacheEntry>(&text) {
            Ok(entry) if entry.v == CACHE_SCHEMA_VERSION && entry.key == key => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if melody_telemetry::metrics_on() {
                    melody_telemetry::count("cache.hits", 1);
                }
                Some(entry.payload)
            }
            _ => {
                // Exists but is not a valid entry for this key/schema.
                self.note_corrupt();
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `payload` under `key` atomically (temp file + rename).
    /// A racing writer for the same key simply wins last; both write the
    /// identical content for a deterministic simulator.
    pub fn put(&self, key: &str, payload: &str) -> io::Result<()> {
        let path = self.entry_path(key);
        let dir = path.parent().expect("entry path has a shard directory");
        fs::create_dir_all(dir)?;
        let entry = CacheEntry {
            v: CACHE_SCHEMA_VERSION,
            key: key.to_string(),
            payload: payload.to_string(),
        };
        let json = serde_json::to_string(&entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        // The temp name must be unique per *writer*, not just per
        // process: two worker threads resolving the same fingerprint
        // would otherwise interleave truncate/write/rename on one temp
        // file and could rename a half-written entry into place. The
        // (pid, global sequence) pair keeps concurrent threads and
        // concurrent processes on disjoint temp files; whichever rename
        // lands last wins with a complete envelope.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            ".{key}.tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, json.as_bytes())?;
        fs::rename(&tmp, &path)?;
        if melody_telemetry::metrics_on() {
            melody_telemetry::count("cache.puts", 1);
            melody_telemetry::record_ns("cache.entry_bytes", payload.len() as u64);
        }
        Ok(())
    }

    /// Snapshot of the hit/miss/corruption counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(name: &str) -> ResultCache {
        let mut p = std::env::temp_dir();
        p.push(format!("melody-cache-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        ResultCache::open(&p).expect("open cache")
    }

    #[test]
    fn fingerprint_is_stable_and_structural() {
        let a = fingerprint(&["platform", "device", "workload"]);
        let b = fingerprint(&["platform", "device", "workload"]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        // Length prefixing: repartitioned parts must not collide.
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_ne!(fingerprint(&["x"]), fingerprint(&["x", ""]));
    }

    #[test]
    fn put_get_roundtrip() {
        let c = tmp_cache("roundtrip");
        let key = fingerprint(&["k1"]);
        assert_eq!(c.get(&key), None);
        c.put(&key, "{\"v\":1.25}").expect("put");
        assert_eq!(c.get(&key).as_deref(), Some("{\"v\":1.25}"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (1, 1, 0));
        let _ = fs::remove_dir_all(c.root());
    }

    #[test]
    fn wrong_key_in_envelope_is_corrupt_miss() {
        let c = tmp_cache("renamed");
        let k1 = fingerprint(&["one"]);
        let k2 = fingerprint(&["two"]);
        c.put(&k1, "payload").expect("put");
        // Simulate a copied/renamed file: k1's envelope under k2's path.
        let from = c.entry_path(&k1);
        let to = c.entry_path(&k2);
        fs::create_dir_all(to.parent().unwrap()).unwrap();
        fs::copy(&from, &to).expect("copy entry");
        assert_eq!(c.get(&k2), None, "key mismatch must miss");
        assert_eq!(c.stats().corrupt, 1);
        let _ = fs::remove_dir_all(c.root());
    }

    #[test]
    fn truncated_entry_is_corrupt_miss_then_recovers() {
        let c = tmp_cache("truncated");
        let key = fingerprint(&["t"]);
        c.put(&key, "{\"data\":[1,2,3]}").expect("put");
        let path = c.entry_path(&key);
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(c.get(&key), None);
        assert_eq!(c.stats().corrupt, 1);
        // A rewrite heals the entry.
        c.put(&key, "{\"data\":[1,2,3]}").expect("re-put");
        assert_eq!(c.get(&key).as_deref(), Some("{\"data\":[1,2,3]}"));
        let _ = fs::remove_dir_all(c.root());
    }

    #[test]
    fn concurrent_writers_same_key_never_corrupt() {
        // Two cache handles on one root (stand-ins for two processes),
        // hammered from several threads resolving the *same*
        // fingerprint: every put must succeed, and the surviving entry
        // must always be a complete, valid envelope.
        let a = tmp_cache("race");
        let b = ResultCache::open(a.root()).expect("second handle");
        let key = fingerprint(&["contended-cell"]);
        let payload = format!("{{\"data\":{:?}}}", vec![1.25f64; 256]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                for c in [&a, &b] {
                    let (key, payload) = (&key, &payload);
                    s.spawn(move || {
                        for _ in 0..50 {
                            c.put(key, payload).expect("concurrent put succeeds");
                        }
                    });
                }
            }
        });
        // No temp litter left behind, and the entry reads back intact.
        let shard_dir = a.root().join(&key[0..2]);
        let leftovers: Vec<_> = fs::read_dir(&shard_dir)
            .expect("shard dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        // Exact accounting on a fresh handle: one lookup, one hit,
        // zero misses, zero corrupt envelopes.
        let fresh = ResultCache::open(a.root()).expect("fresh handle");
        assert_eq!(fresh.get(&key).as_deref(), Some(payload.as_str()));
        assert_eq!(
            fresh.stats(),
            CacheStats {
                hits: 1,
                misses: 0,
                corrupt: 0
            }
        );
        let _ = fs::remove_dir_all(a.root());
    }

    #[test]
    fn stats_render_shape() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            corrupt: 0,
        };
        assert_eq!(
            s.render(),
            "cache: 3 hits, 1 misses, 0 corrupt (75.0% warm)"
        );
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
