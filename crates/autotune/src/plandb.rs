//! Crash-safe persistent plan database: the one on-disk store of tuned
//! configurations ("we then save this switch point parameter for future
//! runs", §IV-D).
//!
//! [`crate::solve_auto`], `trisolve tune --cache` and the solver service
//! all read and write it, so the dynamic tuner's ~14–18 microbench
//! evaluations are paid at most **once per workload class**: tuned
//! configurations are keyed by `device × precision × size-bucket × class ×
//! layout` ([`PlanDb::key`]) and persisted to disk, so a restarted process
//! warm-starts with zero tuner evaluations for every class it has seen
//! before.
//!
//! The file is JSON with an explicit `format_version` and an FNV-1a-64
//! checksum over the canonical (key-sorted) serialisation of the entries.
//! [`PlanDb::open`] **never fails and never panics**: a missing file is a
//! fresh database; a truncated, corrupt, checksum-flipped, or
//! version-skewed file (either the container's `format_version` or an
//! entry's `TunedConfig` schema version from the future) is *quarantined*
//! — renamed aside to `<path>.quarantined` — and an empty database is
//! rebuilt in its place. A bad plan file therefore costs a re-tune,
//! never an outage, and never serves a wrong plan (entries are only
//! trusted when both checksum and per-entry decode succeed; the service
//! additionally residual-verifies its solves downstream).
//!
//! Saves are atomic: write to `<path>.tmp`, then rename over the target,
//! so a crash mid-save leaves either the old file or the new one — not a
//! torn hybrid.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use crate::tuners::TunedConfig;
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Schema version of the database container file.
///
/// Bumped when the envelope layout changes; files from a *newer* version
/// are quarantined rather than misread. (Entry payloads carry their own
/// [`crate::TUNED_CONFIG_VERSION`].)
pub const PLANDB_FORMAT_VERSION: u64 = 1;

/// How the database came up when opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbOrigin {
    /// No file existed; starting empty.
    Fresh,
    /// File loaded and verified.
    Loaded,
    /// File was damaged or version-skewed; it was moved aside and the
    /// database rebuilt empty.
    Quarantined {
        /// Why the file was rejected.
        reason: String,
        /// Where the bad file was moved (when the rename succeeded).
        moved_to: Option<PathBuf>,
    },
}

impl DbOrigin {
    /// Short label for reports (`fresh` / `loaded` / `quarantined`).
    pub fn label(&self) -> &'static str {
        match self {
            DbOrigin::Fresh => "fresh",
            DbOrigin::Loaded => "loaded",
            DbOrigin::Quarantined { .. } => "quarantined",
        }
    }
}

/// Persistent map from workload-class keys to tuned configurations.
#[derive(Debug)]
pub struct PlanDb {
    path: Option<PathBuf>,
    entries: HashMap<String, TunedConfig>,
    origin: DbOrigin,
    hits: u64,
    misses: u64,
}

impl PlanDb {
    /// An ephemeral database with no backing file (saves are no-ops).
    pub fn in_memory() -> Self {
        Self {
            path: None,
            entries: HashMap::new(),
            origin: DbOrigin::Fresh,
            hits: 0,
            misses: 0,
        }
    }

    /// Open (or create) the database at `path`. Infallible by design: any
    /// unreadable, unparsable, tampered, or future-versioned file is
    /// quarantined and an empty database returned in its place.
    pub fn open(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let (entries, origin) = match std::fs::read_to_string(&path) {
            Err(err) if err.kind() == io::ErrorKind::NotFound => (HashMap::new(), DbOrigin::Fresh),
            Err(err) => {
                let origin = quarantine(&path, format!("unreadable: {err}"));
                (HashMap::new(), origin)
            }
            Ok(text) => match decode(&text) {
                Ok(entries) => (entries, DbOrigin::Loaded),
                Err(reason) => {
                    let origin = quarantine(&path, reason);
                    (HashMap::new(), origin)
                }
            },
        };
        Self {
            path: Some(path),
            entries,
            origin,
            hits: 0,
            misses: 0,
        }
    }

    /// Database key for one workload class on one device:
    /// `device/fNN/n<log2 padded size>/<class>/<layout>`.
    ///
    /// The system-count bucket is deliberately **absent**: the service's
    /// request coalescing grows `m` at dispatch time, and plans tuned for
    /// the class must keep hitting regardless of how many compatible
    /// requests rode along. The size bucket is `log2` of `system_size`
    /// padded to a power of two.
    pub fn key(
        device: &str,
        elem_bytes: usize,
        system_size: usize,
        class_label: &str,
        layout_label: &str,
    ) -> String {
        let bucket = system_size
            .max(1)
            .checked_next_power_of_two()
            .map_or(usize::BITS, usize::ilog2);
        format!(
            "{device}/f{}/n{bucket}/{class_label}/{layout_label}",
            elem_bytes * 8
        )
    }

    /// The key of an *ungated* tuning of one device, width and size
    /// bucket: class `ungated`, layout `auto`. [`crate::solve_auto`] and
    /// `trisolve tune --cache` store and read the dynamic tuner's result
    /// here. The service's keys carry a workload class whose tunings
    /// passed the stability gate, so a file both write never serves one
    /// kind for the other.
    pub fn ungated_key(device: &str, elem_bytes: usize, system_size: usize) -> String {
        Self::key(device, elem_bytes, system_size, "ungated", "auto")
    }

    /// Look up a stored configuration, counting hits and misses.
    pub fn get(&mut self, key: &str) -> Option<TunedConfig> {
        match self.entries.get(key) {
            Some(cfg) => {
                self.hits += 1;
                Some(cfg.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether `key` is stored, without touching the hit/miss counters
    /// (admission control probes coldness speculatively; only real plan
    /// fetches at dispatch should count).
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Store a configuration under `key` (overwrites).
    pub fn put(&mut self, key: String, cfg: TunedConfig) {
        self.entries.insert(key, cfg);
    }

    /// Persist to disk atomically (`.tmp` + rename). No-op when the
    /// database is in-memory.
    pub fn save(&self) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let entries = canonical_entries(&self.entries);
        let checksum = format!("{:016x}", fnv1a64(entries.to_string().as_bytes()));
        let doc = Value::Object(vec![
            (
                "format_version".to_owned(),
                Value::Number(serde::value::Number::from_f64(PLANDB_FORMAT_VERSION as f64)),
            ),
            ("checksum".to_owned(), Value::String(checksum)),
            ("entries".to_owned(), entries),
        ]);
        let tmp = tmp_path(path);
        std::fs::write(&tmp, doc.to_string())?;
        std::fs::rename(&tmp, path)
    }

    /// Stored entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no plans are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup hits since open.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses since open.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// How the database came up.
    pub fn origin(&self) -> &DbOrigin {
        &self.origin
    }

    /// Backing file path, when persistent.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

/// Move a bad database file aside; best-effort (an un-renamable file is
/// simply left behind — the rebuilt DB will overwrite it on next save).
fn quarantine(path: &Path, reason: String) -> DbOrigin {
    let mut target = path.as_os_str().to_owned();
    target.push(".quarantined");
    let target = PathBuf::from(target);
    let moved_to = std::fs::rename(path, &target).ok().map(|()| target);
    DbOrigin::Quarantined { reason, moved_to }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Entries as a key-sorted JSON object — the canonical form the checksum
/// covers. Every `TunedConfig` field is an integer, so the rendering is
/// byte-stable across save/load round trips.
fn canonical_entries(entries: &HashMap<String, TunedConfig>) -> Value {
    let mut keys: Vec<&String> = entries.keys().collect();
    keys.sort();
    Value::Object(
        keys.into_iter()
            .map(|k| (k.clone(), entries[k].to_value()))
            .collect(),
    )
}

/// Re-canonicalise a parsed entries object (sort keys) so the checksum is
/// order-independent but content-sensitive.
fn recanonicalise(entries: &Value) -> Option<Value> {
    let obj = entries.as_object()?;
    let mut pairs: Vec<(String, Value)> = obj.clone();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    Some(Value::Object(pairs))
}

fn decode(text: &str) -> Result<HashMap<String, TunedConfig>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("parse error: {e:?}"))?;
    let version = doc
        .get("format_version")
        .and_then(Value::as_u64)
        .ok_or_else(|| "missing format_version".to_owned())?;
    if version > PLANDB_FORMAT_VERSION {
        return Err(format!(
            "format_version {version} is newer than supported {PLANDB_FORMAT_VERSION}"
        ));
    }
    let stored_sum = doc
        .get("checksum")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing checksum".to_owned())?;
    let entries_value = doc
        .get("entries")
        .ok_or_else(|| "missing entries".to_owned())?;
    let canonical =
        recanonicalise(entries_value).ok_or_else(|| "entries is not an object".to_owned())?;
    let actual_sum = format!("{:016x}", fnv1a64(canonical.to_string().as_bytes()));
    if actual_sum != stored_sum {
        return Err(format!(
            "checksum mismatch (stored {stored_sum}, computed {actual_sum})"
        ));
    }
    let mut entries = HashMap::new();
    if let Some(pairs) = entries_value.as_object() {
        for (key, value) in pairs {
            let cfg =
                TunedConfig::from_value(value).map_err(|e| format!("entry {key:?}: {}", e.0))?;
            entries.insert(key.clone(), cfg);
        }
    }
    Ok(entries)
}

/// FNV-1a 64-bit over raw bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuners::TUNED_CONFIG_VERSION;
    use proptest::prelude::*;

    fn cfg(onchip: usize) -> TunedConfig {
        TunedConfig {
            version: TUNED_CONFIG_VERSION,
            onchip_size: onchip,
            thomas_switch: 64,
            strided_from_stride: 8,
            interleaved_below_size: 0,
            interleaved_from_systems: 0,
            stage1_target_systems: 16,
            elem_bytes: 4,
            evaluations: 14,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("trisolve-plandb-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A database created afresh at `tmp(name)`, holding `entries`, saved.
    fn saved(
        name: &str,
        entries: impl IntoIterator<Item = (String, TunedConfig)>,
    ) -> (PathBuf, PlanDb) {
        let path = tmp(name);
        let _ = std::fs::remove_file(&path);
        let mut db = PlanDb::open(&path);
        for (key, cfg) in entries {
            db.put(key, cfg);
        }
        db.save().unwrap();
        (path, db)
    }

    fn one_entry(cfg: TunedConfig) -> [(String, TunedConfig); 1] {
        [(PlanDb::key("d", 4, 64, "dominant", "auto"), cfg)]
    }

    /// Why `db` was quarantined; panics unless it was, and empty.
    fn quarantine_reason(db: &PlanDb) -> &str {
        match db.origin() {
            DbOrigin::Quarantined { reason, .. } if db.is_empty() => reason,
            other => panic!("expected an empty quarantined database, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_fresh() {
        let path = tmp("never-written.json");
        let _ = std::fs::remove_file(&path);
        let db = PlanDb::open(&path);
        assert_eq!(*db.origin(), DbOrigin::Fresh);
        assert!(db.is_empty());
    }

    #[test]
    fn roundtrip_preserves_entries_and_counts_hits() {
        let key = PlanDb::key("GTX 480", 4, 512, "dominant", "auto");
        assert_eq!(key, "GTX 480/f32/n9/dominant/auto");
        // The size bucket is log2 of the padded size.
        assert_eq!(key, PlanDb::key("GTX 480", 4, 300, "dominant", "auto"));
        assert!(PlanDb::key("d", 8, 0, "c", "l").starts_with("d/f64/n0/"));
        assert!(PlanDb::key("d", 4, usize::MAX, "c", "l").contains("/n64/"));
        let (path, mut db) = saved("roundtrip.json", []);
        assert!(db.get(&key).is_none());
        db.put(key.clone(), cfg(256));
        db.save().unwrap();

        let mut reopened = PlanDb::open(&path);
        assert_eq!(*reopened.origin(), DbOrigin::Loaded);
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.get(&key), Some(cfg(256)));
        assert_eq!(reopened.hits(), 1);
        assert_eq!(db.misses(), 1);
        // No torn temp file left behind.
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn truncated_file_quarantines_and_rebuilds() {
        let (path, _) = saved("truncated.json", one_entry(cfg(32)));
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();

        let reopened = PlanDb::open(&path);
        quarantine_reason(&reopened);
        assert!(!path.exists(), "bad file must be moved aside");
        assert!(path.with_extension("json.quarantined").exists());
        // The rebuilt database saves over the old path cleanly.
        reopened.save().unwrap();
        assert_eq!(*PlanDb::open(&path).origin(), DbOrigin::Loaded);
    }

    #[test]
    fn flipped_checksum_quarantines() {
        let (path, _) = saved("checksum.json", one_entry(cfg(32)));
        // Flip one hex digit of the stored checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = String::from_utf8_lossy(&bytes)
            .find("\"checksum\":\"")
            .unwrap()
            + 12;
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        std::fs::write(&path, bytes).unwrap();
        let reason = quarantine_reason(&PlanDb::open(&path)).to_owned();
        assert!(reason.contains("checksum"), "reason: {reason}");
    }

    #[test]
    fn tampered_entry_fails_checksum() {
        let (path, _) = saved("tampered-entry.json", one_entry(cfg(32)));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"onchip_size\":32"));
        let text = text.replace("\"onchip_size\":32", "\"onchip_size\":33");
        std::fs::write(&path, text).unwrap();
        // The tampered plan is not served.
        quarantine_reason(&PlanDb::open(&path));
    }

    #[test]
    fn future_format_version_quarantines() {
        let path = tmp("future-format.json");
        let doc = format!(
            "{{\"format_version\":{},\"checksum\":\"0\",\"entries\":{{}}}}",
            PLANDB_FORMAT_VERSION + 1
        );
        std::fs::write(&path, doc).unwrap();
        let reason = quarantine_reason(&PlanDb::open(&path)).to_owned();
        assert!(reason.contains("newer"), "reason: {reason}");
    }

    #[test]
    fn future_entry_schema_version_quarantines() {
        // An entry from a future `TunedConfig` schema under a valid
        // envelope checksum: only the per-entry schema gate can catch it.
        let future = TunedConfig {
            version: 99,
            ..cfg(32)
        };
        let (path, _) = saved("future-entry.json", one_entry(future));
        let reason = quarantine_reason(&PlanDb::open(&path)).to_owned();
        assert!(reason.contains("newer"), "reason: {reason}");
    }

    #[test]
    fn zero_onchip_size_entry_quarantines() {
        // `params_for` divides by the on-chip size: an entry with 0 must
        // never load, or the service would panic on its first batch.
        let (path, _) = saved("zero-onchip.json", one_entry(cfg(0)));
        let reason = quarantine_reason(&PlanDb::open(&path)).to_owned();
        assert!(reason.contains("onchip_size"), "reason: {reason}");
    }

    #[test]
    fn deeply_nested_file_quarantines() {
        let path = tmp("deeply-nested.json");
        let depth = 100_000;
        std::fs::write(&path, "[".repeat(depth) + &"]".repeat(depth)).unwrap();
        let reason = quarantine_reason(&PlanDb::open(&path)).to_owned();
        assert!(reason.contains("recursion limit"), "reason: {reason}");
    }

    #[test]
    fn json_nesting_limit_is_exact() {
        use serde::value::MAX_DEPTH;
        assert_eq!(MAX_DEPTH, 128);
        let arrays = |k: usize| "[".repeat(k) + &"]".repeat(k);
        let objects = |k: usize| "{\"k\":".repeat(k) + "null" + &"}".repeat(k);
        for depth in [MAX_DEPTH, MAX_DEPTH + 1] {
            for text in [arrays(depth), objects(depth)] {
                let parsed = serde_json::from_str::<serde_json::Value>(&text);
                if depth == MAX_DEPTH {
                    assert!(parsed.is_ok(), "depth {depth}: {parsed:?}");
                } else {
                    let err = parsed.unwrap_err().to_string();
                    assert!(err.contains("recursion limit exceeded"), "{err}");
                }
            }
        }
    }

    #[test]
    fn in_memory_db_saves_as_noop() {
        let mut db = PlanDb::in_memory();
        db.put("k".to_owned(), cfg(8));
        db.save().unwrap();
        assert_eq!(db.path(), None);
        assert_eq!(db.len(), 1);
    }

    /// A valid entry: any key, switch points that are nonzero powers of
    /// two, and every field an integer JSON holds exactly (at most 2^53).
    fn entry() -> impl Strategy<Value = (String, TunedConfig)> {
        let field = || (0..=1u64 << 53).prop_map(|x| x as usize);
        let fields = (field(), field(), field(), field(), field(), field());
        let key = prop::collection::vec(0u32..0x11_0000, 0..12);
        (key, 0u32..54, 0u32..54, fields).prop_map(|(key, s3, t4, f)| {
            let cfg = TunedConfig {
                version: TUNED_CONFIG_VERSION,
                onchip_size: 1 << s3,
                thomas_switch: 1 << t4,
                strided_from_stride: f.0,
                interleaved_below_size: f.1,
                interleaved_from_systems: f.2,
                stage1_target_systems: f.3,
                elem_bytes: f.4,
                evaluations: f.5,
            };
            (key.into_iter().filter_map(char::from_u32).collect(), cfg)
        })
    }

    /// Write `bytes` over `path` and open it: an existing file either
    /// loads, serving only entries `TunedConfig` validation accepts, or is
    /// quarantined and the database starts empty.
    fn open_bytes(path: &Path, bytes: &[u8]) -> Result<(), String> {
        std::fs::write(path, bytes).unwrap();
        let db = PlanDb::open(path);
        match db.origin() {
            DbOrigin::Loaded => {
                for (key, cfg) in &db.entries {
                    let revalidated = TunedConfig::from_value(&cfg.to_value());
                    prop_assert!(revalidated.is_ok(), "{key:?}: {cfg:?}");
                }
            }
            DbOrigin::Quarantined { .. } => prop_assert!(db.is_empty() && !path.exists()),
            DbOrigin::Fresh => prop_assert!(false, "an existing file opened as fresh"),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_load_or_quarantine(
            bytes in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            open_bytes(&tmp("arbitrary-bytes.json"), &bytes)?;
        }

        #[test]
        fn one_byte_mutations_load_or_quarantine(
            entries in prop::collection::vec(entry(), 0..4),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let (path, _) = saved("mutated.json", entries);
            let mut bytes = std::fs::read(&path).unwrap();
            let at = at % bytes.len();
            bytes[at] = byte;
            open_bytes(&path, &bytes)?;
        }

        #[test]
        fn valid_entries_round_trip(entries in prop::collection::vec(entry(), 0..6)) {
            let (path, db) = saved("round-trip.json", entries);
            let reopened = PlanDb::open(&path);
            prop_assert_eq!(reopened.origin(), &DbOrigin::Loaded);
            prop_assert_eq!(&reopened.entries, &db.entries);
        }
    }
}
