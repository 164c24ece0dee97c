//! The content-addressed cell store: per-cell trial records on disk,
//! keyed by a hash of everything that determines a cell's trials.

use crate::stats::TrialRecord;
use robustify_core::Verdict;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use stochastic_fpu::json::{self, fnv1a_64, JsonCodec, JsonValue};
use stochastic_fpu::json_object;

/// A directory of per-cell checkpoint files.
///
/// Each entry is named `<fnv1a-64-of-key>.json` and stores the full
/// canonical key document alongside the cell's trial records:
///
/// ```text
/// {"key":{…},"records":[{"success":true,"metric":0.5,"flops":9,"faults":1},…]}
/// ```
///
/// The key is a canonical-JSON description of *exactly* the inputs the
/// deterministic executor's output depends on — workload, instantiation
/// mode, base seed, trial count, fault rate, solver spec, fault-model
/// spec. Two cells share an entry iff those agree, in which case their
/// trials are bit-identical, so replaying the records is sound. Loads
/// verify the stored key byte-for-byte, so a 64-bit hash collision
/// degrades to a cache miss, never to wrong data.
///
/// Writes go through a temp file + atomic rename, so a campaign killed
/// mid-write never leaves a torn entry — at worst the cell is re-run.
/// Each store writes its own temp file, so concurrent stores of one key
/// (two daemon clients missing on the same cell, or one campaign listing
/// a cell twice) each commit whole: the last rename wins.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The filename a key hashes to.
    pub fn file_name(key_json: &str) -> String {
        format!("{:016x}.json", fnv1a_64(key_json.as_bytes()))
    }

    fn path_for(&self, key_json: &str) -> PathBuf {
        self.dir.join(Self::file_name(key_json))
    }

    /// Loads the records stored under `key_json`, or `None` on a miss, a
    /// key mismatch (hash collision), or a torn/unparseable entry.
    pub fn load(&self, key_json: &str) -> Option<Vec<TrialRecord>> {
        let content = fs::read_to_string(self.path_for(key_json)).ok()?;
        // The stored key must match byte-for-byte; the entry layout is
        // fixed, so a prefix check is an exact key comparison.
        if !content.starts_with(&format!("{{\"key\":{key_json},\"records\":[")) {
            return None;
        }
        let doc = json::parse(&content).ok()?;
        doc.get("records")?
            .as_array()?
            .iter()
            .map(|r| TrialRecord::from_value(r).ok())
            .collect()
    }

    /// Checkpoints `records` under `key_json` (temp file + atomic rename).
    pub fn store(&self, key_json: &str, records: &[TrialRecord]) -> io::Result<()> {
        /// Numbers this process's temp files, so no two stores share one.
        static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
        let records: JsonValue = records.iter().map(TrialRecord::to_value).collect();
        let doc = format!("{{\"key\":{key_json},\"records\":{records}}}");
        let final_path = self.path_for(key_json);
        let tmp_path = self.dir.join(format!(
            "{}.{}-{}.tmp",
            Self::file_name(key_json),
            std::process::id(),
            NEXT_TMP.fetch_add(1, Ordering::Relaxed),
        ));
        {
            let mut tmp = fs::File::create(&tmp_path)?;
            tmp.write_all(doc.as_bytes())?;
            tmp.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)
    }

    /// Number of committed entries on disk (diagnostics; ignores temp
    /// files and foreign content).
    pub fn len(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|ext| ext == "json"))
            .count()
    }

    /// Whether the cache holds no committed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One cache-entry record. JSON has no non-finite numbers, so a
/// non-finite metric is stored as the string `"inf"`, `"-inf"` or `"nan"`.
impl JsonCodec for TrialRecord {
    fn to_value(&self) -> JsonValue {
        let metric: JsonValue = match self.verdict.metric {
            m if m.is_finite() => m.into(),
            m => m.to_string().to_lowercase().into(),
        };
        json_object!(
            "success" => self.verdict.success, "metric" => metric,
            "flops" => self.flops, "faults" => self.faults,
        )
    }

    fn from_value(value: &JsonValue) -> Result<Self, String> {
        let f = value.fields("trial record");
        let metric = match f.get::<&JsonValue>("metric")? {
            JsonValue::String(s) if ["inf", "-inf", "nan"].contains(&s.as_str()) => {
                s.parse().expect("Rust parses its own non-finite names")
            }
            _ => f.get("metric")?,
        };
        Ok(TrialRecord {
            verdict: Verdict {
                success: f.get("success")?,
                metric,
            },
            flops: f.get("flops")?,
            faults: f.get("faults")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("robustify-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<TrialRecord> {
        vec![
            TrialRecord {
                verdict: Verdict {
                    success: true,
                    metric: 0.125,
                },
                flops: 640,
                faults: 3,
            },
            TrialRecord {
                verdict: Verdict {
                    success: false,
                    metric: f64::INFINITY,
                },
                flops: 640,
                faults: 9,
            },
            TrialRecord {
                verdict: Verdict {
                    success: false,
                    metric: 0.1 + 0.2, // a value with no short decimal form
                },
                flops: 7,
                faults: 0,
            },
        ]
    }

    #[test]
    fn store_then_load_round_trips_exactly() {
        let dir = temp_dir("roundtrip");
        let cache = ResultCache::open(&dir).expect("open");
        let key = "{\"workload\":\"w\",\"seed\":7}";
        assert!(cache.load(key).is_none());
        assert!(cache.is_empty());
        let records = sample_records();
        cache.store(key, &records).expect("store");
        assert_eq!(cache.len(), 1);
        let loaded = cache.load(key).expect("hit");
        assert_eq!(loaded, records, "records replay bit-exactly");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_keys_and_torn_entries_miss() {
        let dir = temp_dir("mismatch");
        let cache = ResultCache::open(&dir).expect("open");
        let key = "{\"cell\":1}";
        cache.store(key, &sample_records()).expect("store");
        // A different key that we force into the same file simulates a
        // 64-bit hash collision: the byte-exact key check must miss.
        let other = "{\"cell\":2}";
        fs::rename(
            dir.join(ResultCache::file_name(key)),
            dir.join(ResultCache::file_name(other)),
        )
        .expect("simulate collision");
        assert!(cache.load(other).is_none(), "foreign key must not replay");
        // A torn (truncated) entry must also read as a miss.
        let torn = "{\"cell\":3}";
        cache.store(torn, &sample_records()).expect("store");
        let path = dir.join(ResultCache::file_name(torn));
        let content = fs::read_to_string(&path).expect("read");
        fs::write(&path, &content[..content.len() / 2]).expect("truncate");
        assert!(cache.load(torn).is_none(), "torn entry must not replay");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Concurrent stores of one key all succeed and leave one whole
    /// entry: a shared temp path let one rename win and the rest fail.
    #[test]
    fn concurrent_stores_of_one_key_all_commit() {
        let dir = temp_dir("concurrent");
        let cache = ResultCache::open(&dir).expect("open");
        let key = "{\"cell\":\"shared\"}";
        let records = sample_records();
        let writers = 4;
        let barrier = std::sync::Barrier::new(writers);
        for _ in 0..50 {
            std::thread::scope(|scope| {
                for _ in 0..writers {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.store(key, &records).expect("every store commits");
                    });
                }
            });
            assert_eq!(cache.load(key), Some(records.clone()));
        }
        let files = fs::read_dir(&dir).expect("read cache dir").count();
        assert_eq!(files, 1, "one entry and no stray temp files");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nonfinite_metrics_survive_the_disk() {
        let dir = temp_dir("nonfinite");
        let cache = ResultCache::open(&dir).expect("open");
        let key = "{\"cell\":\"nf\"}";
        let records = vec![
            TrialRecord {
                verdict: Verdict {
                    success: false,
                    metric: f64::NEG_INFINITY,
                },
                flops: 1,
                faults: 1,
            },
            TrialRecord {
                verdict: Verdict {
                    success: false,
                    metric: f64::NAN,
                },
                flops: 2,
                faults: 2,
            },
        ];
        cache.store(key, &records).expect("store");
        let loaded = cache.load(key).expect("hit");
        assert_eq!(loaded[0].verdict.metric, f64::NEG_INFINITY);
        assert!(loaded[1].verdict.metric.is_nan());
        assert!(!loaded[1].verdict.success);
        let _ = fs::remove_dir_all(&dir);
    }
}
