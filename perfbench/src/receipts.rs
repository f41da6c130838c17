//! The receipt oracle: reference receipts for every identity key in the
//! three job pools, committed as `perfbench/receipts.json`.
//!
//! The file was generated once with `perfbench gen-receipts` (in-process
//! `ShardEngine` on the interpreter backend) and is only ever read by a
//! benchmark run, so the reference is never recomputed by the code under
//! test.

use crate::pool::{Workload, NAMES};
use crate::raw;
use std::collections::BTreeMap;

pub const FILE: &str = "perfbench/receipts.json";

/// identity key → canonical receipt text.
pub type References = BTreeMap<String, String>;

pub fn load(path: &str) -> Result<References, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let receipts = raw::get(&text, "receipts").ok_or("receipts.json: no `receipts` object")?;
    let mut out = References::new();
    for (key, value) in raw::fields(receipts).ok_or("receipts.json: malformed")? {
        out.insert(key, value.to_string());
    }
    Ok(out)
}

/// Regenerate the reference set: every pool key of every workload, run
/// in-process on the interpreter. The output is the committed file.
pub fn generate() -> String {
    use detlock_serve::shard::ShardEngine;
    use detlock_shim::json::Json;
    let mut engine = ShardEngine::new(0).with_backend(detlock_vm::Backend::Interp);
    let mut refs = References::new();
    for name in NAMES {
        let w = Workload::by_name(name).expect("known workload");
        for job in w.pool() {
            let spec = detlock_serve::JobSpec::from_json(
                &Json::parse(&job.body()).expect("job bodies are valid JSON"),
            )
            .expect("job bodies are valid specs");
            let started = std::time::Instant::now();
            let receipt = engine
                .execute(&spec, u64::MAX)
                .unwrap_or_else(|e| panic!("{}: {e}", job.key()));
            eprintln!(
                "{:>8.2} ms  {}",
                started.elapsed().as_secs_f64() * 1e3,
                job.key()
            );
            refs.insert(job.key(), receipt.canonical());
        }
    }
    let rows: Vec<String> = refs
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    format!("{{\n  \"receipts\": {{\n{}\n  }}\n}}\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pool_key_has_a_committed_reference() {
        let refs = load(concat!(env!("CARGO_MANIFEST_DIR"), "/receipts.json")).unwrap();
        for name in NAMES {
            for job in Workload::by_name(name).unwrap().pool() {
                let r = refs
                    .get(&job.key())
                    .unwrap_or_else(|| panic!("{}", job.key()));
                assert!(r.starts_with('{') && r.contains("\"trace_hash\""));
            }
        }
    }
}
