//! Metric collection, the per-layer numbers read off the wire phases and
//! `/stats`, and the printed reports.

use crate::pool::{Shape, Workload};
use crate::raw;
use crate::receipts::References;
use crate::servers::{Launch, Servers};
use crate::stats::{percentile, sorted};
use crate::wire::{run_phase, Conns, JobRecord, Load, Phase};
use std::path::PathBuf;

/// The run's metrics in print order: end-to-end, or per-layer when traced.
pub struct Metrics {
    traced: bool,
    e2e: Vec<(String, f64, &'static str)>,
    layers: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn new(traced: bool) -> Metrics {
        Metrics {
            traced,
            e2e: Vec::new(),
            layers: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push((name.to_string(), value, unit));
    }

    /// The last stdout line: the end-to-end metrics untraced, the per-layer
    /// metrics traced.
    pub fn result_line(
        &self,
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> Result<String, String> {
        let list = if self.traced { &self.layers } else { &self.e2e };
        let mut body = Vec::new();
        for (name, value, unit) in list {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }

    pub fn print(&self) {
        let list = if self.traced { &self.layers } else { &self.e2e };
        for (name, value, unit) in list {
            eprintln!("  {name:<36} {value:>14.4} {unit}");
        }
    }
}

fn pctl(v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    percentile(&sorted(v), q)
}

/// Per-phase accounting: sent, succeeded, failed, shed, samples, lag.
pub fn print_phase(name: &str, p: &Phase) {
    let lat = p.latencies_ms();
    eprintln!(
        "  phase {name:<9} sent {:>5} succeeded {:>5} failed {:>3} shed {:>3} unanswered {:>3} \
         mismatched {:>3} samples {:>5} p50 {:>9.3} ms p90 {:>9.3} ms send_lag.p99 {:.3} ms",
        p.jobs.len(),
        p.succeeded(),
        p.failed(),
        p.shed(),
        p.unanswered(),
        p.mismatches(),
        lat.len(),
        pctl(lat.clone(), 0.5),
        pctl(lat, 0.9),
        pctl(p.send_lag_ms.clone(), 0.99),
    );
    if let Some(e) = p.jobs.iter().find_map(|j| j.error.as_deref()) {
        eprintln!("    first error: {e}");
    }
}

fn residuals(jobs: &[JobRecord]) -> Vec<f64> {
    jobs.iter().filter_map(JobRecord::residual_ms).collect()
}

/// The router hop, for the traced run: residual p50 of the same jobs
/// through a router minus straight to one `detserved`. A group uses its own
/// router; a single server gets a router started in front of it for the
/// measurement. Consumes the client connections so no more than two are
/// ever open.
#[allow(clippy::too_many_arguments)]
pub fn router_hop(
    launch: &Launch,
    servers: &Servers,
    w: &Workload,
    seed: u64,
    seconds: f64,
    capacity: f64,
    refs: &References,
    conns: Conns,
) -> Result<f64, String> {
    drop(conns);
    let extra_router = match w.shape {
        Shape::Group => None,
        Shape::Single => Some(launch.spawn_router(&servers.backends)?),
    };
    let router = extra_router.as_ref().map_or(&servers.front, |r| &r.front);
    // One job per frame at half the low rate: one backend alone sustains
    // it, and no batch-mate adds head-of-line wait to either path.
    let rate = crate::LOW_SHARE / 2.0 * capacity;
    let plan = w.open_plan(seed, 20, rate, 0.05 * seconds, true);
    let batched = w.batch.is_some();
    let via_router = run_phase(&mut Conns::open(router, batched)?, Load::Open(&plan), refs)?;
    let direct = run_phase(
        &mut Conns::open(&servers.backends[0], batched)?,
        Load::Open(&plan),
        refs,
    )?;
    // Killed rather than shut down: a router forwards `shutdown` to its
    // backends, and the server still has `/stats` to answer.
    drop(extra_router);
    print_phase("routed", &via_router);
    print_phase("direct", &direct);
    if via_router.errors() + direct.errors() > 0 {
        return Err("jobs failed in the router-hop phases".into());
    }
    Ok(pctl(residuals(&via_router.jobs), 0.5) - pctl(residuals(&direct.jobs), 0.5))
}

/// Per-layer metrics read off the open-loop phases and `/stats`.
pub fn per_layer(
    m: &mut Metrics,
    open: &[&Phase],
    server_stats: &[String],
    front_stats: &str,
    hop_ms: f64,
) {
    let jobs: Vec<&JobRecord> = open.iter().flat_map(|p| &p.jobs).filter(|j| j.ok).collect();
    let queue: Vec<f64> = jobs.iter().map(|j| j.queue_us / 1e3).collect();
    let exec: Vec<f64> = jobs.iter().map(|j| j.exec_us / 1e3).collect();
    let resid: Vec<f64> = jobs.iter().filter_map(|j| j.residual_ms()).collect();
    m.layer("serve.queue.wait_ms.p50", pctl(queue.clone(), 0.5), "ms");
    m.layer("serve.queue.wait_ms.p90", pctl(queue, 0.9), "ms");
    m.layer("serve.shard.exec_ms.p50", pctl(exec.clone(), 0.5), "ms");
    m.layer("serve.shard.exec_ms.p90", pctl(exec, 0.9), "ms");
    m.layer("wire.residual_ms.p50", pctl(resid.clone(), 0.5), "ms");
    m.layer("wire.residual_ms.p90", pctl(resid, 0.9), "ms");

    let sum = |path: &[&str]| -> f64 {
        server_stats
            .iter()
            .map(|s| raw::num(s, path).unwrap_or(0.0))
            .sum()
    };
    let admitted = sum(&["counters", "accepted"]) + sum(&["counters", "rejected"]);
    m.layer(
        "serve.server.shed_frac",
        sum(&["counters", "shed_full"]) / admitted.max(1.0),
        "ratio",
    );
    m.layer(
        "serve.server.checkpoints_per_job",
        sum(&["recovery", "checkpoints_taken"]) / sum(&["counters", "completed"]).max(1.0),
        "count",
    );
    let hits = sum(&["instrumentation", "plan_cache_hits"]);
    let misses = sum(&["instrumentation", "plan_cache_misses"]);
    m.layer(
        "passes.cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );

    m.layer("serve.group.hop_ms.p50", hop_ms, "ms");
    // Share of routed jobs the busiest backend completed (1 for a single
    // server).
    let completed: Vec<f64> = raw::get(front_stats, "backends")
        .and_then(raw::items)
        .map(|rows| {
            rows.iter()
                .map(|r| raw::num(r, &["completed"]).unwrap_or(0.0))
                .collect()
        })
        .unwrap_or_default();
    let total: f64 = completed.iter().sum();
    let share = if total > 0.0 {
        completed.iter().cloned().fold(0.0, f64::max) / total
    } else {
        1.0
    };
    m.layer("serve.group.backend_share.max", share, "ratio");
    let lags: Vec<f64> = open
        .iter()
        .flat_map(|p| p.send_lag_ms.iter().copied())
        .collect();
    m.layer("bench.send_lag_ms.p99", pctl(lags, 0.99), "ms");
}

fn last_path(workload: &str) -> PathBuf {
    PathBuf::from(".bench_build").join(format!("perfbench-last-{workload}.txt"))
}

/// Keep the untraced end-to-end numbers for the next traced run's
/// overhead report.
pub fn save_untraced(workload: &str, m: &Metrics) {
    let text: String = m.e2e.iter().map(|(n, v, _)| format!("{n} {v}\n")).collect();
    let _ = std::fs::write(last_path(workload), text);
}

/// Tracing overhead: this traced run's end-to-end numbers beside the last
/// untraced run of the same workload.
pub fn print_overhead(workload: &str, m: &Metrics) {
    let last = std::fs::read_to_string(last_path(workload)).unwrap_or_default();
    eprintln!("  tracing overhead (traced vs last untraced run of {workload}):");
    for (name, value, unit) in &m.e2e {
        let before = last
            .lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.parse::<f64>().ok());
        match before {
            Some(b) => eprintln!(
                "    {name:<16} traced {value:>12.4} untraced {b:>12.4} {unit} ({:+.1}%)",
                (value - b) / b * 100.0
            ),
            None => {
                eprintln!("    {name:<16} traced {value:>12.4} {unit} (no untraced run recorded)")
            }
        }
    }
}
