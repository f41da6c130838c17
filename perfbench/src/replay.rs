//! The in-process replay of the traced run: the same seeded job stream,
//! timed call by call through each module's public functions, plus exact
//! `RunMetrics` counts and the layer-closure check.
//!
//! Spans are taken here, around the calls into each layer; nothing inside
//! the program is instrumented.

use crate::pool::{Job, Workload, SEED_POOL};
use crate::report::Metrics;
use crate::stats::{mean, percentile, sorted};
use crate::wire::Phase;
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{instrument, instrument_with, CompileOpts, Instrumented, OptConfig};
use detlock_passes::plan::Placement;
use detlock_serve::group::HashRing;
use detlock_serve::protocol::{opt_from_str, parse_batch};
use detlock_serve::queue::AdmissionQueue;
use detlock_serve::shard::{ExecOpts, ExecOutcome, ShardEngine};
use detlock_serve::{JobSpec, Receipt};
use detlock_shim::json::{Json, ToJson};
use detlock_vm::machine::{
    CkptControl, ExecMode, Jitter, Machine, MachineConfig, RunOutcome, ThreadSpec,
};
use detlock_vm::{RunMetrics, Sched};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The server's defaults the replay mirrors.
const CHECKPOINT_EVERY: u64 = 200_000;
const CYCLE_BUDGET: u64 = 60_000_000_000;
const QUEUE_CAPACITY: usize = 64;
const RING_VNODES: usize = 32;

/// In-process `execute` mean vs the server-reported exec mean of the same
/// jobs: allowed relative difference (the servers share two cores with the
/// generator, the replay runs alone).
pub const EXEC_TOLERANCE: f64 = 0.35;
/// Sum of the parts vs the in-process `execute` mean: allowed relative
/// remainder.
pub const SUM_TOLERANCE: f64 = 0.10;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

struct Compiled {
    inst: Instrumented,
    specs: Vec<ThreadSpec>,
    mem_words: usize,
}

fn machine_config(c: &Compiled, mode: ExecMode, seed: u64, scheduler: Sched) -> MachineConfig {
    MachineConfig {
        mode,
        mem_words: c.mem_words,
        jitter: Jitter::default().with_seed(seed),
        max_cycles: CYCLE_BUDGET,
        scheduler,
        ..MachineConfig::default()
    }
}

fn finished(outcome: RunOutcome) -> Result<RunMetrics, String> {
    match outcome {
        RunOutcome::Finished {
            metrics,
            hit_limit: false,
            ..
        } => Ok(metrics),
        _ => Err("replay run did not finish".into()),
    }
}

fn spec_of(job: &Job) -> Result<JobSpec, String> {
    JobSpec::from_json(&Json::parse(&job.body()).map_err(|e| e.to_string())?)
}

/// Everything the replay measured.
#[derive(Default)]
pub struct Replay {
    build_ms: Vec<f64>,
    compile_ms: Vec<f64>,
    pass_ms: BTreeMap<&'static str, f64>,
    lower_ms: Vec<f64>,
    lookup_us: Vec<f64>,
    parse_us: Vec<f64>,
    decode_us: Vec<f64>,
    encode_us: Vec<f64>,
    receipt_us: Vec<f64>,
    push_pop_us: f64,
    route_ns: f64,
    run_ms: Vec<f64>,
    ckpt_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    server_exec_ms: Vec<f64>,
    instructions_run: u64,
    counts: RunTotals,
    configs: usize,
}

#[derive(Default)]
struct RunTotals {
    instructions: u64,
    cycles: u64,
    lock_acquires: u64,
    clock_bumps: u64,
    ticks: u64,
    wait: u64,
    busy: u64,
    base_cycles: u64,
    clocks_cycles: u64,
}

/// Replay `w` in-process: every distinct config once (build, compile,
/// lowering, exact counts), then the jobs of the `low` wire phase in their
/// seeded order until `budget_s` is spent.
pub fn run(w: &Workload, budget_s: f64, low: &Phase) -> Result<Replay, String> {
    let started = Instant::now();
    let cost = CostModel::default();
    let mut r = Replay::default();
    let mut compiled: BTreeMap<String, Compiled> = BTreeMap::new();
    for c in &w.configs {
        let opt = opt_from_str(c.opt).ok_or("unknown opt")?;
        let sched = Sched::parse(c.scheduler)?;
        let t = Instant::now();
        let wl =
            detlock_workloads::by_name(c.workload, c.threads, c.scale).ok_or("unknown workload")?;
        r.build_ms.push(us(t) / 1e3);
        let t = Instant::now();
        let inst = instrument(
            &wl.module,
            &cost,
            &OptConfig::only(opt),
            Placement::Start,
            &wl.entries,
        );
        r.compile_ms.push(us(t) / 1e3);
        for p in &inst.stats.per_pass {
            *r.pass_ms.entry(p.name).or_default() += p.wall_ns as f64 / 1e6;
        }
        let t = Instant::now();
        black_box(detlock_vm::lower::lower(&inst.module, &cost));
        r.lower_ms.push(us(t) / 1e3);
        let cached = CompileOpts::serial().cached();
        black_box(instrument_with(
            &wl.module,
            &cost,
            &OptConfig::only(opt),
            Placement::Start,
            &wl.entries,
            cached,
        ));
        let t = Instant::now();
        black_box(instrument_with(
            &wl.module,
            &cost,
            &OptConfig::only(opt),
            Placement::Start,
            &wl.entries,
            cached,
        ));
        r.lookup_us.push(us(t));

        let specs: Vec<ThreadSpec> = wl
            .threads
            .iter()
            .map(|t| ThreadSpec {
                func: t.func,
                args: t.args.clone(),
            })
            .collect();
        let comp = Compiled {
            inst,
            specs,
            mem_words: wl.mem_words,
        };
        // Exact counts: one run per config at the pool's first seed, in the
        // three Table I modes.
        let seed = SEED_POOL[0];
        let (det, _) = Machine::new(
            &comp.inst.module,
            &cost,
            &comp.specs,
            machine_config(&comp, ExecMode::Det, seed, sched),
        )
        .run();
        let (clk, _) = Machine::new(
            &comp.inst.module,
            &cost,
            &comp.specs,
            machine_config(&comp, ExecMode::ClocksOnly, seed, sched),
        )
        .run();
        let (base, _) = Machine::new(
            &wl.module,
            &cost,
            &comp.specs,
            machine_config(&comp, ExecMode::Baseline, seed, sched),
        )
        .run();
        let k = &mut r.counts;
        k.instructions += det.instructions();
        k.cycles += det.cycles;
        k.lock_acquires += det.lock_acquires();
        k.clock_bumps += det
            .per_thread
            .iter()
            .map(|t| t.lock_clock_bumps)
            .sum::<u64>();
        k.ticks += det.ticks_executed();
        k.wait += det.wait_cycles();
        k.busy += det.per_thread.iter().map(|t| t.busy_cycles).sum::<u64>();
        k.base_cycles += base.cycles;
        k.clocks_cycles += clk.cycles;
        compiled.insert(c.key(), comp);
        r.configs += 1;
    }

    // Protocol-layer spans over the frames of the low phase, as sent.
    let mut frames: Vec<Vec<&crate::wire::JobRecord>> = Vec::new();
    for rec in &low.jobs {
        match frames.last_mut() {
            Some(f) if f[0].sent == rec.sent && w.batch.is_some() => f.push(rec),
            _ => frames.push(vec![rec]),
        }
    }
    for f in &frames {
        let jobs: Vec<Job> = f.iter().map(|r| r.job.clone()).collect();
        let line = crate::pool::Frame { due_s: 0.0, jobs }.line(w.batch.is_some());
        let t = Instant::now();
        let v = Json::parse(line.trim_end()).map_err(|e| e.to_string())?;
        r.parse_us.push(us(t) / f.len() as f64);
        let t = Instant::now();
        let specs = if w.batch.is_some() {
            parse_batch(&v)?
        } else {
            vec![JobSpec::from_json(&v)?]
        };
        r.decode_us.push(us(t) / f.len() as f64);
        black_box(specs);
    }

    let queue: AdmissionQueue<JobSpec> = AdmissionQueue::new(QUEUE_CAPACITY);
    let probe_spec = spec_of(&w.configs[0])?;
    const REPS: usize = 10_000;
    let t = Instant::now();
    for _ in 0..REPS {
        queue
            .try_push(probe_spec.clone())
            .map_err(|_| "queue refused")?;
        black_box(queue.pop());
    }
    r.push_pop_us = us(t) / REPS as f64;
    let ring = HashRing::new(
        &["backend0".to_string(), "backend1".to_string()],
        RING_VNODES,
    );
    let keys: Vec<String> = w.pool().iter().map(Job::key).collect();
    let t = Instant::now();
    for i in 0..REPS {
        black_box(ring.route(&keys[i % keys.len()]));
    }
    r.route_ns = us(t) * 1e3 / REPS as f64;

    // Execution spans, job by job, until the budget is spent.
    let mut engine = ShardEngine::new(0);
    for c in &w.configs {
        engine
            .execute(&spec_of(c)?, CYCLE_BUDGET)
            .map_err(|e| e.to_string())?;
    }
    for rec in low.jobs.iter().filter(|j| j.ok) {
        if started.elapsed().as_secs_f64() > budget_s && r.execute_ms.len() >= 3 {
            break;
        }
        let spec = spec_of(&rec.job)?;
        let comp = &compiled[&rec.job.config().key()];
        let cfg = machine_config(comp, ExecMode::Det, spec.seed, spec.scheduler);

        let t = Instant::now();
        let (metrics, _) = Machine::new(&comp.inst.module, &cost, &comp.specs, cfg.clone()).run();
        let run_us = us(t);
        r.instructions_run += metrics.instructions();

        let t = Instant::now();
        let mut latest = None;
        let outcome = Machine::new(&comp.inst.module, &cost, &comp.specs, cfg)
            .run_with_checkpoints(CHECKPOINT_EVERY, &mut |ck| {
                latest = Some(ck.clone());
                CkptControl::Continue
            });
        let ckpt_us = us(t);
        black_box(latest);
        let metrics = finished(outcome)?;

        let t = Instant::now();
        let receipt = Receipt::from_metrics(&spec, &metrics);
        black_box(receipt.canonical());
        r.receipt_us.push(us(t));

        let t = Instant::now();
        let resp = Json::obj([
            ("ok", true.to_json()),
            ("shard", 0u64.to_json()),
            ("attempts", 0u64.to_json()),
            ("queue_us", (rec.queue_us as u64).to_json()),
            ("exec_us", (rec.exec_us as u64).to_json()),
            ("receipt", receipt.to_json()),
        ]);
        black_box(resp.to_string_compact());
        r.encode_us.push(us(t));

        let t = Instant::now();
        let opts = ExecOpts {
            checkpoint_every: CHECKPOINT_EVERY,
            ..ExecOpts::default()
        };
        let done = matches!(
            engine.execute_resumable(&spec, CYCLE_BUDGET, opts),
            ExecOutcome::Done { .. }
        );
        let exec_us = us(t);
        if !done {
            return Err(format!("{}: in-process execute did not finish", rec.key));
        }
        r.run_ms.push(run_us / 1e3);
        r.ckpt_ms.push((ckpt_us - run_us) / 1e3);
        r.execute_ms.push(exec_us / 1e3);
        r.server_exec_ms.push(rec.exec_us / 1e3);
    }
    eprintln!(
        "  replay: {} configs, {} jobs in {:.2} s",
        r.configs,
        r.execute_ms.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(r)
}

impl Replay {
    /// Add the replay's per-layer metrics and print the closure checks.
    /// A closure outside its tolerance is reported, not fatal: it says the
    /// layer model misses something, not that the program is wrong.
    pub fn report(&self, m: &mut Metrics) {
        let p50 = |v: &[f64]| percentile(&sorted(v.to_vec()), 0.5);
        m.layer("shim.json.parse_us", mean(&self.parse_us), "us");
        m.layer("serve.protocol.decode_us", mean(&self.decode_us), "us");
        m.layer("serve.protocol.encode_us", mean(&self.encode_us), "us");
        m.layer("serve.receipt.build_us", mean(&self.receipt_us), "us");
        m.layer("serve.queue.push_pop_us", self.push_pop_us, "us");
        m.layer("workloads.build_ms", mean(&self.build_ms), "ms");
        m.layer("passes.compile_ms", mean(&self.compile_ms), "ms");
        for name in detlock_passes_names() {
            let v = self.pass_ms.get(name).copied().unwrap_or(0.0) / self.configs.max(1) as f64;
            m.layer(&format!("passes.{name}.ms"), v, "ms");
        }
        m.layer("vm.lower_ms", mean(&self.lower_ms), "ms");
        m.layer("passes.cache.lookup_us", mean(&self.lookup_us), "us");
        m.layer("vm.run_ms.p50", p50(&self.run_ms), "ms");
        m.layer("vm.ckpt_ms.p50", p50(&self.ckpt_ms), "ms");
        let run_us: f64 = self.run_ms.iter().sum::<f64>() * 1e3;
        m.layer(
            "vm.ops_per_us",
            self.instructions_run as f64 / run_us,
            "1/us",
        );
        m.layer("serve.shard.execute_ms.p50", p50(&self.execute_ms), "ms");
        m.layer("serve.group.route_ns", self.route_ns, "ns");
        let k = &self.counts;
        m.layer("vm.instructions", k.instructions as f64, "count");
        m.layer("vm.sim_cycles", k.cycles as f64, "count");
        m.layer("vm.lock_acquires", k.lock_acquires as f64, "count");
        m.layer("vm.clock_bumps", k.clock_bumps as f64, "count");
        m.layer("vm.ticks", k.ticks as f64, "count");
        m.layer(
            "vm.det_wait_share",
            k.wait as f64 / (k.wait + k.busy).max(1) as f64,
            "ratio",
        );
        let pct = |x: u64| (x as f64 - k.base_cycles as f64) / k.base_cycles as f64 * 100.0;
        m.layer("vm.clock_overhead_pct", pct(k.clocks_cycles), "%");
        m.layer("vm.det_overhead_pct", pct(k.cycles), "%");

        // Closure: the server's exec time is the in-process execute time,
        // and execute is the sum of its parts.
        let execute = mean(&self.execute_ms);
        let server = mean(&self.server_exec_ms);
        let exec_ratio = server / execute;
        let parts = mean(&self.lookup_us) / 1e3
            + mean(&self.run_ms)
            + mean(&self.ckpt_ms)
            + mean(&self.receipt_us) / 1e3;
        let remainder = (execute - parts) / execute;
        m.layer("bench.closure.exec_ratio", exec_ratio, "ratio");
        m.layer("bench.closure.remainder_pct", remainder * 100.0, "%");
        let exec_ok = (exec_ratio - 1.0).abs() <= EXEC_TOLERANCE;
        let sum_ok = remainder.abs() <= SUM_TOLERANCE;
        eprintln!(
            "  closure: server exec mean {server:.3} ms vs in-process execute mean {execute:.3} ms \
             (ratio {exec_ratio:.3}, tolerance +-{EXEC_TOLERANCE}) {}",
            if exec_ok { "PASS" } else { "FAIL" }
        );
        eprintln!(
            "  closure: lookup {:.4} + run {:.3} + ckpt {:.3} + receipt {:.4} = {parts:.3} ms vs execute \
             {execute:.3} ms; unexplained remainder {:.2}% (tolerance +-{}%) {}",
            mean(&self.lookup_us) / 1e3,
            mean(&self.run_ms),
            mean(&self.ckpt_ms),
            mean(&self.receipt_us) / 1e3,
            remainder * 100.0,
            SUM_TOLERANCE * 100.0,
            if sum_ok { "PASS" } else { "FAIL" }
        );
    }
}

/// The eight registered pipeline passes, in pipeline order.
fn detlock_passes_names() -> [&'static str; 8] {
    use detlock_passes::pass::*;
    [
        PASS_O1,
        PASS_SPLIT,
        PASS_BASE_PLAN,
        PASS_O2A,
        PASS_O2B,
        PASS_O3,
        PASS_O4,
        PASS_MATERIALIZE,
    ]
}
