//! `perfbench`: the repository benchmark. Drives the shipped `detserved`
//! binaries over the wire with a seeded open-loop load, checks every
//! receipt against the committed references, and prints one JSON result
//! line. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --detserved PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--server-env KEY=VALUE]...
//! perfbench gen-receipts > perfbench/receipts.json
//! ```

mod pool;
mod raw;
mod receipts;
mod replay;
mod report;
mod servers;
mod stats;
mod wire;

use pool::{Frame, Rng, Shape, Workload};
use receipts::References;
use report::Metrics;
use servers::{Launch, Servers};
use stats::{median, percentile, sorted};
use std::path::PathBuf;
use std::time::Instant;
use wire::{run_phase, Conns, Load, Phase};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Interleaved rounds of the low, high and capacity phases.
const ROUNDS: usize = 5;
/// The two open-loop rates, as shares of the measured capacity.
pub const LOW_SHARE: f64 = 0.3;
pub const HIGH_SHARE: f64 = 0.5;
/// Probe rates for `slo_qps`, as shares of the measured capacity.
const PROBE_SHARES: [f64; 4] = [0.8, 0.9, 1.0, 1.1];
/// A run is invalid when the generator's p99 send lag exceeds this share
/// of the mean gap between frames.
const MAX_LAG_SHARE_OF_GAP: f64 = 1.0;

struct Args {
    detserved: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_env: Vec<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        detserved: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_env: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--detserved" => out.detserved = PathBuf::from(value()?),
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--server-env" => {
                let kv = value()?;
                let (k, v) = kv.split_once('=').ok_or("--server-env KEY=VALUE")?;
                out.server_env.push((k.to_string(), v.to_string()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !out.detserved.is_file() {
        return Err(format!(
            "--detserved {}: no such binary",
            out.detserved.display()
        ));
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gen-receipts") {
        print!("{}", receipts::generate());
        return;
    }
    // The in-process replay must see the same defaults the servers get.
    for (key, _) in std::env::vars() {
        if key.starts_with("DETLOCK_") {
            std::env::remove_var(key);
        }
    }
    let result = parse_args(&args).and_then(|a| run(&a));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// One set-up: spawn the servers, then complete every distinct config of
/// the pool once (workload build, cold compile, lowering).
fn setup(
    launch: &Launch,
    w: &Workload,
    refs: &References,
) -> Result<(Servers, f64, Phase), String> {
    let t0 = Instant::now();
    let servers = launch.spawn(w.shape)?;
    let mut conns = Conns::open(&servers.front, w.batch.is_some())?;
    // A group routes by identity key, so warm every key to reach both
    // backends; a single server shares compiles across its shards.
    let warm = match w.shape {
        Shape::Single => w.configs.clone(),
        Shape::Group => w.pool(),
    };
    let plan: Vec<Frame> = warm
        .into_iter()
        .map(|job| Frame {
            due_s: 0.0,
            jobs: vec![job],
        })
        .collect();
    let phase = run_phase(&mut conns, Load::Open(&plan), refs)?;
    Ok((servers, t0.elapsed().as_secs_f64(), phase))
}

fn open_phase(
    conns: &mut Conns,
    w: &Workload,
    seed: u64,
    stream: u64,
    rate: f64,
    seconds: f64,
    refs: &References,
) -> Result<Phase, String> {
    let plan = w.open_plan(seed, stream, rate, seconds, false);
    run_phase(conns, Load::Open(&plan), refs)
}

fn closed_phase(
    conns: &mut Conns,
    w: &Workload,
    seed: u64,
    stream: u64,
    seconds: f64,
    refs: &References,
) -> Result<Phase, String> {
    let mut rng = Rng::new(seed, stream);
    // More jobs than the phase can complete at any plausible rate.
    let jobs = w.jobs(&mut rng, (seconds * 1000.0) as usize + 64);
    let frames: Vec<Frame> = w
        .frames(&mut rng, jobs)
        .into_iter()
        .map(|jobs| Frame { due_s: 0.0, jobs })
        .collect();
    let load = Load::Closed {
        frames: &frames,
        depth: w.depth,
        seconds,
    };
    run_phase(conns, load, refs)
}

fn run(a: &Args) -> Result<String, String> {
    let w =
        Workload::by_name(&a.workload).ok_or_else(|| format!("unknown workload {}", a.workload))?;
    let refs = receipts::load(receipts::FILE)?;
    let dir = PathBuf::from(".bench_build").join(format!("perfbench-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let launch = Launch {
        bin: a.detserved.clone(),
        dir: dir.clone(),
        env: a.server_env.clone(),
    };
    let result = measure(a, &w, &refs, &launch);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Per-round figures. p90 and capacity are medians over rounds, so a burst
/// of host noise in one round does not move them. p50 is taken over all of
/// a rate's samples instead: a round holds only 50-150 jobs from a mix of
/// exec-time clusters, and its p50 jumped between clusters from round to
/// round (19-31 ms within one run), while a burst in one round barely moves
/// the p50 of the pooled samples.
#[derive(Default)]
struct Rounds {
    /// p90 latency of each round's low and high phase.
    low_p90: Vec<f64>,
    high_p90: Vec<f64>,
    /// Completions per second of each capacity phase.
    capacity: Vec<f64>,
}

/// Latency percentile `q` over every answered job of `p`, milliseconds.
fn lat(p: &Phase, q: f64) -> f64 {
    percentile(&sorted(p.latencies_ms()), q)
}

/// A point of the rate → latency curve: the larger of p90 over the whole
/// phase and over its last third (a growing backlog shows there first);
/// infinite when any job failed or was shed.
fn curve_point(p: &Phase) -> f64 {
    let lat = p.latencies_ms();
    if p.errors() > 0 || lat.len() < 3 {
        return f64::INFINITY;
    }
    let last_third = lat[lat.len() - lat.len() / 3..].to_vec();
    percentile(&sorted(lat), 0.9).max(percentile(&sorted(last_third), 0.9))
}

fn measure(a: &Args, w: &Workload, refs: &References, launch: &Launch) -> Result<String, String> {
    let s = a.seconds;
    let mut setups = Vec::new();
    let mut warm_phases = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let (servers, secs, phase) = setup(launch, w, refs)?;
        setups.push(secs);
        warm_phases.push(phase);
        if i + 1 < SETUPS {
            servers.shutdown();
        } else {
            live = Some(servers);
        }
    }
    let servers = live.expect("SETUPS > 0");
    let mut conns = Conns::open(&servers.front, w.batch.is_some())?;

    // Capacity first, then rounds of low, high and capacity phases, so a
    // slow stretch of the machine touches each of them alike. The open-loop
    // rates are fixed shares of the capacity measured so far in this run:
    // the host's speed drifts by up to 1.5x over minutes, and at a fixed
    // absolute rate that drift would be amplified by queueing.
    let cap_seconds = 0.15 * s / (ROUNDS + 1) as f64;
    let mut cap = closed_phase(&mut conns, w, a.seed, 3, cap_seconds, refs)?;
    let mut rounds = Rounds::default();
    rounds.capacity.push(cap.throughput());
    let (mut low, mut high) = (Phase::default(), Phase::default());
    let (mut low_rates, mut high_rates) = (Vec::new(), Vec::new());
    for r in 1..=ROUNDS as u64 {
        let capacity = median(&rounds.capacity);
        let share = s / ROUNDS as f64;
        low_rates.push(LOW_SHARE * capacity);
        high_rates.push(HIGH_SHARE * capacity);
        let l = open_phase(
            &mut conns,
            w,
            a.seed,
            10 * r + 1,
            LOW_SHARE * capacity,
            0.3 * share,
            refs,
        )?;
        rounds.low_p90.push(lat(&l, 0.9));
        low.absorb(l);
        let h = open_phase(
            &mut conns,
            w,
            a.seed,
            10 * r + 2,
            HIGH_SHARE * capacity,
            0.3 * share,
            refs,
        )?;
        rounds.high_p90.push(lat(&h, 0.9));
        high.absorb(h);
        let c = closed_phase(&mut conns, w, a.seed, 10 * r + 3, cap_seconds, refs)?;
        rounds.capacity.push(c.throughput());
        cap.absorb(c);
    }
    let capacity = median(&rounds.capacity);
    let (rate_low, rate_high) = (stats::mean(&low_rates), stats::mean(&high_rates));

    // slo_qps: the fixed-share points plus probes at higher shares of the
    // capacity, interpolated at the latency limit.
    let mut probes = Vec::new();
    if !a.trace {
        for (i, share) in PROBE_SHARES.iter().enumerate() {
            let rate = share * capacity;
            let seconds = 0.25 * s / PROBE_SHARES.len() as f64;
            let p = open_phase(&mut conns, w, a.seed, 100 + i as u64, rate, seconds, refs)?;
            probes.push((rate, p));
        }
    }
    let mut curve = vec![
        (rate_low, curve_point(&low)),
        (rate_high, curve_point(&high)),
    ];
    curve.extend(probes.iter().map(|(rate, p)| (*rate, curve_point(p))));
    for (rate, y) in &curve {
        eprintln!(
            "  curve {rate:8.2} jobs/s: p90 {y:9.3} ms (limit {} ms)",
            w.p90_limit_ms
        );
    }

    let hop_ms = if a.trace {
        Some(report::router_hop(
            launch, &servers, w, a.seed, s, capacity, refs, conns,
        )?)
    } else {
        drop(conns);
        None
    };
    let server_stats = servers.stats()?;
    let front_stats = servers.front_stats()?;
    servers.shutdown();

    for p in &warm_phases {
        report::print_phase("setup", p);
    }
    for (name, p) in [("low", &low), ("high", &high), ("capacity", &cap)] {
        report::print_phase(name, p);
    }
    for (_, p) in &probes {
        report::print_phase("probe", p);
    }

    // Validity: the generator must have sent on time.
    let mut valid = true;
    for (name, p, rate) in [("low", &low, rate_low), ("high", &high, rate_high)] {
        let gap_ms = 1e3 * w.mean_width() / rate;
        let lag = percentile(&sorted(p.send_lag_ms.clone()), 0.99);
        if lag > MAX_LAG_SHARE_OF_GAP * gap_ms {
            eprintln!(
                "INVALID: {name} phase p99 send lag {lag:.3} ms > {MAX_LAG_SHARE_OF_GAP} x {gap_ms:.3} ms mean gap"
            );
            valid = false;
        }
    }

    let counted = [&low, &high, &cap];
    let attempted: usize = counted.iter().map(|p| p.jobs.len()).sum();
    let errors: usize = counted.iter().map(|p| p.errors()).sum();
    let mismatches: usize = warm_phases
        .iter()
        .chain(counted)
        .map(Phase::mismatches)
        .sum::<usize>()
        + probes.iter().map(|(_, p)| p.mismatches()).sum::<usize>();
    let warm_failed: usize = warm_phases.iter().map(Phase::failed).sum();

    let mut m = Metrics::new(a.trace);
    m.e2e("p50_ms_low", lat(&low, 0.5), "ms");
    m.e2e("p90_ms_low", median(&rounds.low_p90), "ms");
    m.e2e("p50_ms_high", lat(&high, 0.5), "ms");
    m.e2e("p90_ms_high", median(&rounds.high_p90), "ms");
    m.e2e("capacity_jps", capacity, "1/s");
    if !a.trace {
        m.e2e(
            "slo_qps",
            stats::slo_from_curve(&curve, w.p90_limit_ms),
            "1/s",
        );
    }
    m.e2e(
        "success_ratio",
        (attempted - errors) as f64 / attempted as f64,
        "ratio",
    );
    m.e2e("setup_s", median(&setups), "s");
    eprintln!("  rates: low {rate_low:.2} jobs/s, high {rate_high:.2} jobs/s");
    for (name, p) in [("low", &low), ("high", &high)] {
        let part = |f: &dyn Fn(&wire::JobRecord) -> f64| {
            percentile(
                &sorted(p.jobs.iter().filter(|j| j.ok).map(f).collect()),
                0.5,
            )
        };
        eprintln!(
            "  {name}: p50 exec {:.3} ms, p50 queue {:.3} ms, p50 residual {:.3} ms",
            part(&|j| j.exec_us / 1e3),
            part(&|j| j.queue_us / 1e3),
            part(&|j| j.residual_ms().unwrap_or(0.0)),
        );
    }
    eprintln!(
        "  diagnostics: p99_ms_low {:.3} (n={}), p99_ms_high {:.3} (n={}), error_rate {:.6}, setups_s {:?}",
        lat(&low, 0.99),
        low.latencies_ms().len(),
        lat(&high, 0.99),
        high.latencies_ms().len(),
        errors as f64 / attempted as f64,
        setups,
    );

    if let Some(hop_ms) = hop_ms {
        report::per_layer(&mut m, &[&low, &high], &server_stats, &front_stats, hop_ms);
        replay::run(w, 0.2 * s, &low)?.report(&mut m);
        report::print_overhead(&a.workload, &m);
    } else {
        report::save_untraced(&a.workload, &m);
    }
    m.print();
    let correct = valid && mismatches == 0 && warm_failed == 0;
    m.result_line(correct, attempted, errors)
}
