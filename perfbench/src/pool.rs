//! The three workloads: their job pools, server shapes, fixed rates, and
//! the seeded job streams and arrival schedules drawn from them.
//!
//! The workload seed picks arrivals, job order and job choice. Jitter
//! seeds come from [`SEED_POOL`], so every job the benchmark can send has
//! an identity key in the committed reference-receipt set.

/// Jitter seeds a job may carry. Fixed: the reference receipts cover
/// exactly these.
pub const SEED_POOL: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the phases of
    /// one run draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One job as sent on the wire. Everything here is part of the identity
/// key except the tenant, which the benchmark never varies.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub workload: &'static str,
    pub threads: usize,
    pub scale: f64,
    pub seed: u64,
    pub opt: &'static str,
    pub scheduler: &'static str,
}

impl Job {
    /// The server's identity key for this job, spelled out independently
    /// of `JobSpec::identity_key` so the oracle does not trust the code it
    /// checks.
    pub fn key(&self) -> String {
        format!(
            "{}/t{}/s{}/seed{}/{}/{}",
            self.workload,
            self.threads,
            self.scale.to_bits(),
            self.seed,
            self.opt,
            self.scheduler
        )
    }

    /// The compile configuration (everything but the jitter seed).
    pub fn config(&self) -> Job {
        Job {
            seed: SEED_POOL[0],
            ..self.clone()
        }
    }

    /// The v1 `run` body (also one element of a v2 `batch`).
    pub fn body(&self) -> String {
        format!(
            "{{\"op\":\"run\",\"tenant\":\"bench\",\"workload\":\"{}\",\"threads\":{},\"scale\":{:?},\"seed\":{},\"opt\":\"{}\",\"scheduler\":\"{}\"}}",
            self.workload, self.threads, self.scale, self.seed, self.opt, self.scheduler
        )
    }
}

/// How the servers of a workload are laid out.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// One `detserved --shards 2`.
    Single,
    /// `detserved --route` in front of two `detserved --shards 1`.
    Group,
}

/// A named workload: what it sends, to what, and at which rates.
pub struct Workload {
    pub shape: Shape,
    /// Distinct compile configurations, one job each (seed = pool head).
    pub configs: Vec<Job>,
    /// Jobs of each config per block of the stream.
    pub weights: Vec<usize>,
    /// Jobs per v2 `batch` frame, drawn uniformly from this range; `None`
    /// sends v1 `run` lines.
    pub batch: Option<(usize, usize)>,
    /// Share of jobs that repeat their config's hot key (seed = pool head).
    pub hot_share: f64,
    /// Latency limit on p90 for `slo_qps`, milliseconds.
    pub p90_limit_ms: f64,
    /// Frames in flight per connection in the closed-loop phase (the two
    /// connections together stay below the admission queue bound).
    pub depth: usize,
}

pub const NAMES: [&str; 3] = ["steady-mix", "contended-policies", "small-batch-group"];

const SPLASH: [&str; 5] = ["ocean", "raytrace", "water-nsq", "radiosity", "volrend"];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let job = |workload, threads, scale, opt, scheduler| Job {
            workload,
            threads,
            scale,
            seed: SEED_POOL[0],
            opt,
            scheduler,
        };
        Some(match name {
            // Warm VM dispatch, checkpointing and the admission queue.
            "steady-mix" => Workload {
                shape: Shape::Single,
                configs: SPLASH
                    .iter()
                    .flat_map(|w| ["none", "all"].map(|o| job(w, 4, 0.02, o, "kendo")))
                    .collect(),
                // radiosity/none twice: with ten equal weights the median
                // would sit on the edge between two exec-time clusters and
                // jump between them from run to run.
                weights: vec![1, 1, 1, 1, 1, 1, 2, 1, 1, 1],
                batch: None,
                hot_share: 0.0,
                p90_limit_ms: 300.0,
                depth: 8,
            },
            // Deterministic arbitration: the highest lock rates under all
            // three policies.
            "contended-policies" => Workload {
                shape: Shape::Single,
                configs: ["radiosity", "water-nsq", "raytrace"]
                    .iter()
                    .flat_map(|w| ["kendo", "chunk", "dc-batch"].map(|s| job(w, 4, 0.02, "all", s)))
                    .collect(),
                // radiosity three times per policy: with equal weights a
                // third of the jobs are 70-80 ms water-nsq runs, and at the
                // high rate the median job sat on the edge between waiting
                // behind one of them and not, jumping from run to run.
                weights: vec![3, 3, 3, 1, 1, 1, 1, 1, 1],
                batch: None,
                hot_share: 0.0,
                p90_limit_ms: 300.0,
                depth: 8,
            },
            // Per-job fixed costs: framing, JSON, router hop, batch replies.
            "small-batch-group" => Workload {
                shape: Shape::Group,
                configs: ["ocean", "volrend", "raytrace"]
                    .iter()
                    .map(|w| job(w, 1, 0.01, "all", "kendo"))
                    .collect(),
                // Blocks of six, so exactly half of each is hot.
                weights: vec![2; 3],
                batch: Some((2, 4)),
                hot_share: 0.5,
                p90_limit_ms: 150.0,
                depth: 8,
            },
            _ => return None,
        })
    }

    /// Every identity key this workload can send.
    pub fn pool(&self) -> Vec<Job> {
        self.configs
            .iter()
            .flat_map(|c| SEED_POOL.map(|seed| Job { seed, ..c.clone() }))
            .collect()
    }

    /// `n` jobs in seeded order. Configs come in shuffled blocks, so every
    /// window of the stream carries the same mix whatever the seed; in each
    /// block a `hot_share` of the jobs keep the hot key's seed, the others
    /// draw theirs uniformly from the pool.
    pub fn jobs(&self, rng: &mut Rng, n: usize) -> Vec<Job> {
        let mut out = Vec::with_capacity(n);
        let template: Vec<Job> = self
            .configs
            .iter()
            .zip(&self.weights)
            .flat_map(|(c, &k)| std::iter::repeat_n(c.clone(), k))
            .collect();
        while out.len() < n {
            let mut block = template.clone();
            rng.shuffle(&mut block);
            // Exactly the hot share of each block keeps the hot key.
            let n_hot = (self.hot_share * block.len() as f64).round() as usize;
            let mut hot: Vec<bool> = (0..block.len()).map(|i| i < n_hot).collect();
            rng.shuffle(&mut hot);
            for (mut job, hot) in block.into_iter().zip(hot) {
                if !hot {
                    job.seed = SEED_POOL[rng.below(SEED_POOL.len())];
                }
                out.push(job);
            }
        }
        out.truncate(n);
        out
    }

    /// Cut a job stream into frames (one job each for v1 workloads). Batch
    /// widths come in shuffled blocks holding each width once.
    pub fn frames(&self, rng: &mut Rng, jobs: Vec<Job>) -> Vec<Vec<Job>> {
        let (lo, hi) = self.batch.unwrap_or((1, 1));
        let mut widths = Vec::new();
        let mut frames = Vec::new();
        let mut it = jobs.into_iter().peekable();
        while it.peek().is_some() {
            if widths.is_empty() {
                widths = (lo..=hi).collect();
                rng.shuffle(&mut widths);
            }
            let width = widths.pop().expect("refilled above");
            frames.push(it.by_ref().take(width).collect());
        }
        frames
    }

    /// Mean jobs per frame.
    pub fn mean_width(&self) -> f64 {
        match self.batch {
            None => 1.0,
            Some((lo, hi)) => (lo + hi) as f64 / 2.0,
        }
    }

    /// A seeded open-loop plan at `rate` jobs/s over `seconds`: Poisson
    /// arrivals conditioned on their count (that many frames at sorted
    /// uniform offsets), so every seed sends the same number of jobs.
    /// `single` puts one job in every frame whatever the workload batches.
    pub fn open_plan(
        &self,
        seed: u64,
        stream: u64,
        rate: f64,
        seconds: f64,
        single: bool,
    ) -> Vec<Frame> {
        let mut rng = Rng::new(seed, stream);
        let width = if single { 1.0 } else { self.mean_width() };
        let n_frames = (rate * seconds / width).round() as usize;
        let mut offsets: Vec<f64> = (0..n_frames).map(|_| rng.unit() * seconds).collect();
        offsets.sort_by(f64::total_cmp);
        let max_width = match self.batch {
            Some((_, hi)) if !single => hi,
            _ => 1,
        };
        let jobs = self.jobs(&mut rng, n_frames * max_width);
        let frames = if single {
            jobs.into_iter().map(|j| vec![j]).collect()
        } else {
            self.frames(&mut rng, jobs)
        };
        offsets
            .into_iter()
            .zip(frames)
            .map(|(due_s, jobs)| Frame { due_s, jobs })
            .collect()
    }
}

/// One wire frame (a v1 `run` line or a v2 `batch`) and its due offset.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    pub due_s: f64,
    pub jobs: Vec<Job>,
}

impl Frame {
    pub fn line(&self, batched: bool) -> String {
        let mut line = if batched {
            let bodies: Vec<String> = self.jobs.iter().map(Job::body).collect();
            format!("{{\"op\":\"batch\",\"jobs\":[{}]}}", bodies.join(","))
        } else {
            self.jobs[0].body()
        };
        line.push('\n');
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(plan: &[Frame]) -> String {
        plan.iter()
            .map(|f| format!("{:.9} {}", f.due_s, f.line(true)))
            .collect()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream_and_schedule() {
        for name in NAMES {
            let w = Workload::by_name(name).unwrap();
            let a = w.open_plan(7, 1, 50.0, 3.0, false);
            let b = w.open_plan(7, 1, 50.0, 3.0, false);
            assert_eq!(bytes(&a), bytes(&b), "{name}");
            let mut ra = Rng::new(7, 3);
            let mut rb = Rng::new(7, 3);
            assert_eq!(w.jobs(&mut ra, 200), w.jobs(&mut rb, 200));
        }
    }

    #[test]
    fn new_seed_changes_arrivals_but_stays_in_the_pool() {
        for name in NAMES {
            let w = Workload::by_name(name).unwrap();
            let pool: Vec<String> = w.pool().iter().map(Job::key).collect();
            let a = w.open_plan(7, 1, 50.0, 3.0, false);
            let b = w.open_plan(8, 1, 50.0, 3.0, false);
            assert_ne!(a[0].due_s, b[0].due_s, "{name}");
            for f in a.iter().chain(&b) {
                for j in &f.jobs {
                    assert!(pool.contains(&j.key()), "{name}: {} not in pool", j.key());
                }
            }
        }
    }

    #[test]
    fn every_block_of_the_stream_carries_the_weighted_mix() {
        for name in NAMES {
            let w = Workload::by_name(name).unwrap();
            assert_eq!(w.weights.len(), w.configs.len());
            let block: usize = w.weights.iter().sum();
            let jobs = w.jobs(&mut Rng::new(3, 0), 10 * block);
            for chunk in jobs.chunks(block) {
                for (c, &k) in w.configs.iter().zip(&w.weights) {
                    assert_eq!(chunk.iter().filter(|j| j.config() == *c).count(), k);
                }
            }
        }
    }

    #[test]
    fn arrivals_match_the_rate_and_look_poisson() {
        let w = Workload::by_name("steady-mix").unwrap();
        let plan = w.open_plan(11, 0, 40.0, 100.0, false);
        assert_eq!(plan.len(), 4000);
        assert!(plan.windows(2).all(|p| p[0].due_s <= p[1].due_s));
        // Exponential gaps: mean 1/rate, coefficient of variation near 1.
        let gaps: Vec<f64> = plan.windows(2).map(|p| p[1].due_s - p[0].due_s).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean * 40.0 - 1.0).abs() < 0.02, "mean gap {mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.1,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn bodies_parse_back_to_the_same_identity_key() {
        use detlock_shim::json::Json;
        for name in NAMES {
            let w = Workload::by_name(name).unwrap();
            for job in w.pool() {
                let spec =
                    detlock_serve::JobSpec::from_json(&Json::parse(&job.body()).unwrap()).unwrap();
                assert_eq!(spec.identity_key(), job.key());
            }
        }
    }
}
