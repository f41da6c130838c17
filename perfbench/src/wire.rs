//! The load generator: one thread, two keep-alive connections, driven by
//! `ppoll(2)` so sends leave at their scheduled instant without a thread
//! per connection.
//!
//! Open-loop phases send each frame when it is due, whatever the server
//! is doing, and time every job from that due instant; a shed job is
//! resent but keeps its original due time, so a stall is charged to every
//! job it delays. The closed-loop phase keeps a fixed number of frames in
//! flight per connection and measures completions per second.

use crate::pool::{Frame, Job};
use crate::raw;
use crate::receipts::References;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Wait until one of `streams` is readable or `timeout` passes; returns
/// which are readable (or hung up).
fn wait_readable(streams: &[TcpStream], timeout: Duration) -> Vec<bool> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // pollfd structs laid out as the C ABI expects; `ts` outlives the call;
    // a null sigmask means "leave the signal mask alone".
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if n <= 0 {
        return vec![false; streams.len()];
    }
    fds.iter().map(|f| f.revents != 0).collect()
}

/// What became of one job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub job: Job,
    pub key: String,
    /// Seconds from phase start: when it was due, first sent, answered.
    pub due: f64,
    pub sent: f64,
    pub done: Option<f64>,
    pub ok: bool,
    pub receipt_ok: bool,
    /// Times the server refused it with a typed shed.
    pub sheds: u32,
    pub error: Option<String>,
    pub queue_us: f64,
    pub exec_us: f64,
}

impl JobRecord {
    /// Latency from the due instant, milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| (d - self.due) * 1e3)
    }

    /// Client time from the last send minus server queue and exec time:
    /// event loop, framing, socket, router hop and head-of-line wait.
    pub fn residual_ms(&self) -> Option<f64> {
        self.done
            .map(|d| (d - self.sent) * 1e3 - (self.queue_us + self.exec_us) / 1e3)
    }
}

/// Everything one phase produced.
#[derive(Default)]
pub struct Phase {
    pub jobs: Vec<JobRecord>,
    /// Lateness of every send, milliseconds.
    pub send_lag_ms: Vec<f64>,
    /// Wall seconds the phase sent for.
    pub seconds: f64,
    /// Jobs answered inside the sending window.
    pub completed_in_window: usize,
}

impl Phase {
    /// Pool another segment of the same phase into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.jobs.extend(other.jobs);
        self.send_lag_ms.extend(other.send_lag_ms);
        self.seconds += other.seconds;
        self.completed_in_window += other.completed_in_window;
    }

    pub fn succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.ok && j.receipt_ok).count()
    }
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.succeeded()
    }
    pub fn shed(&self) -> usize {
        self.jobs.iter().filter(|j| j.sheds > 0).count()
    }
    pub fn unanswered(&self) -> usize {
        self.jobs.iter().filter(|j| j.done.is_none()).count()
    }
    pub fn mismatches(&self) -> usize {
        self.jobs.iter().filter(|j| j.ok && !j.receipt_ok).count()
    }
    /// Jobs that failed, were shed, went unanswered or mismatched.
    pub fn errors(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| !(j.ok && j.receipt_ok) || j.sheds > 0)
            .count()
    }
    /// Completions per second inside the sending window.
    pub fn throughput(&self) -> f64 {
        self.completed_in_window as f64 / self.seconds
    }

    /// Latencies of answered jobs, in due order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.jobs.iter().filter_map(JobRecord::latency_ms).collect()
    }
}

/// A frame on the wire awaiting its response line.
struct Pending {
    jobs: Vec<usize>,
    batched: bool,
}

pub struct Conns {
    streams: Vec<TcpStream>,
    bufs: Vec<Vec<u8>>,
    batched: bool,
}

impl Conns {
    /// Open the two keep-alive connections; v2 workloads negotiate with
    /// `hello` first.
    pub fn open(addr: &str, batched: bool) -> Result<Conns, String> {
        let mut streams = Vec::new();
        for _ in 0..2 {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            streams.push(s);
        }
        let mut conns = Conns {
            bufs: vec![Vec::new(); streams.len()],
            streams,
            batched,
        };
        if batched {
            for i in 0..conns.streams.len() {
                conns.send(i, "{\"op\":\"hello\",\"max_version\":2}\n")?;
                let line = conns.read_line_blocking(i)?;
                if raw::get(&line, "version") != Some("2") {
                    return Err(format!("hello not answered with v2: {line}"));
                }
            }
        }
        Ok(conns)
    }

    fn send(&mut self, conn: usize, line: &str) -> Result<(), String> {
        self.streams[conn]
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn read_line_blocking(&mut self, conn: usize) -> Result<String, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(line) = self.take_line(conn) {
                return Ok(line);
            }
            if Instant::now() > deadline {
                return Err("no response within 30 s".into());
            }
            self.fill(conn)?;
        }
    }

    fn take_line(&mut self, conn: usize) -> Option<String> {
        let buf = &mut self.bufs[conn];
        let nl = buf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = buf.drain(..=nl).collect();
        Some(String::from_utf8_lossy(&line[..nl]).into_owned())
    }

    fn fill(&mut self, conn: usize) -> Result<(), String> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.streams[conn]
            .read(&mut chunk)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        self.bufs[conn].extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// How a phase decides what to send next.
pub enum Load<'a> {
    /// Send each frame at its due offset.
    Open(&'a [Frame]),
    /// Keep `depth` frames in flight per connection for `seconds`, drawing
    /// frames in order from `frames`.
    Closed {
        frames: &'a [Frame],
        depth: usize,
        seconds: f64,
    },
}

/// Run one phase on `conns`, checking every receipt against `refs`.
pub fn run_phase(conns: &mut Conns, load: Load<'_>, refs: &References) -> Result<Phase, String> {
    let n_conns = conns.streams.len();
    let mut phase = Phase::default();
    let mut pending: Vec<VecDeque<Pending>> = (0..n_conns).map(|_| VecDeque::new()).collect();
    // Shed jobs waiting to be resent: (resend at, job index).
    let mut resend: VecDeque<(f64, usize)> = VecDeque::new();
    let (frames, window) = match &load {
        Load::Open(plan) => (*plan, plan.last().map_or(0.0, |f| f.due_s)),
        Load::Closed {
            frames, seconds, ..
        } => (*frames, *seconds),
    };
    let mut next_frame = 0usize;
    let mut sending = true;
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();
    let drain_limit = window + 30.0;
    let mut rr = 0usize;

    loop {
        let t = now();
        if sending {
            match &load {
                Load::Open(plan) => {
                    while next_frame < plan.len() && plan[next_frame].due_s <= t {
                        let f = &plan[next_frame];
                        let ids = push_jobs(&mut phase, &f.jobs, f.due_s);
                        phase.send_lag_ms.push((t - f.due_s) * 1e3);
                        let conn = next_frame % n_conns;
                        let batched = conns.batched;
                        send_frame(conns, &mut phase, &mut pending[conn], conn, ids, batched, t)?;
                        next_frame += 1;
                    }
                    if next_frame == plan.len() {
                        sending = false;
                    }
                }
                Load::Closed { depth, seconds, .. } => {
                    if t >= *seconds {
                        sending = false;
                    } else {
                        for (conn, queue) in pending.iter_mut().enumerate() {
                            while queue.len() < *depth && next_frame < frames.len() {
                                let f = &frames[next_frame];
                                let ids = push_jobs(&mut phase, &f.jobs, t);
                                let batched = conns.batched;
                                send_frame(conns, &mut phase, queue, conn, ids, batched, t)?;
                                next_frame += 1;
                            }
                        }
                        if next_frame == frames.len() {
                            return Err("closed-loop phase ran out of frames".into());
                        }
                    }
                }
            }
            if !sending {
                phase.seconds = t;
                phase.completed_in_window = phase.jobs.iter().filter(|j| j.done.is_some()).count();
            }
        }
        while resend.front().is_some_and(|&(at, _)| at <= t) {
            let (_, j) = resend.pop_front().expect("checked non-empty");
            let conn = rr % n_conns;
            rr += 1;
            send_frame(
                conns,
                &mut phase,
                &mut pending[conn],
                conn,
                vec![j],
                false,
                t,
            )?;
        }
        let in_flight = pending.iter().map(VecDeque::len).sum::<usize>() + resend.len();
        if !sending && in_flight == 0 {
            break;
        }
        if t > drain_limit {
            break; // whatever is still pending stays unanswered
        }
        let mut wake = drain_limit;
        if sending {
            if let Load::Open(plan) = &load {
                wake = wake.min(plan[next_frame].due_s);
            } else {
                wake = wake.min(window);
            }
        }
        if let Some(&(at, _)) = resend.front() {
            wake = wake.min(at);
        }
        let timeout = Duration::from_secs_f64((wake - now()).max(0.0));
        let ready = wait_readable(&conns.streams, timeout);
        for conn in 0..n_conns {
            if !ready[conn] {
                continue;
            }
            conns.fill(conn)?;
            while let Some(line) = conns.take_line(conn) {
                let t = now();
                let p = pending[conn]
                    .pop_front()
                    .ok_or_else(|| format!("unsolicited response: {line}"))?;
                let results = if p.batched {
                    let arr = raw::get(&line, "results")
                        .ok_or_else(|| format!("batch not answered with results: {line}"))?;
                    raw::items(arr).ok_or("malformed batch results")?
                } else {
                    vec![line.as_str()]
                };
                if results.len() != p.jobs.len() {
                    return Err(format!(
                        "{} results for {} jobs",
                        results.len(),
                        p.jobs.len()
                    ));
                }
                for (&j, result) in p.jobs.iter().zip(results) {
                    let rec = &mut phase.jobs[j];
                    if raw::get(result, "ok") == Some("true") {
                        rec.ok = true;
                        rec.done = Some(t);
                        rec.receipt_ok = raw::get(result, "receipt")
                            .is_some_and(|r| refs.get(&rec.key).is_some_and(|want| want == r));
                        rec.queue_us = raw::num(result, &["queue_us"]).unwrap_or(0.0);
                        rec.exec_us = raw::num(result, &["exec_us"]).unwrap_or(0.0);
                    } else if raw::get(result, "error_kind") == Some("\"shed\"") {
                        rec.sheds += 1;
                        resend.push_back((t + 0.01, j));
                    } else {
                        rec.done = Some(t);
                        rec.error = Some(result.to_string());
                    }
                }
            }
        }
    }
    Ok(phase)
}

fn push_jobs(phase: &mut Phase, jobs: &[Job], due: f64) -> Vec<usize> {
    jobs.iter()
        .map(|job| {
            phase.jobs.push(JobRecord {
                job: job.clone(),
                key: job.key(),
                due,
                sent: due,
                done: None,
                ok: false,
                receipt_ok: false,
                sheds: 0,
                error: None,
                queue_us: 0.0,
                exec_us: 0.0,
            });
            phase.jobs.len() - 1
        })
        .collect()
}

fn send_frame(
    conns: &mut Conns,
    phase: &mut Phase,
    pending: &mut VecDeque<Pending>,
    conn: usize,
    jobs: Vec<usize>,
    batched: bool,
    t: f64,
) -> Result<(), String> {
    let frame = Frame {
        due_s: 0.0,
        jobs: jobs.iter().map(|&j| phase.jobs[j].job.clone()).collect(),
    };
    conns.send(conn, &frame.line(batched))?;
    for &j in &jobs {
        phase.jobs[j].sent = t;
    }
    pending.push_back(Pending { jobs, batched });
    Ok(())
}
