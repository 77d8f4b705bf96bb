//! The closed loop: one client, one request per record-aligned batch,
//! each request a runner call followed by a parse of every kept record,
//! every answer checked against the reference verdicts.

use crate::runner::Runner;
use crate::stats::{tail, Summary, Tail};
use crate::trace::Tracer;
use crate::workload::{Gate, Prepared};
use rfjson_core::{Engine, MultiEngine};
use rfjson_runtime::RunnerConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fresh runners built (and first calls made) to time set-up, spread
/// evenly over the measured requests.
pub const SETUP_REPS: usize = 61;

/// Minimum warm-up before any timed request.
pub const WARM_UP_SECONDS: f64 = 3.0;

/// Requests a measurement makes even when its time is up.
pub const MIN_REQUESTS: usize = 32;

/// Timings of set-up (expressions to the first verdict), one entry per
/// repetition. The repetitions are spread over the measurement rather
/// than made in one burst, so that a slow phase of a shared machine hits
/// set-up the way it hits the requests around it.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Runner constructor plus first call (s).
    pub setup_s: Vec<f64>,
    /// The first call alone (s), which compiles the lanes.
    pub first_call_s: Vec<f64>,
    /// A bare engine compile (s): `Engine::compile` per query or
    /// `MultiEngine::compile_batch`.
    pub compile_s: Vec<f64>,
    start: Instant,
    every: Duration,
}

impl Setup {
    /// Set-ups to be made over the next `seconds`.
    pub fn spread_over(seconds: f64) -> Setup {
        Setup {
            setup_s: Vec::new(),
            first_call_s: Vec::new(),
            compile_s: Vec::new(),
            start: Instant::now(),
            every: Duration::from_secs_f64(seconds / SETUP_REPS as f64),
        }
    }

    /// Makes the next set-up if its time has come; called between
    /// requests.
    pub fn when_due(&mut self, prep: &Prepared, gate: &mut Gate) {
        let made = self.setup_s.len();
        if made < SETUP_REPS && self.start.elapsed() >= self.every * made as u32 {
            self.measure(prep, gate);
        }
    }

    /// Makes the set-ups a short measurement ended before.
    pub fn finish(&mut self, prep: &Prepared, gate: &mut Gate) {
        while self.setup_s.len() < SETUP_REPS {
            self.measure(prep, gate);
        }
    }

    /// Times one bare compile, then one set-up with a fresh runner whose
    /// first answer is checked.
    fn measure(&mut self, prep: &Prepared, gate: &mut Gate) {
        let fused = prep.workload.fused();
        let t = Instant::now();
        if fused {
            black_box(MultiEngine::compile_batch(black_box(&prep.exprs)));
        } else {
            for e in &prep.exprs {
                black_box(Engine::compile(black_box(e)));
            }
        }
        self.compile_s.push(t.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let mut runner = Runner::new(&prep.exprs, fused, RunnerConfig::default());
        let t1 = Instant::now();
        let ok = runner.call(prep.bytes(0)).is_ok();
        let t2 = Instant::now();
        self.setup_s.push((t2 - t0).as_secs_f64());
        self.first_call_s.push((t2 - t1).as_secs_f64());
        let rep = self.setup_s.len();
        gate.check(ok && runner.answer_equals(&prep.batches[0].expect), || {
            format!("set-up {rep}: first answer differs from reference")
        });
    }
}

/// One request's timings.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Batch bytes.
    pub bytes: usize,
    /// Runner call (ns).
    pub call_ns: u64,
    /// Parse of every kept record (ns).
    pub parse_ns: u64,
    /// Whole request including the answer check (ns).
    pub total_ns: u64,
}

/// The closed-loop client: owns a fresh default-config runner and walks
/// the batches round-robin.
#[derive(Debug)]
pub struct Client<'a> {
    prep: &'a Prepared,
    /// The runner under test.
    pub runner: Runner,
    next: usize,
    next_request: u64,
}

impl<'a> Client<'a> {
    /// A client with a fresh runner (default [`RunnerConfig`]: one shard
    /// per core).
    pub fn new(prep: &'a Prepared) -> Client<'a> {
        Client {
            prep,
            runner: Runner::new(&prep.exprs, prep.workload.fused(), RunnerConfig::default()),
            next: 0,
            next_request: 0,
        }
    }

    /// The prepared workload the client serves.
    pub fn prep(&self) -> &'a Prepared {
        self.prep
    }

    /// Next request id.
    pub fn take_request_id(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request - 1
    }

    /// Next batch index, round-robin.
    pub fn take_batch(&mut self) -> usize {
        let b = self.next;
        self.next = (b + 1) % self.prep.batches.len();
        b
    }

    /// Checked but untimed requests, at least one pass over every batch
    /// and at least [`WARM_UP_SECONDS`]: lanes compile, caches fill, the
    /// prefilter finishes its probation and the cores settle at speed.
    pub fn warm_up(&mut self, gate: &mut Gate) {
        let deadline = Instant::now() + Duration::from_secs_f64(WARM_UP_SECONDS);
        let mut done = 0;
        while done < self.prep.batches.len() || Instant::now() < deadline {
            self.request(gate, None);
            done += 1;
        }
    }

    /// One request: call, parse the kept records, check the answer.
    /// With a tracer, each step is a span under one `request` span.
    pub fn request(&mut self, gate: &mut Gate, tracer: Option<&mut Tracer>) -> Sample {
        let b = self.take_batch();
        let id = self.take_request_id();
        let prep = self.prep;
        let bytes = prep.bytes(b);
        let batch = &prep.batches[b];
        let mut tracer = tracer;
        let t0 = Instant::now();
        let root = tracer.as_deref_mut().map(|t| t.begin(id, "request", None));
        let span = |t: &mut Option<&mut Tracer>, name| {
            t.as_deref_mut()
                .zip(root)
                .map(|(t, root)| t.begin(id, name, Some(root)))
        };
        let close = |t: &mut Option<&mut Tracer>, s: Option<usize>| {
            if let (Some(t), Some(s)) = (t.as_deref_mut(), s) {
                t.end(s);
            }
        };

        let s = span(&mut tracer, "runtime.call");
        let tc = Instant::now();
        let result = self.runner.call(black_box(bytes));
        let call_ns = tc.elapsed().as_nanos() as u64;
        close(&mut tracer, s);

        let s = span(&mut tracer, "parse");
        let tp = Instant::now();
        let framed = result.is_ok() && self.runner.records() == batch.records.len();
        let parsed = framed && self.runner.parse_kept(bytes, &batch.records);
        let parse_ns = tp.elapsed().as_nanos() as u64;
        close(&mut tracer, s);

        let s = span(&mut tracer, "verify");
        let ok = framed && parsed && self.runner.answer_equals(&batch.expect);
        gate.check(ok, || match &result {
            Err(e) => format!("request {id} (batch {b}): runner error: {e}"),
            Ok(()) => format!("request {id} (batch {b}): answer differs from reference"),
        });
        close(&mut tracer, s);
        if let Some((t, root)) = tracer.zip(root) {
            t.end(root);
        }
        Sample {
            bytes: bytes.len(),
            call_ns,
            parse_ns,
            total_ns: t0.elapsed().as_nanos() as u64,
        }
    }

    /// Untraced requests until `seconds` have passed (and at least
    /// [`MIN_REQUESTS`]), with the set-ups spread between them; set-up
    /// time is not part of any request.
    pub fn run_for(&mut self, seconds: f64, gate: &mut Gate) -> (Vec<Sample>, Setup) {
        let mut setup = Setup::spread_over(seconds);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut samples = Vec::new();
        while samples.len() < MIN_REQUESTS || Instant::now() < deadline {
            setup.when_due(self.prep, gate);
            samples.push(self.request(gate, None));
        }
        setup.finish(self.prep, gate);
        (samples, setup)
    }
}

/// MB/s of `bytes` in `ns`.
pub fn mbps(bytes: usize, ns: u64) -> f64 {
    bytes as f64 * 1e3 / ns.max(1) as f64
}

/// The end-to-end timing metrics of a sample set.
#[derive(Debug, Clone, Copy)]
pub struct Timings {
    /// Per-call filter throughput (MB/s).
    pub filter: Summary,
    /// Per-call wall time (ms).
    pub call_ms: Summary,
    /// Tail of the per-call wall time (ms).
    pub call_tail: Tail,
    /// Per-request filter-then-parse throughput (MB/s).
    pub answer: Summary,
}

impl Timings {
    /// Summarises the samples.
    pub fn of(samples: &[Sample]) -> Timings {
        let filter: Vec<f64> = samples.iter().map(|s| mbps(s.bytes, s.call_ns)).collect();
        let call: Vec<f64> = samples.iter().map(|s| s.call_ns as f64 / 1e6).collect();
        let answer: Vec<f64> = samples
            .iter()
            .map(|s| mbps(s.bytes, s.call_ns + s.parse_ns))
            .collect();
        Timings {
            filter: Summary::of(&filter),
            call_ms: Summary::of(&call),
            call_tail: tail(&call),
            answer: Summary::of(&answer),
        }
    }
}

/// Lowers this process's peak resident set (`VmHWM`) to its current
/// resident set, so that [`peak_rss_mib`] reads the peak from here on
/// (Linux `/proc/self/clear_refs`, value 5).
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// `VmHWM` (peak resident set) of this process in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}
