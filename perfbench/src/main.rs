//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Each workload builds its inputs from `--seed`, then repeats a
//! fixed-size *episode* from the same starting state until the next one
//! would overrun `--seconds`, with a round of set-ups before each
//! episode. Fixed episodes keep every modelled count identical from run
//! to run. Host time is taken in many short samples (set-ups, and
//! stretches of each episode), each scaled to a nominal host speed
//! measured next to it (see [`speed`]), and reported as medians: the
//! speed of a shared host drifts within and between runs. `ops_per_s`
//! and `setup_s` are such scaled medians; the unscaled median ops/s is
//! printed beside them. Every answer is checked against an oracle
//! outside the timed calls.
//!
//! With `--trace 1` episodes alternate between untraced and recorded;
//! recorded ones keep one span per public call, and the run reports the
//! per-layer metrics, the span self-time table and the tracing
//! overhead, and writes the spans to `perfbench/out/`.
//!
//! The last line of stdout is the JSON result; everything before it is
//! the human-readable report, including the `pin` lines that must be
//! bit-identical across repeats of one commit and seed.

mod ingest;
mod lookup;
mod report;
mod spans;
mod speed;
mod triangle;

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dsp_cam_workload::{Trace, TraceOp};
use report::{median, Report};
use spans::Spans;

/// Set-ups come in rounds: one round before the timed window and one
/// before every episode, so `setup_s` is a median over samples spread
/// across the run. A round repeats the set-up until it has spent
/// [`SETUP_ROUND_SECS`] or run [`MAX_ROUND_SETUPS`] times (the first
/// round at least [`MIN_SETUPS`] times), so a sub-millisecond set-up
/// still yields many samples without its sample count, and so the
/// run's memory, following the host's speed.
const MIN_SETUPS: usize = 5;
const SETUP_ROUND_SECS: f64 = 0.02;
const MAX_ROUND_SETUPS: usize = 64;

/// Modelled ns are printed only inside the calibration points of
/// `FrequencyModel::u250_unit_32b` (the paper's Tables VII/VIII).
pub fn modelled_ns_note(report: &mut Report, cells: u64, cycles_per_op: f64) {
    let model = fpga_model::timing::FrequencyModel::u250_unit_32b();
    let calibrated = model.points().last().expect("calibrated model").0;
    if cells > calibrated {
        report.notes.push(format!(
            "modelled ns/op: outside calibration ({cells} cells > {calibrated})"
        ));
        return;
    }
    let period = model.period_ns(cells);
    report.set("fpga_model.period_ns", period);
    report.set("sim_ns_per_op", cycles_per_op * period);
    report.notes.push(format!(
        "modelled ns/op: {} ({cycles_per_op} cycles/op x {period} ns at {cells} cells)",
        cycles_per_op * period
    ));
}

/// Key → stored-copy count: what the unit must answer.
#[derive(Clone, Default)]
pub struct Oracle(HashMap<u64, u32>);

impl Oracle {
    pub fn store(&mut self, key: u64) {
        *self.0.entry(key).or_default() += 1;
    }

    pub fn contains(&self, key: u64) -> bool {
        self.0.get(&key).is_some_and(|&n| n > 0)
    }

    /// Delete one copy; whether there was one.
    pub fn remove(&mut self, key: u64) -> bool {
        match self.0.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    /// Apply `trace`'s records in order, returning the search hits and
    /// delete hits a correct CAM reports.
    pub fn replay(&mut self, trace: &Trace) -> (u64, u64) {
        let (mut hits, mut delete_hits) = (0, 0);
        for record in &trace.records {
            match &record.op {
                TraceOp::Search(key) => hits += u64::from(self.contains(*key)),
                TraceOp::SearchStream(keys) => {
                    hits += keys.iter().filter(|&&k| self.contains(k)).count() as u64;
                }
                TraceOp::Update(word) => self.store(*word),
                TraceOp::Delete { key, .. } => delete_hits += u64::from(self.remove(*key)),
            }
        }
        (hits, delete_hits)
    }

    /// Stored copies across all keys.
    pub fn live(&self) -> u64 {
        self.0.values().map(|&n| u64::from(n)).sum()
    }

    pub fn from_prefill(trace: &Trace) -> Self {
        let mut oracle = Oracle::default();
        for &key in trace.prefill_words() {
            oracle.store(key);
        }
        oracle
    }
}

/// Root span of a recorded set-up section.
const SETUP_ROOT: &str = "bench.setup";
/// Root span of a recorded episode; its self time is `bench.harness_s`.
const EPISODE_ROOT: &str = "bench.episode";

/// Timed parts of one set-up: per-layer metric name and seconds. Their
/// sum is the set-up's time.
pub type SetupParts = Vec<(&'static str, f64)>;

pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub traced: bool,
    pub spans: Spans,
    /// Recorded episodes so far: the divisor of per-episode layer times.
    pub recorded: usize,
    /// Set-up parts, scaled to nominal host speed.
    setups: Vec<SetupParts>,
    /// Every host-speed measurement; the last is the current speed.
    speeds: Vec<f64>,
}

/// One timed stretch of an episode: application ops done, host seconds
/// taken, the host speed around it, and whether its spans were
/// recorded.
pub struct Sample {
    pub ops: u64,
    pub secs: f64,
    pub speed: f64,
    pub recorded: bool,
}

impl Sample {
    /// Ops per second scaled to nominal host speed.
    fn rate(&self) -> f64 {
        self.ops as f64 / (self.secs * self.speed)
    }
}

impl Ctx {
    fn measure_speed(&mut self) -> f64 {
        let speed = speed::measure();
        self.speeds.push(speed);
        speed
    }

    /// Run `setup` once, recorded when traced, and keep its timed parts
    /// scaled by the last host-speed measurement.
    fn set_up<T>(&mut self, setup: &mut impl FnMut(&mut Spans) -> (T, SetupParts)) -> T {
        if self.traced {
            self.spans.begin_section(SETUP_ROOT);
        }
        let (value, mut parts) = setup(&mut self.spans);
        if self.traced {
            self.spans.end_section();
        }
        let speed = *self.speeds.last().expect("speed measured before set-up");
        for (_, secs) in &mut parts {
            *secs *= speed;
        }
        self.setups.push(parts);
        value
    }

    /// One round of set-ups, returning the first state.
    fn set_up_round<T>(
        &mut self,
        setup: &mut impl FnMut(&mut Spans) -> (T, SetupParts),
        min_setups: usize,
    ) -> T {
        let first = self.setups.len();
        let state = self.set_up(setup);
        loop {
            let spent: f64 = self.setups[first..]
                .iter()
                .flat_map(|parts| parts.iter().map(|&(_, secs)| secs))
                .sum();
            let done = self.setups.len() - first;
            if done >= min_setups && (spent >= SETUP_ROUND_SECS || done >= MAX_ROUND_SETUPS) {
                return state;
            }
            self.set_up(setup);
        }
    }

    /// The set-up round before the timed window; returns the state the
    /// episodes start from.
    pub fn first_set_up<T>(&mut self, setup: &mut impl FnMut(&mut Spans) -> (T, SetupParts)) -> T {
        self.measure_speed();
        self.set_up_round(setup, MIN_SETUPS)
    }

    /// Repeat rounds of set-ups (timed, their states dropped) and one
    /// episode until the next round would overrun the window: at least
    /// once, and when traced at least twice, alternating untraced and
    /// recorded episodes. `episode` returns its timed `(ops, secs)`
    /// stretches; their speed is the mean of the measurements before and
    /// after the episode.
    pub fn run_window<T>(
        &mut self,
        setup: &mut impl FnMut(&mut Spans) -> (T, SetupParts),
        mut episode: impl FnMut(&mut Spans) -> Vec<(u64, f64)>,
    ) -> Vec<Sample> {
        let start = Instant::now();
        let mut samples: Vec<Sample> = Vec::new();
        let mut rounds = 0;
        loop {
            let began = Instant::now();
            self.set_up_round(setup, 1);
            let recorded = self.traced && rounds % 2 == 1;
            if recorded {
                self.spans.begin_section(EPISODE_ROOT);
                self.recorded += 1;
            }
            let before = *self.speeds.last().expect("speed measured before set-up");
            let stretches = episode(&mut self.spans);
            if recorded {
                self.spans.end_section();
            }
            let speed = (before + self.measure_speed()) / 2.0;
            samples.extend(stretches.into_iter().map(|(ops, secs)| Sample {
                ops,
                secs,
                speed,
                recorded,
            }));
            rounds += 1;
            let minimum = if self.traced { 2 } else { 1 };
            if rounds >= minimum && start.elapsed() + began.elapsed() > self.window {
                return samples;
            }
        }
    }

    /// `setup_s` and every timed set-up part, as medians over set-ups.
    pub fn report_setups(&self, report: &mut Report) {
        let totals: Vec<f64> = self
            .setups
            .iter()
            .map(|parts| parts.iter().map(|&(_, secs)| secs).sum())
            .collect();
        report.set("setup_s", median(&totals));
        for (i, &(name, _)) in self.setups[0].iter().enumerate() {
            let secs: Vec<f64> = self.setups.iter().map(|parts| parts[i].1).collect();
            report.set(name, median(&secs));
        }
        report
            .notes
            .push(format!("set-ups timed: {}", self.setups.len()));
        report.set("bench.host_speed", median(&self.speeds));
    }

    /// Per-recorded-episode busy seconds of the spans named `span`.
    pub fn busy_s(&self, span: &str) -> f64 {
        let layer = self.spans.layers().get(span).copied().unwrap_or_default();
        layer.busy_ns as f64 / 1e9 / self.recorded.max(1) as f64
    }
}

/// Median scaled ops/s over the untraced samples, and the tracing
/// overhead when some were recorded.
pub fn throughput(report: &mut Report, samples: &[Sample]) {
    let rate = |recorded: bool| {
        let rates: Vec<f64> = samples
            .iter()
            .filter(|s| s.recorded == recorded)
            .map(Sample::rate)
            .collect();
        (!rates.is_empty()).then(|| (median(&rates), rates.len()))
    };
    let (untraced, n) = rate(false).expect("an untraced episode always runs");
    report.set("ops_per_s", untraced);
    let unscaled: Vec<f64> = samples
        .iter()
        .filter(|s| !s.recorded)
        .map(|s| s.ops as f64 / s.secs)
        .collect();
    report.set("bench.unscaled_ops_per_s", median(&unscaled));
    report
        .notes
        .push(format!("ops/s: median of {n} untraced samples"));
    if let Some((traced, _)) = rate(true) {
        report.set("bench.trace_overhead", 1.0 - traced / untraced);
    }
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => {
                args.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        traced: args.trace,
        spans: Spans::new(),
        recorded: 0,
        setups: Vec::new(),
        speeds: Vec::new(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut report = match args.workload.as_str() {
        "lookup_large" => lookup::run(&mut ctx),
        "ingest_churn" => ingest::run(&mut ctx),
        "triangle_count" => triangle::run(&mut ctx),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} \
                 (lookup_large, ingest_churn, triangle_count)"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} trace {} nproc {nproc} caller_threads 1 engine_threads 0",
        args.workload, args.seed, args.trace as u8
    );
    ctx.report_setups(&mut report);
    match peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report.fail(1, "peak RSS is unreadable"),
    }
    if args.trace {
        let harness = ctx
            .spans
            .layers()
            .get(EPISODE_ROOT)
            .map_or(0, |l| l.self_ns);
        report.set(
            "bench.harness_s",
            harness as f64 / 1e9 / ctx.recorded.max(1) as f64,
        );
        span_table(&mut report, &ctx.spans);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
        match ctx.spans.write_csv(&path) {
            Ok(()) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(err) => report.fail(1, format!("writing {}: {err}", path.display())),
        }
    }
    report.print(args.trace);
    ExitCode::SUCCESS
}

/// Self time per layer; with the harness they add up to the traced wall.
fn span_table(report: &mut Report, spans: &Spans) {
    let layers = spans.layers();
    let wall = spans.wall_ns();
    let mut accounted = 0;
    for (name, layer) in &layers {
        accounted += layer.self_ns;
        report.notes.push(format!(
            "span {name:<22} spans {:>8} busy_s {:>10.6} self_s {:>10.6} self_share {:>6.2}%",
            layer.spans,
            layer.busy_ns as f64 / 1e9,
            layer.self_ns as f64 / 1e9,
            100.0 * layer.self_ns as f64 / wall.max(1) as f64
        ));
    }
    report.notes.push(format!(
        "traced wall {:.6} s = sum of self times {:.6} s",
        wall as f64 / 1e9,
        accounted as f64 / 1e9
    ));
}
