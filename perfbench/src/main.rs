//! Seeded end-to-end benchmark of the banyan waiting-time reproduction.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs in one process and drives the repository's public
//! API from outside. With `--trace 0` the run measures the end-to-end
//! metrics; with `--trace 1` it interleaves untraced ops with ops whose
//! layer calls are wrapped in spans, and reports per-layer self times.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod flowload;
mod host;
mod serveload;
mod simload;
mod stats;
mod trace;
mod window;

use stats::{beyond, quantile_sorted};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use trace::Recorder;
use window::Window;

/// Workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Timed-phase length when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 20;
/// Most set-ups per run. The first builds the instance the ops run on;
/// the others end the timed phase's first one-second windows, one in
/// each, so that they sample the host's speed over the whole run, not
/// only the moment it started. `setup_s` is taken over the first and
/// those in the windows kept, at the level nine in ten reach.
const SETUP_REPS: usize = 21;
/// `trace.coverage` outside this range fails the traced run: its layer
/// calls no longer add up to the op they stand for.
const COVERAGE: (f64, f64) = (0.9, 1.1);
/// Per-mille percentile of the tail metric, `lat_p90_us`. Every workload
/// has at least ten samples beyond p90; `serve_mix` has enough for p99,
/// but its p99 follows the host's CPU steal too closely to be steady.
const TAIL_PM: u32 = 900;

const WORKLOADS: [&str; 4] = ["sim_table1", "sim_blocking", "serve_mix", "flow_mesh"];

/// Per-layer metrics beyond the layer self times, with their units.
/// Ratios of times and counts; each workload fills the ones it measures.
const EXTRAS: [(&str, &str); 10] = [
    ("lanes.ns_per_msg", "ns"),
    ("network.scalar_ns_per_msg", "ns"),
    ("lanes.speedup_vs_scalar", "ratio"),
    ("network.run_ns_per_msg", "ns"),
    ("sim.msgs_per_op", "count"),
    ("runner.lane_ops", "count"),
    ("network.accept_ratio", "fraction"),
    ("cache.hit_ratio", "fraction"),
    ("flow.flows_per_op", "count"),
    ("gamma.calls_per_op", "count"),
];

/// What a finished op contributed, as judged by its output check.
pub struct Checked {
    /// The op's output passed every check.
    pub ok: bool,
    /// Work items the op completed (delivered messages, answers, flows).
    pub items: u64,
}

/// One workload instance. `prepare` runs before the set-up clock
/// starts; `setup` (timed, up to [`SETUP_REPS`] times) builds the
/// inputs and runs one untimed warm-up op; ops `1, 2, …` follow.
pub trait Workload: Sized {
    /// Inputs prepared once per process, outside set-up time.
    type Prep;
    /// An op's raw output, checked outside the timed interval.
    type Out;
    /// Builds everything the checks compare against.
    fn prepare(seed: u64) -> Result<Self::Prep, String>;
    /// Builds the inputs and runs the warm-up op.
    fn setup(prep: &Self::Prep) -> Result<Self, String>;
    /// Runs op `i` untraced.
    fn op(&mut self, i: u64) -> Self::Out;
    /// Runs op `i` with a span around each layer call.
    fn traced_op(&mut self, i: u64, rec: &mut Recorder) -> Self::Out;
    /// Checks op `i`'s output.
    fn check(&mut self, i: u64, out: Self::Out) -> Checked;
    /// Checks that span the whole run; called once after the last op.
    fn finish(&mut self) -> Result<(), String>;
    /// Records spans for traced ops whose attribution is deferred until
    /// after the timed phase; called once, after `finish`.
    fn replay_traced(&mut self, _rec: &mut Recorder) -> Result<(), String> {
        Ok(())
    }
    /// Workload-specific per-layer metrics and counts for the traced
    /// run, by `per_layer` name.
    fn layer_extras(&mut self) -> Vec<(&'static str, f64)>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("want an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("want an integer"))?;
                if args.seconds == 0 {
                    return Err(bad("want at least 1"));
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: String::new(),
    }
}

/// The result line and the lines printed above it.
struct Report {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

/// Per-run totals of the op loop.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, c: &Checked) {
        self.attempted += 1;
        self.failed += u64::from(!c.ok);
    }
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    let prep = W::prepare(args.seed)?;
    let t = Instant::now();
    let mut w = W::setup(&prep)?;
    let first_setup = t.elapsed().as_secs_f64();

    // The set-ups inside windows do not count towards the budget.
    let mut budget = Duration::from_secs(args.seconds);
    let cpu_before = host::cpu_times();
    let mut tally = Tally::default();
    let mut windows: Vec<Window> = Vec::new();
    let mut win = Window::default();
    let (mut win_start, mut win_cpu) = (Instant::now(), cpu_before);
    let mut untraced = 0;
    let mut rec = Recorder::new();
    let start = Instant::now();
    // Past its budget, if it must, the timed phase runs until the tail
    // percentile has ten untraced samples beyond it.
    let min_samples = stats::min_samples(TAIL_PM);
    // The traced run alternates untraced and traced ops, so host drift
    // cancels out of `trace.overhead` and `trace.coverage`.
    let mut i = 0u64;
    while start.elapsed() < budget || untraced < min_samples {
        i += 1;
        let traced = args.trace && i.is_multiple_of(2);
        let t = Instant::now();
        let out = if traced {
            w.traced_op(i, &mut rec)
        } else {
            w.op(i)
        };
        let ns = t.elapsed().as_nanos() as f64;
        let c = w.check(i, out);
        tally.add(&c);
        if !traced {
            untraced += 1;
            win.lat.push(ns);
            win.ops += 1;
            win.items += c.items;
        }
        let in_window = win_start.elapsed().as_secs_f64();
        if in_window >= window::WINDOW_S {
            // The set-up counts in the window's steal, not in its time.
            // Traced runs do not report `setup_s`.
            if !args.trace && windows.len() + 1 < SETUP_REPS {
                let t = Instant::now();
                let extra = W::setup(&prep)?;
                win.setup = Some(t.elapsed().as_secs_f64());
                drop(extra);
                budget += t.elapsed();
            }
            win.close(in_window, win_cpu, host::cpu_times());
            windows.push(std::mem::take(&mut win));
            (win_start, win_cpu) = (Instant::now(), host::cpu_times());
        }
    }
    // A last window much shorter than the others would skew the
    // per-window statistics, so it joins the one before.
    let secs = win_start.elapsed().as_secs_f64();
    match windows.last_mut() {
        Some(last) if secs < window::WINDOW_S / 2.0 => last.absorb(win, secs),
        _ => {
            win.close(secs, win_cpu, host::cpu_times());
            windows.push(win);
        }
    }
    let steal = match (cpu_before, host::cpu_times()) {
        (Some(a), Some(b)) => format!("{:.5}", host::steal_fraction(a, b)),
        _ => "unavailable".to_string(),
    };
    let mut finish = w.finish();
    if args.trace && finish.is_ok() {
        finish = w.replay_traced(&mut rec);
    }
    let extras = if args.trace {
        w.layer_extras()
    } else {
        Vec::new()
    };
    drop(w);

    // The traced run compares traced and untraced ops from the same
    // windows; the untraced run reports its quiet windows.
    let mut kept = window::quiet_windows(&windows);
    if args.trace || kept.iter().map(|w| w.lat.len()).sum::<usize>() < min_samples {
        kept = windows.iter().collect();
    }
    let mut setups: Vec<f64> = kept.iter().filter_map(|w| w.setup).collect();
    setups.push(first_setup);
    setups.sort_by(f64::total_cmp);
    let kept_steal = kept.iter().map(|w| w.steal * w.secs).sum::<f64>()
        / kept.iter().map(|w| w.secs).sum::<f64>();
    let mut lines = vec![format!(
        "# host: steal_fraction={steal} windows_kept={}/{} kept_steal_fraction={kept_steal:.5} parallelism={} rss_source={}",
        kept.len(),
        windows.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        host::RSS_SOURCE
    )];
    let mut lat: Vec<f64> = kept.iter().flat_map(|w| w.lat.iter().copied()).collect();
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    let metrics = if args.trace {
        trace_metrics(
            &rec,
            quantile_sorted(&lat, 500) / 1e3,
            extras,
            &mut lines,
            args,
        )
    } else {
        let mut tail = metric("lat_p90_us", quantile_sorted(&lat, TAIL_PM) / 1e3, "us");
        let highest = stats::tail_level(n).map_or(0.0, |pm| f64::from(pm) / 10.0);
        tail.note = format!(
            "n={n}, {} beyond (highest percentile with 10 beyond: p{highest})",
            beyond(n, TAIL_PM)
        );
        let p50_us = window::across(&kept, window::SLOW_PM, window::median_latency) / 1e3;
        let mut p50 = metric("lat_p50_us", p50_us, "us");
        p50.note = format!("per-second median sustained in 9 of 10 seconds; n={n}");
        let mut setup = metric("setup_s", quantile_sorted(&setups, window::SLOW_PM), "s");
        setup.note = format!(
            "90th percentile of {} set-ups (median {:.6})",
            setups.len(),
            quantile_sorted(&setups, 500)
        );
        vec![
            setup,
            metric(
                "ops_per_s",
                window::across(&kept, 1000 - window::SLOW_PM, |w| w.ops as f64 / w.secs),
                "1/s",
            ),
            metric(
                "msgs_per_s",
                window::across(&kept, 1000 - window::SLOW_PM, |w| w.items as f64 / w.secs),
                "1/s",
            ),
            p50,
            tail,
            metric(
                "ok_ratio",
                (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
                "fraction",
            ),
            metric("peak_rss_mb", host::peak_rss_mib()?, "MiB"),
        ]
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number: {}", m.name, m.value));
    }
    if let Some(m) = metrics.iter().find(|m| m.name == "trace.coverage") {
        finish = finish.and_then(|()| check_coverage(m.value));
    }
    if let Err(e) = &finish {
        lines.push(format!("# check failed: {e}"));
    }
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0 && finish.is_ok(),
        metrics,
        lines,
    })
}

/// Fails a traced run whose layer self times no longer add up to the
/// untraced op.
fn check_coverage(coverage: f64) -> Result<(), String> {
    if (COVERAGE.0..=COVERAGE.1).contains(&coverage) {
        Ok(())
    } else {
        Err(format!(
            "trace.coverage {coverage:.4} is outside [{}, {}]",
            COVERAGE.0, COVERAGE.1
        ))
    }
}

/// Per-layer metrics of a traced run: each layer's self time in the
/// median op and its share, the workload's derived metrics and counts,
/// and the trace's coverage and overhead against the untraced ops.
fn trace_metrics(
    rec: &Recorder,
    untraced_p50_us: f64,
    extras: Vec<(&'static str, f64)>,
    lines: &mut Vec<String>,
    args: &Args,
) -> Vec<Metric> {
    let summary = rec.layer_summary();
    let traced_p50_us = stats::median(&rec.op_latencies()) / 1e3;
    let layer_sum_us: f64 = summary.iter().map(|(_, med, _)| med / 1e3).sum();
    lines.push(format!(
        "# layer                 self_us(median op)   share   ({} traced ops, op p50 {traced_p50_us:.3} us)",
        rec.ops()
    ));
    let mut out = Vec::new();
    for (name, med, share) in &summary {
        if *share > 0.0 {
            lines.push(format!("# {name:<22} {:>18.3} {:>7.4}", med / 1e3, share));
        }
        out.push(metric(format!("{name}_us"), med / 1e3, "us"));
        out.push(metric(format!("{name}.share"), *share, "fraction"));
    }
    for (name, unit) in EXTRAS {
        // A workload reports the extras it measures; the rest are zero
        // because the workload bypasses those layers.
        let value = extras
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        out.push(metric(name, value, unit));
    }
    out.push(metric(
        "trace.coverage",
        layer_sum_us / untraced_p50_us,
        "ratio",
    ));
    out.push(metric(
        "trace.overhead",
        traced_p50_us / untraced_p50_us,
        "ratio",
    ));
    out.push(metric("trace.op_p50_us", traced_p50_us, "us"));
    out.push(metric("trace.ops", rec.ops() as f64, "count"));
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("spans_{}_seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| rec.write_spans(&mut std::io::BufWriter::new(f)));
    lines.push(match written {
        Ok(()) => format!("# spans of the first traced ops: {}", path.display()),
        Err(e) => format!("# spans not written to {}: {e}", path.display()),
    });
    out
}

fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Runs every workload, each in its own child process, one after
/// another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let started = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} start_unix={started:.3}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result = match args.workload.as_str() {
        "sim_table1" => run::<simload::Sim<simload::Table1>>(&args),
        "sim_blocking" => run::<simload::Sim<simload::Blocking>>(&args),
        "serve_mix" => run::<serveload::ServeMix>(&args),
        "flow_mesh" => run::<flowload::FlowMesh>(&args),
        _ => unreachable!("validated by parse_args"),
    };
    match result {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            for m in &report.metrics {
                println!(
                    "{:<28} {:>18} {:<8} {}",
                    m.name,
                    format!("{:.6}", m.value),
                    m.unit,
                    m.note
                );
            }
            println!("{}", json_line(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload serve_mix --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mix", 7, 3, true)
        );
        let d = parse_args(&argv("--workload flow_mesh")).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload flow_mesh --trace 2")).is_err());
        assert!(parse_args(&argv("--workload flow_mesh --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload flow_mesh --seed")).is_err());
    }

    #[test]
    fn coverage_outside_a_tenth_of_one_fails() {
        assert!(check_coverage(0.96).is_ok());
        assert!(check_coverage(1.1).is_ok());
        assert!(check_coverage(0.85).is_err());
        assert!(check_coverage(1.25).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let r = Report {
            attempted: 4,
            failed: 0,
            correct: true,
            metrics: vec![metric("setup_s", 0.5, "s")],
            lines: Vec::new(),
        };
        assert_eq!(
            json_line(&r),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
