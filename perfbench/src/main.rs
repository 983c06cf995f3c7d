//! `stfm-perfbench`: the STFM simulator's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! stfm-perfbench --workload <stream4|mix16> --seed N --seconds S --trace <0|1>
//!                [--spans-out FILE]
//! stfm-perfbench steady --runs N [--seconds S] [--workloads a,b,..]
//! stfm-perfbench spec --workload W --seed N
//! ```
//!
//! A run prepares the workload's five cells, measures for `--seconds`,
//! checks the program's outputs, and prints one JSON object as its last
//! line: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! Scratch files live under `.bench_run/` in the working directory and
//! are removed before the run exits. `steady` runs two interleaved sets
//! of runs of this build and compares them against the bounds in
//! `BENCHMARK.json`; `spec` prints a workload's spec line.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod checks;
mod formulas;
mod layers;
mod measure;
mod spans;
mod stats;
mod steady;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use checks::Tally;
use measure::RoundPlan;
use workload::Workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: String, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Parsed command line of a measuring run.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| {
                    format!("unknown workload '{v}' (expected stream4 or mix16)")
                })?);
            }
            "--seed" => seed = Some(num(value()?)?),
            "--seconds" => seconds = Some(num(value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got '{v}'")),
                })
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
        spans_out,
    })
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics of a `--trace 0` run.
fn end_to_end(
    prep: &checks::Prepared,
    budget: Duration,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let plan = RoundPlan {
        setup: true,
        replay: true,
    };
    let samples = measure::rounds(prep, plan, budget, 5, tally)?;
    eprintln!("timed repetitions (seconds: min, quartiles):");
    let show = |what: &str, xs: &[f64]| {
        let q = stats::quartiles(xs).unwrap_or([f64::NAN; 3]);
        let min = stats::sorted(xs).first().copied().unwrap_or(f64::NAN);
        eprintln!(
            "  {what:<14} n={:<4} min {min:.6}  q1 {:.6}  median {:.6}  q3 {:.6}",
            xs.len(),
            q[0],
            q[1],
            q[2]
        );
    };
    show("setup", &samples.setup);
    for (cell, xs) in prep.cells.iter().zip(&samples.cell) {
        show(cell.scheduler.token(), xs);
    }
    show("replay session", &samples.replay);
    checks::run_checks(prep, tally);
    let insts = samples.insts_per_s(prep).ok_or("no cold-cell samples")?;
    let setup = stats::steady(&samples.setup).ok_or("no set-up samples")?;
    let replay = samples.replay_cells_per_s().ok_or("no replay samples")?;
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(vec![
        Metric::new("insts_per_s".into(), insts, "1/s"),
        Metric::new("setup_s".into(), setup, "s"),
        Metric::new("replay_cells_per_s".into(), replay, "1/s"),
        Metric::new("peak_rss_mb".into(), rss, "MB"),
    ])
}

/// Prints the modelled fairness and throughput of each cell.
fn report_cells(prep: &checks::Prepared) {
    eprintln!(
        "{} cells (insts/thread {}):",
        prep.workload.name(),
        prep.workload.insts()
    );
    for (cell, m) in prep.cells.iter().zip(&prep.metrics) {
        eprintln!(
            "  {:<7} unfairness {:.4}  weighted speedup {:.4}  hmean speedup {:.4}",
            cell.scheduler.token(),
            m.unfairness(),
            m.weighted_speedup(),
            m.hmean_speedup()
        );
    }
}

fn render(tally: &Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn run_in(args: &Args, run_dir: &Path) -> Result<String, String> {
    let mut tally = Tally::default();
    let prep = checks::prepare(args.workload, args.seed, run_dir.to_path_buf(), &mut tally)?;
    report_cells(&prep);
    let budget = Duration::from_secs(args.seconds);
    let metrics = if args.trace {
        layers::traced_metrics(&prep, budget, &mut tally, args.spans_out.as_deref())?
    } else {
        end_to_end(&prep, budget, &mut tally)?
    };
    Ok(render(&tally, &metrics))
}

fn run(args: &Args) -> Result<String, String> {
    let root = PathBuf::from(".bench_run");
    let run_dir = root.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let result = run_in(args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    // Only succeeds once no other run is using the directory.
    let _ = std::fs::remove_dir(&root);
    result
}

/// `spec --workload W --seed N`: the workload's JSONL spec line, ready
/// for `stfm sweep` or `stfm serve`.
fn spec_line(argv: &[String]) -> Result<String, String> {
    match argv {
        [w, name, s, seed] if w == "--workload" && s == "--seed" => {
            let workload =
                Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
            let seed = seed.parse().map_err(|e| format!("--seed {seed}: {e}"))?;
            Ok(workload.spec_line(seed))
        }
        _ => Err("usage: spec --workload <stream4|mix16> --seed N".into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("steady") => steady::main(&argv[1..]),
        Some("spec") => spec_line(&argv[1..]),
        _ => parse_args(&argv).and_then(|a| run(&a)),
    };
    match result {
        Ok(out) => {
            println!("{out}");
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
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_run_command_line() {
        let a = parse_args(&argv("--workload mix16 --seed 4 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Mix16);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload light8 --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload stream4 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload stream4 --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        let line = render(&tally, &[Metric::new("setup_s".into(), 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
