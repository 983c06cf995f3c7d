//! The steadiness command: two interleaved sets of runs of this build,
//! compared against the bounds in `BENCHMARK.json`.
//!
//! Run `r` of each set uses seed `r + 1`, so both sets see the same
//! inputs and differ only by host noise. The sets alternate which goes
//! first. For every workload × end-to-end metric the command prints each
//! set's median and quartiles (Python's `statistics.quantiles(n=4)`),
//! each set's spread (interquartile distance over the median), and
//! whether the sets agree: every spread within the bound, and the second
//! median no worse than the first by more than the bound. `--workloads`
//! and `--seconds` narrow a tuning run to one workload or a shorter run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use stfm_serve::json::{self, Value};

use crate::stats;

/// The benchmark definition, read from the working directory.
const BENCH: &str = "BENCHMARK.json";

/// Seed of each set's first run.
const FIRST_SEED: u64 = 1;

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

struct Options {
    runs: u64,
    seconds: u64,
    workloads: Option<Vec<String>>,
}

fn parse(argv: &[String]) -> Result<Options, String> {
    let mut o = Options {
        runs: 10,
        seconds: 0,
        workloads: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--runs" => o.runs = num()?,
            "--seconds" => o.seconds = num()?,
            "--workloads" => o.workloads = Some(v.split(',').map(String::from).collect()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(o)
}

/// The workloads, run length and end-to-end metrics of `BENCHMARK.json`.
fn declared(path: &str) -> Result<(Vec<String>, u64, Vec<Declared>), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = json::parse(&src)?;
    let workloads = v
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(String::from))
        .collect();
    let seconds = v
        .get("run_seconds")
        .and_then(Value::as_u64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let metrics = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed end_to_end entry")?;
    Ok((workloads, seconds, metrics))
}

/// The values of one run: metric name → value, plus (attempted, failed).
type RunResult = (BTreeMap<String, f64>, u64, u64);

fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("{workload} seed {seed}: run failed ({})", out.status))?;
    let v = json::parse(last)?;
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result has no metrics")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let count = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    Ok((metrics, count("attempted"), count("failed")))
}

fn describe(xs: &[f64]) -> String {
    match (stats::median(xs), stats::quartiles(xs)) {
        (Some(m), Some([q1, _, q3])) => format!("{m:.6} [{q1:.6}, {q3:.6}]"),
        (Some(m), None) => format!("{m:.6}"),
        _ => "-".into(),
    }
}

/// Runs the two sets and renders the comparison table.
///
/// # Errors
///
/// Bad arguments, an unreadable `BENCHMARK.json`, or a failed run.
pub fn main(argv: &[String]) -> Result<String, String> {
    let o = parse(argv)?;
    let (all, declared_seconds, metrics) = declared(BENCH)?;
    let workloads = o.workloads.clone().unwrap_or(all);
    let seconds = if o.seconds > 0 {
        o.seconds
    } else {
        declared_seconds
    };
    // sets[set][workload] = runs
    let mut sets: [BTreeMap<String, Vec<RunResult>>; 2] = Default::default();
    for r in 0..o.runs {
        let order = if r % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for w in &workloads {
                let res = one_run(w, FIRST_SEED + r, seconds)?;
                eprintln!("set {} run {r} {w}: {:?}", set + 1, res.0);
                sets[set].entry(w.clone()).or_default().push(res);
            }
        }
    }

    let mut out = format!(
        "{} runs per set, {seconds} s each, seeds {}..={}\n",
        o.runs,
        FIRST_SEED,
        FIRST_SEED + o.runs.saturating_sub(1)
    );
    let _ = writeln!(
        out,
        "{:<8} {:<19} {:<36} {:<36} {:>7} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "set 1 median [q1, q3]",
        "set 2 median [q1, q3]",
        "spread1",
        "spread2",
        "worse",
        "bound"
    );
    let mut all_ok = true;
    for w in &workloads {
        let runs = |set: usize| sets[set].get(w).cloned().unwrap_or_default();
        for m in &metrics {
            let values = |set: usize| -> Vec<f64> {
                runs(set)
                    .iter()
                    .filter_map(|(ms, _, _)| ms.get(&m.name).copied())
                    .collect()
            };
            let (a, b) = (values(0), values(1));
            let spread = |xs: &[f64]| stats::relative_spread(xs).unwrap_or(f64::INFINITY);
            let (sa, sb) = (spread(&a), spread(&b));
            let (ma, mb) = (
                stats::median(&a).unwrap_or(f64::NAN),
                stats::median(&b).unwrap_or(f64::NAN),
            );
            let worse = if m.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let ok = sa <= m.bound && sb <= m.bound && worse <= m.bound;
            all_ok &= ok;
            let _ = writeln!(
                out,
                "{w:<8} {:<19} {:<36} {:<36} {sa:>7.4} {sb:>7.4} {worse:>7.4} {:>6.3}  {}",
                m.name,
                describe(&a),
                describe(&b),
                m.bound,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
        let share = |set: usize| {
            let (att, fail) = runs(set)
                .iter()
                .fold((0u64, 0u64), |(x, y), (_, a, f)| (x + a, y + f));
            format!("{fail}/{att}")
        };
        let _ = writeln!(
            out,
            "{w:<8} failed/attempted: set 1 {}, set 2 {}",
            share(0),
            share(1)
        );
    }
    let _ = write!(
        out,
        "overall: {}",
        if all_ok {
            "every metric agrees within its bound"
        } else {
            "some metric disagrees"
        }
    );
    Ok(out)
}
