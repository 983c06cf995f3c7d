//! Reference results and the output checks.
//!
//! Every check is one operation in the run's attempted/failed tally; a
//! failed check is reported on standard error and makes the run's
//! `correct` false. The checks are:
//!
//! * each cell's result line equals the stepped oracle's
//!   (`fast_forward(false)`);
//! * one `timing_checker(true)` pass per cell is clean against DDR2
//!   timing (the checker panics on a violation), and in the same pass no
//!   `RequestServiced` lacks an earlier `RequestEnqueued` or repeats one;
//! * unfairness, weighted speedup and hmean speedup recomputed from the
//!   line's per-thread counters agree with the line's own values;
//! * every replayed line parses back (`parse_result_line`) to the same
//!   metrics and re-renders to the same bytes.
//!
//! The timed phases add their own checks per repetition (same line every
//! repetition, byte-identical replay, same alone baselines).

use std::any::Any;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use stfm_serve::json::{self, Value};
use stfm_serve::{expand_line, parse_result_line, result_line, run_cell, Cell, ResultCache};
use stfm_sim::{AloneCache, WorkloadMetrics};
use stfm_telemetry::{Event, Sink};

use crate::formulas::{self, ThreadCounters};
use crate::workload::Workload;

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; reports it on standard error if it failed.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }
}

/// The workload's cells with their reference (cold, event-loop) results.
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The spec line.
    pub spec: String,
    /// The expanded cells.
    pub cells: Vec<Cell>,
    /// Alone baselines, warm after preparation.
    pub alone: AloneCache,
    /// Reference result lines, one per cell.
    pub lines: Vec<String>,
    /// Reference metrics, one per cell.
    pub metrics: Vec<WorkloadMetrics>,
    /// Disk-backed result cache directory holding every reference line.
    pub cache_dir: PathBuf,
}

impl Prepared {
    /// Measured-window instructions of cell `i`, summed over threads.
    pub fn insts(&self, i: usize) -> u64 {
        self.metrics
            .get(i)
            .map_or(0, |m| m.threads.iter().map(|t| t.shared.instructions).sum())
    }
}

/// Expands the spec and runs every cell once, cold, through the sweep
/// path into a disk-backed result cache.
///
/// # Errors
///
/// The spec does not expand, or a reference cell fails: nothing can be
/// measured or checked without them.
pub fn prepare(
    workload: Workload,
    seed: u64,
    run_dir: PathBuf,
    tally: &mut Tally,
) -> Result<Prepared, String> {
    let spec = workload.spec_line(seed);
    let cells = expand_line(&spec)?;
    let paper: Vec<String> = workload
        .paper_mix()
        .iter()
        .map(|p| p.name.to_string())
        .collect();
    tally.record(
        cells.len() == 5 && cells.iter().all(|c| c.mix == paper),
        || format!("spec line does not expand to the paper's mix five times: {spec}"),
    );
    let cache_dir = run_dir.join("results");
    let results = ResultCache::with_dir(&cache_dir)
        .map_err(|e| format!("cannot open result cache {}: {e}", cache_dir.display()))?;
    let alone = AloneCache::new();
    let mut lines = Vec::with_capacity(cells.len());
    let mut metrics = Vec::with_capacity(cells.len());
    for cell in &cells {
        let (line, m, _) = run_cell(cell, &alone, &results)?;
        lines.push(line);
        metrics.push(m);
    }
    Ok(Prepared {
        workload,
        spec,
        cells,
        alone,
        lines,
        metrics,
        cache_dir,
    })
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Counts `RequestServiced` events that have no earlier
/// `RequestEnqueued` of the same request, or that repeat one. Only the
/// requests in flight are kept, so the check's memory stays small: a
/// service of a request that is not in flight was either never enqueued
/// or already serviced.
#[derive(Debug, Default)]
pub struct ConservationSink {
    in_flight: HashSet<(u32, u64)>,
    /// Events that broke the rule (including a repeated enqueue id).
    pub violations: u64,
}

impl Sink for ConservationSink {
    fn record(&mut self, event: &Event) {
        let broken = match *event {
            Event::RequestEnqueued {
                channel, request, ..
            } => !self.in_flight.insert((channel, request)),
            Event::RequestServiced {
                channel, request, ..
            } => !self.in_flight.remove(&(channel, request)),
            _ => false,
        };
        self.violations += u64::from(broken);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Per-thread counters of a parsed result line.
fn line_counters(v: &Value) -> Option<Vec<ThreadCounters>> {
    let triple = |x: &Value| -> Option<(u64, u64, u64)> {
        let a = x.as_arr()?;
        Some((
            a.first()?.as_u64()?,
            a.get(1)?.as_u64()?,
            a.get(2)?.as_u64()?,
        ))
    };
    v.get("threads")?
        .as_arr()?
        .iter()
        .map(|t| {
            Some(ThreadCounters {
                shared: triple(t.get("shared")?)?,
                alone: triple(t.get("alone")?)?,
            })
        })
        .collect()
}

/// True when the line's unfairness, weighted speedup and hmean speedup
/// agree with the paper's formulas over its own counters.
pub fn formulas_agree(line: &str) -> bool {
    let Ok(v) = json::parse(line) else {
        return false;
    };
    let Some(threads) = line_counters(&v) else {
        return false;
    };
    let field = |k: &str| v.get(k).and_then(Value::as_f64);
    [
        (field("unfairness"), formulas::unfairness(&threads)),
        (
            field("weighted_speedup"),
            formulas::weighted_speedup(&threads),
        ),
        (field("hmean_speedup"), formulas::hmean_speedup(&threads)),
    ]
    .into_iter()
    .all(|(stored, ours)| stored.is_some_and(|s| formulas::agrees(s, ours)))
}

/// True when `line` parses back to `want`'s metrics exactly and
/// re-renders to the same bytes.
pub fn round_trips(cell: &Cell, line: &str, want: &WorkloadMetrics) -> bool {
    let Ok(parsed) = parse_result_line(line) else {
        return false;
    };
    let m = &parsed.metrics;
    parsed.key == cell.key()
        && result_line(cell, m) == line
        && m.unfairness().to_bits() == want.unfairness().to_bits()
        && m.weighted_speedup().to_bits() == want.weighted_speedup().to_bits()
        && m.hmean_speedup().to_bits() == want.hmean_speedup().to_bits()
        && m.threads.len() == want.threads.len()
        && m.threads
            .iter()
            .zip(&want.threads)
            .all(|(a, b)| a.name == b.name && a.shared == b.shared && a.alone == b.alone)
}

/// The untimed output checks, two runs per cell: the stepped oracle,
/// and one event-loop pass with the timing checker on and the
/// conservation sink attached.
pub fn run_checks(prep: &Prepared, tally: &mut Tally) {
    for (i, cell) in prep.cells.iter().enumerate() {
        let want = &prep.lines[i];
        let token = cell.scheduler.token();
        let Ok(experiment) = cell.to_experiment() else {
            tally.record(false, || format!("{token}: cell does not build"));
            continue;
        };

        let stepped = guarded(|| {
            experiment
                .clone()
                .fast_forward(false)
                .run_with_cache(&prep.alone)
        });
        tally.record(
            stepped.is_ok_and(|m| result_line(cell, &m) == *want),
            || format!("{token}: stepped oracle's line differs from the event loop's"),
        );

        let checked = guarded(|| {
            let mut run = experiment
                .clone()
                .timing_checker(true)
                .run_traced(&prep.alone, Box::new(ConservationSink::default()));
            let violations = run
                .sink
                .as_any_mut()
                .downcast_mut::<ConservationSink>()
                .map(|s| s.violations);
            (result_line(cell, &run.metrics), violations)
        });
        let (clean, conserved) = match &checked {
            Ok((line, v)) => (line == want, *v == Some(0)),
            Err(_) => (false, false),
        };
        tally.record(clean, || {
            format!("{token}: timing-checker pass not clean or line differs")
        });
        tally.record(conserved, || {
            format!("{token}: a serviced request was never enqueued, or serviced twice")
        });

        tally.record(formulas_agree(want), || {
            format!("{token}: recomputed unfairness/speedups disagree with the line")
        });

        tally.record(round_trips(cell, want, &prep.metrics[i]), || {
            format!("{token}: result line does not round-trip through parse_result_line")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stfm_dram::{CpuCycle, CpuDelta, DramCycle};

    fn enq(request: u64) -> Event {
        Event::RequestEnqueued {
            dram_cycle: DramCycle::ZERO,
            cpu_cycle: CpuCycle::ZERO,
            channel: 0,
            bank: 0,
            thread: 0,
            request,
            is_write: false,
        }
    }

    fn done(request: u64) -> Event {
        Event::RequestServiced {
            dram_cycle: DramCycle::ZERO,
            cpu_cycle: CpuCycle::ZERO,
            channel: 0,
            bank: 0,
            thread: 0,
            request,
            is_write: false,
            latency_cpu: CpuDelta::new(1),
        }
    }

    #[test]
    fn conservation_flags_orphans_and_repeats() {
        let mut s = ConservationSink::default();
        for e in [enq(1), done(1), enq(2)] {
            s.record(&e);
        }
        assert_eq!(s.violations, 0);
        s.record(&done(3)); // never enqueued
        s.record(&done(1)); // serviced twice
        assert_eq!(s.violations, 2);
    }

    #[test]
    fn formulas_check_rejects_a_doctored_line() {
        let cell = Cell::new(
            stfm_serve::SchedSpec::Stfm,
            vec!["mcf".into(), "libquantum".into()],
        )
        .insts(1_000);
        let m = cell.to_experiment().unwrap().run();
        let line = result_line(&cell, &m);
        assert!(formulas_agree(&line));
        assert!(round_trips(&cell, &line, &m));
        let doctored = line.replacen("\"unfairness\":", "\"unfairness\":1", 1);
        assert!(!formulas_agree(&doctored));
    }
}
