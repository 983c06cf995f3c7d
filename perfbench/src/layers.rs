//! The per-layer metrics of a `--trace 1` run.
//!
//! Host times come from the traced stepper unless a metric is marked
//! untraced; counts come from the event-loop replica and repeat exactly.
//! Every time here is summed over the workload's five cells, and every
//! timed part is repeated and reduced to its fastest repetition.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use stfm_serve::{expand_line, parse_result_line, result_line, ResultCache};
use stfm_sim::WorkloadMetrics;

use crate::checks::{self, Prepared, Tally};
use crate::measure::{self, RoundPlan};
use crate::spans::{self, Layer, Span, SpanLog};
use crate::stats;
use crate::traced::{self, WorkCounts};
use crate::Metric;

/// Repetitions of each isolated serve-layer measurement.
const SERVE_REPS: usize = 40;

/// Warm replay sessions whose cache hits are counted.
const SERVE_SESSIONS: usize = 4;

/// Repetitions of each cell's traced stepper, and of its untraced
/// stepped run, interleaved.
const TRACE_REPS: usize = 3;

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn shared_stats(m: &WorkloadMetrics) -> Vec<stfm_cpu::CoreStats> {
    m.threads.iter().map(|t| t.shared).collect()
}

/// Isolated timings of the serve layer's parts, per replay of the spec
/// line: (expand, lookup, line render + parse) in seconds, steady.
fn serve_parts(prep: &Prepared) -> Result<(f64, f64, f64), String> {
    let keys: Vec<String> = prep.cells.iter().map(stfm_serve::Cell::key).collect();
    let (mut expand, mut lookup, mut line) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SERVE_REPS {
        let t0 = Instant::now();
        black_box(expand_line(&prep.spec)?);
        expand.push(t0.elapsed().as_secs_f64());

        let cache = ResultCache::with_dir(&prep.cache_dir)
            .map_err(|e| format!("cannot open result cache: {e}"))?;
        let t0 = Instant::now();
        for key in &keys {
            black_box(
                cache
                    .lookup(key)
                    .ok_or("warm cache missed a reference cell")?,
            );
        }
        lookup.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        for (cell, m) in prep.cells.iter().zip(&prep.metrics) {
            black_box(parse_result_line(&result_line(cell, m))?);
        }
        line.push(t0.elapsed().as_secs_f64());
    }
    let steady = |xs: &[f64]| stats::steady(xs).unwrap_or(0.0);
    Ok((steady(&expand), steady(&lookup), steady(&line)))
}

/// Cache hits over a fixed number of warm serve sessions.
fn serve_hits(prep: &Prepared, tally: &mut Tally) -> Result<u64, String> {
    let input = measure::replay_input(prep);
    let mut out = Vec::new();
    let mut hits = 0;
    for _ in 0..SERVE_SESSIONS {
        hits += measure::replay_session(prep, &input, &mut out, tally)?
            .0
            .cache_hits;
    }
    Ok(hits)
}

/// The STFM estimator's own cost in `MemorySystem::tick`: the STFM
/// cell's tick time beyond what FR-FCFS spends per ticked DRAM cycle,
/// over the STFM cell's cycles. The two cells tick different numbers of
/// cycles (their schedules differ), so the raw difference would mix the
/// estimator's cost with the difference in run length.
pub fn stfm_extra_s(stfm: (f64, u64), frfcfs: (f64, u64)) -> f64 {
    let per_cycle = |(secs, cycles): (f64, u64)| secs / cycles.max(1) as f64;
    (per_cycle(stfm) - per_cycle(frfcfs)) * stfm.1 as f64
}

/// The traced view of one cell, from its fastest traced repetition.
struct CellTrace {
    token: &'static str,
    /// DRAM cycles the stepper ticked.
    cycles: u64,
    /// Wall time of the traced cell, ns.
    total_ns: u64,
    /// Self time per layer, ns.
    by_layer: BTreeMap<Layer, u64>,
    /// Fastest untraced stepped run of the same cell, s.
    stepped_s: f64,
    /// Fastest isolated regeneration of the consumed trace ops, s.
    gen_s: f64,
}

impl CellTrace {
    fn layer_s(&self, layer: Layer) -> f64 {
        ns_to_s(self.by_layer.get(&layer).copied().unwrap_or(0))
    }
}

/// Steps cell `i` [`TRACE_REPS`] times with spans, interleaved with as
/// many untraced stepped runs, and checks every repetition against the
/// event-loop replica and the cell's reference stats. The span log is
/// reused across repetitions; with `dump`, the fastest repetition's
/// spans are appended to it as CSV.
fn trace_cell(
    prep: &Prepared,
    i: usize,
    replica: &traced::ReplicaOut,
    log: &Rc<RefCell<SpanLog>>,
    tally: &mut Tally,
    dump: Option<&mut BufWriter<File>>,
) -> Result<CellTrace, String> {
    let cell = &prep.cells[i];
    let token = cell.scheduler.token();
    let id = u8::try_from(i).unwrap_or(u8::MAX);
    let experiment = cell.to_experiment()?.fast_forward(false);
    let want = shared_stats(&prep.metrics[i]);
    let mut best: Option<CellTrace> = None;
    let mut best_spans: Vec<Span> = Vec::new();
    let mut stepped_s = f64::INFINITY;
    let mut gen_s = f64::INFINITY;
    for _ in 0..TRACE_REPS {
        log.borrow_mut().clear(id);
        let stepped = traced::step_traced(cell, log)?;
        tally.record(stepped.dram_cycles == replica.dram_cycles, || {
            format!(
                "{token}: stepper ended on DRAM cycle {}, event loop on {}",
                stepped.dram_cycles, replica.dram_cycles
            )
        });
        tally.record(stepped.frozen == want, || {
            format!("{token}: stepper's frozen stats differ from the cell's")
        });
        let log = log.borrow();
        let total_ns = spans::cell_total(log.spans(), id);
        if best.as_ref().is_none_or(|b| total_ns < b.total_ns) {
            let by_layer = spans::self_by_cell_layer(log.spans())
                .into_iter()
                .map(|((_, layer), ns)| (layer, ns))
                .collect();
            best = Some(CellTrace {
                token,
                cycles: stepped.dram_cycles,
                total_ns,
                by_layer,
                stepped_s: 0.0,
                gen_s: 0.0,
            });
            if dump.is_some() {
                best_spans.clear();
                best_spans.extend_from_slice(log.spans());
            }
        }
        drop(log);

        let t0 = Instant::now();
        black_box(experiment.run_with_cache(&prep.alone));
        stepped_s = stepped_s.min(t0.elapsed().as_secs_f64());
        gen_s = gen_s.min(traced::regenerate(cell, &stepped.ops)?);
    }
    if let Some(out) = dump {
        spans::write_csv(&best_spans, out).map_err(|e| format!("cannot write spans: {e}"))?;
    }
    let mut best = best.ok_or("no traced repetition ran")?;
    best.stepped_s = stepped_s;
    best.gen_s = gen_s;
    Ok(best)
}

/// Runs the traced measurements and returns every per-layer metric.
///
/// # Errors
///
/// A part of the traced run could not run at all.
pub fn traced_metrics(
    prep: &Prepared,
    budget: Duration,
    tally: &mut Tally,
    spans_out: Option<&Path>,
) -> Result<Vec<Metric>, String> {
    let start = Instant::now();
    checks::run_checks(prep, tally);

    let mut dump = match spans_out {
        Some(path) => {
            let mut f = BufWriter::new(
                File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?,
            );
            writeln!(f, "{}", spans::CSV_HEADER).map_err(|e| format!("cannot write spans: {e}"))?;
            Some(f)
        }
        None => None,
    };
    let log = Rc::new(RefCell::new(SpanLog::default()));
    let mut work = WorkCounts::default();
    let (mut dram_cycles, mut jumped, mut elided) = (0u64, 0u64, 0u64);
    let mut rows = Vec::new();
    eprintln!("traced layer split (fastest repetition; self time, share of the traced cell):");
    for (i, cell) in prep.cells.iter().enumerate() {
        let token = cell.scheduler.token();
        let replica = traced::replica(cell)?;
        tally.record(replica.frozen == shared_stats(&prep.metrics[i]), || {
            format!("{token}: event-loop replica's frozen stats differ from the cell's")
        });
        let row = trace_cell(prep, i, &replica, &log, tally, dump.as_mut())?;
        dram_cycles += replica.dram_cycles;
        jumped += replica.jumped;
        elided += replica.elided;
        let w = replica.work;
        work.sched_visits += w.sched_visits;
        work.rank_scans += w.rank_scans;
        work.rank_carried += w.rank_carried;
        work.full_rebuilds += w.full_rebuilds;
        work.incremental_updates += w.incremental_updates;
        work.decides_recomputed += w.decides_recomputed;
        work.decides_carried += w.decides_carried;

        let total = row.total_ns.max(1) as f64;
        let share = |l: Layer| 100.0 * row.by_layer.get(&l).copied().unwrap_or(0) as f64 / total;
        let skip = (replica.jumped + replica.elided) as f64 / replica.dram_cycles.max(1) as f64;
        eprintln!(
            "  {token:<7} tick {:5.1}%  reap {:4.1}%  step {:5.1}%  gen {:4.1}%  loop {:4.1}%  \
             traced {:.3} s  stepped {:.3} s  cycles {}  jumped {}  elided {}  skip {:.4}",
            share(Layer::Tick),
            share(Layer::Reap),
            share(Layer::Step),
            share(Layer::Gen),
            share(Layer::Cell),
            ns_to_s(row.total_ns),
            row.stepped_s,
            replica.dram_cycles,
            replica.jumped,
            replica.elided,
            skip
        );
        rows.push(row);
    }
    drop(log);
    if let Some(mut f) = dump {
        f.flush().map_err(|e| format!("cannot write spans: {e}"))?;
    }

    let layer_s = |layer: Layer| -> f64 { rows.iter().map(|r| r.layer_s(layer)).sum() };
    let tick_of = |token: &str| {
        rows.iter()
            .find(|r| r.token == token)
            .map_or((0.0, 0), |r| (r.layer_s(Layer::Tick), r.cycles))
    };
    let overhead_s: f64 = rows.iter().map(|r| ns_to_s(r.total_ns) - r.stepped_s).sum();
    let gen_s: f64 = rows.iter().map(|r| r.gen_s).sum();

    let (expand_s, lookup_s, line_s) = serve_parts(prep)?;
    let cache_hits = serve_hits(prep, tally)?;

    let remaining = budget.saturating_sub(start.elapsed());
    let plan = RoundPlan {
        setup: false,
        replay: false,
    };
    let samples = measure::rounds(prep, plan, remaining, 3, tally)?;

    let mut out = Vec::new();
    for (cell, times) in prep.cells.iter().zip(&samples.cell) {
        out.push(Metric::new(
            format!("sim.cell_s.{}", cell.scheduler.token()),
            stats::steady(times).unwrap_or(0.0),
            "s",
        ));
    }
    let skip_ratio = (jumped + elided) as f64 / dram_cycles.max(1) as f64;
    let count = |name: &str, v: u64| Metric::new(name.to_string(), v as f64, "count");
    out.extend([
        Metric::new("mc.tick_s".into(), layer_s(Layer::Tick), "s"),
        Metric::new(
            "core.stfm_extra_s".into(),
            stfm_extra_s(tick_of("stfm"), tick_of("frfcfs")),
            "s",
        ),
        Metric::new("mc.reap_s".into(), layer_s(Layer::Reap), "s"),
        Metric::new("cpu.step_s".into(), layer_s(Layer::Step), "s"),
        Metric::new("workloads.gen_s".into(), gen_s, "s"),
        count("sim.dram_cycles", dram_cycles),
        count("sim.jumped_cycles", jumped),
        count("sim.elided_cycles", elided),
        Metric::new("sim.skip_ratio".into(), skip_ratio, "ratio"),
        count("mc.sched_visits", work.sched_visits),
        count("mc.rank_scans", work.rank_scans),
        count("mc.rank_carried", work.rank_carried),
        count("core.full_rebuilds", work.full_rebuilds),
        count("core.incremental_updates", work.incremental_updates),
        count("core.decides_recomputed", work.decides_recomputed),
        count("core.decides_carried", work.decides_carried),
        Metric::new("serve.expand_s".into(), expand_s, "s"),
        Metric::new("serve.lookup_s".into(), lookup_s, "s"),
        Metric::new("serve.line_s".into(), line_s, "s"),
        count("serve.cache_hits", cache_hits),
        Metric::new("trace.overhead_s".into(), overhead_s, "s"),
    ]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stfm_extra_is_normalised_per_ticked_cycle() {
        // Same cost per cycle: no extra, however long each cell ran.
        assert_eq!(stfm_extra_s((2.0, 200), (1.0, 100)), 0.0);
        // 3 ns against 1 ns per cycle over the STFM cell's 100 cycles.
        let extra = stfm_extra_s((300e-9, 100), (150e-9, 150));
        assert!((extra - 200e-9).abs() < 1e-18);
        // A longer FR-FCFS run alone never makes the extra negative.
        assert!(stfm_extra_s((1.0, 100), (5.0, 500)) >= 0.0);
    }
}
