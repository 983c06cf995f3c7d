//! The timed phases of a run, driven through the program's public entry
//! points from one thread.
//!
//! A run is a sequence of *rounds*, repeated until its time is spent.
//! Each round does, in order:
//!
//! 1. [`SETUPS_PER_ROUND`] cold set-ups: `expand_line` on the spec plus
//!    every alone baseline (`run_alone`), which is what a cold sweep
//!    computes on an empty `AloneCache` before its first cell;
//! 2. the workload's five cells, each through `stfm_serve::run_cell` (the
//!    `stfm sweep` path, event loop) on an empty `ResultCache` and the
//!    warm `AloneCache`;
//! 3. one replay block: `stfm_serve::serve` sessions with one worker,
//!    each replaying the spec line [`REPLAY_LINES`] times from an
//!    in-memory reader against a freshly opened, warm disk-backed
//!    `ResultCache`, until the block has taken a quarter of the round's
//!    cell time. A cell's first answer in a session reads its file and
//!    verifies the checksum; the later ones come from the cache's
//!    in-process memo (still parsed and validated).
//!
//! Interleaving the three keeps a slow host phase from landing on one
//! quantity only; every quantity is reduced with [`stats::steady`].
//! Only the program's own work is timed: the checks on its outputs run
//! outside the timed spans.

use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

use stfm_dram::DramConfig;
use stfm_serve::spec::lookup_benchmark;
use stfm_serve::{expand_line, run_cell, serve, ResultCache, ServeConfig, ServeTotals};
use stfm_sim::run_alone;

use crate::checks::{guarded, Prepared, Tally};
use crate::stats;

/// Times each replay session sends the spec line.
pub const REPLAY_LINES: usize = 64;

/// Cold set-ups timed per round: a set-up is short next to the cells,
/// so a few per round give it as many chances as they get to land in a
/// quiet moment.
const SETUPS_PER_ROUND: usize = 3;

/// Which parts of a round to run.
#[derive(Debug, Clone, Copy)]
pub struct RoundPlan {
    /// Time a cold set-up each round.
    pub setup: bool,
    /// Time a replay block each round.
    pub replay: bool,
}

/// Raw durations (seconds) collected over a run's rounds.
#[derive(Debug, Default)]
pub struct Samples {
    /// Every cold set-up.
    pub setup: Vec<f64>,
    /// Per cell, one cold run per round.
    pub cell: Vec<Vec<f64>>,
    /// One duration per replay session.
    pub replay: Vec<f64>,
    /// Cells answered per replay session.
    pub replay_cells: u64,
}

impl Samples {
    /// Measured-window instructions per host second of cold cells.
    pub fn insts_per_s(&self, prep: &Prepared) -> Option<f64> {
        let insts: u64 = (0..prep.cells.len()).map(|i| prep.insts(i)).sum();
        let secs: f64 = self
            .cell
            .iter()
            .map(|t| stats::steady(t))
            .sum::<Option<f64>>()?;
        (secs > 0.0).then(|| insts as f64 / secs)
    }

    /// Cells answered per second by the warm serve path.
    pub fn replay_cells_per_s(&self) -> Option<f64> {
        let session = stats::steady(&self.replay)?;
        (session > 0.0).then(|| self.replay_cells as f64 / session)
    }
}

/// One cold set-up; checks the baselines against the reference lines.
fn setup_once(prep: &Prepared, tally: &mut Tally) -> Result<f64, String> {
    let t0 = Instant::now();
    let cells = expand_line(&prep.spec)?;
    let first = cells.first().ok_or("spec expanded to no cells")?;
    let dram = DramConfig::for_cores(u32::try_from(first.mix.len()).unwrap_or(u32::MAX));
    let mut baselines = Vec::with_capacity(first.mix.len());
    for (i, name) in first.mix.iter().enumerate() {
        if first.mix[..i].contains(name) {
            continue;
        }
        let profile = lookup_benchmark(name)?;
        baselines.push((i, run_alone(&profile, &dram, first.insts, first.seed)));
    }
    let secs = t0.elapsed().as_secs_f64();
    let reference = prep.metrics.first().map(|m| &m.threads);
    tally.record(
        reference.is_some_and(|threads| {
            baselines
                .iter()
                .all(|(i, s)| threads.get(*i).is_some_and(|t| t.alone == *s))
        }),
        || "cold alone baselines differ from the cells' alone stats".into(),
    );
    black_box(cells);
    Ok(secs)
}

/// One warm replay session. Returns the session's totals and the host
/// seconds `serve` took; the checks (every answer a cache hit,
/// byte-identical to the cold line) run after the timed call.
///
/// `out` is cleared and reused, so the benchmark's own output buffer
/// neither grows nor faults in fresh pages during a timed session.
///
/// # Errors
///
/// The cache directory cannot be opened or the session fails.
pub fn replay_session(
    prep: &Prepared,
    input: &str,
    out: &mut Vec<u8>,
    tally: &mut Tally,
) -> Result<(ServeTotals, f64), String> {
    let results = ResultCache::with_dir(&prep.cache_dir)
        .map_err(|e| format!("cannot open result cache: {e}"))?;
    out.clear();
    let t0 = Instant::now();
    let totals = serve(
        Cursor::new(input.as_bytes()),
        &mut *out,
        &prep.alone,
        &results,
        &ServeConfig::with_jobs(Some(1)),
    )
    .map_err(|e| format!("serve failed: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(out);
    let mut replayed = text
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"result\""));
    let identical = (0..REPLAY_LINES).all(|_| {
        prep.lines
            .iter()
            .all(|want| replayed.next() == Some(want.as_str()))
    }) && replayed.next().is_none();
    tally.record(
        identical && totals.cache_hits == totals.cells && totals.errors == 0,
        || "replayed lines are not byte-identical cache hits of the cold lines".into(),
    );
    Ok((totals, secs))
}

/// The input of a replay session: the spec line, [`REPLAY_LINES`] times.
pub fn replay_input(prep: &Prepared) -> String {
    format!("{}\n", prep.spec).repeat(REPLAY_LINES)
}

/// Runs rounds until `budget` has passed (at least `min_rounds`).
///
/// # Errors
///
/// A set-up or replay session could not run at all.
pub fn rounds(
    prep: &Prepared,
    plan: RoundPlan,
    budget: Duration,
    min_rounds: usize,
    tally: &mut Tally,
) -> Result<Samples, String> {
    let mut s = Samples {
        cell: vec![Vec::new(); prep.cells.len()],
        ..Samples::default()
    };
    let input = replay_input(prep);
    let mut out = Vec::new();
    let start = Instant::now();
    let mut done = 0usize;
    while done < min_rounds || start.elapsed() < budget {
        if plan.setup {
            for _ in 0..SETUPS_PER_ROUND {
                s.setup.push(setup_once(prep, tally)?);
            }
        }
        let results = ResultCache::in_memory();
        let mut cells_s = 0.0;
        for (i, cell) in prep.cells.iter().enumerate() {
            let t0 = Instant::now();
            let out = guarded(|| run_cell(cell, &prep.alone, &results));
            let secs = t0.elapsed().as_secs_f64();
            s.cell[i].push(secs);
            cells_s += secs;
            tally.record(
                matches!(&out, Ok(Ok((line, _, false))) if *line == prep.lines[i]),
                || format!("{}: cold repetition differs", cell.scheduler.token()),
            );
        }
        if plan.replay {
            let mut block_s = 0.0;
            while block_s < cells_s / 4.0 {
                let (totals, secs) = replay_session(prep, &input, &mut out, tally)?;
                s.replay.push(secs);
                s.replay_cells = totals.cells;
                block_s += secs;
            }
        }
        done += 1;
    }
    Ok(s)
}
