//! The traced run: a traced stepper with spans at every layer boundary,
//! an event-loop replica for the loop's cycle counts and work counters,
//! and an isolated regeneration of the consumed trace ops.
//!
//! The stepper builds each cell's `MemorySystem`, `Core`s and
//! `SyntheticTrace`s from their public constructors, as `Experiment`
//! does, and steps them in the structure of `System::tick`:
//! `MemorySystem::tick`, then `drain_completions` → `push_completion`,
//! then ten `Core::step` per core. It stops when every core has
//! committed warmup plus budget, so it must end on the same DRAM cycle
//! as the event loop and freeze the same statistics.

use std::any::Any;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use stfm_cpu::{Core, CoreConfig, CoreStats, TraceOp, TraceSource};
use stfm_dram::{DramConfig, DramCycle, CPU_CYCLES_PER_DRAM_CYCLE};
use stfm_mc::{ControllerConfig, MemorySystem, ThreadId};
use stfm_serve::spec::lookup_benchmark;
use stfm_serve::Cell;
use stfm_sim::experiment::default_warmup;
use stfm_sim::System;
use stfm_telemetry::{Event, Sink};
use stfm_workloads::{Profile, SyntheticTrace};

use crate::spans::{Layer, SpanLog};

/// The simulator's run cap: `insts × 4000` CPU cycles per thread.
const MAX_CPI: u64 = 4_000;

/// A `SyntheticTrace` that counts the ops it hands out and records a
/// [`Layer::Gen`] span around each.
struct CountingTrace {
    inner: SyntheticTrace,
    ops: Rc<RefCell<u64>>,
    log: Rc<RefCell<SpanLog>>,
}

impl TraceSource for CountingTrace {
    fn next_op(&mut self) -> TraceOp {
        self.log.borrow_mut().enter(Layer::Gen);
        let op = self.inner.next_op();
        self.log.borrow_mut().exit();
        *self.ops.borrow_mut() += 1;
        op
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// What the stepper saw for one cell.
#[derive(Debug, Clone)]
pub struct StepperOut {
    /// DRAM cycles ticked.
    pub dram_cycles: u64,
    /// Per-core statistics over the measured window.
    pub frozen: Vec<CoreStats>,
    /// Trace ops consumed, per core.
    pub ops: Vec<u64>,
}

fn profiles(cell: &Cell) -> Result<Vec<Profile>, String> {
    cell.mix.iter().map(|n| lookup_benchmark(n)).collect()
}

/// The memory system `Experiment` builds for `cell` (no DRAM overrides,
/// no α override: the benchmark's cells carry neither).
fn memory(cell: &Cell, dram: &DramConfig) -> MemorySystem {
    let policy = cell.scheduler.kind().build(dram.timing, &[], &[]);
    MemorySystem::with_controller_config(dram.clone(), ControllerConfig::paper_baseline(), policy)
}

fn dram_for(cell: &Cell) -> DramConfig {
    DramConfig::for_cores(u32::try_from(cell.mix.len()).unwrap_or(u32::MAX))
}

/// Steps `cell` to its end with spans around every call group.
///
/// # Errors
///
/// Unknown benchmark, or the run cap was reached first.
pub fn step_traced(cell: &Cell, log: &Rc<RefCell<SpanLog>>) -> Result<StepperOut, String> {
    let dram = dram_for(cell);
    let mut mem = memory(cell, &dram);
    let counters: Vec<Rc<RefCell<u64>>> = cell.mix.iter().map(|_| Rc::default()).collect();
    let mut cores: Vec<Core> = profiles(cell)?
        .into_iter()
        .zip(&counters)
        .zip(0u32..)
        .map(|((p, ops), i)| {
            let trace = CountingTrace {
                inner: SyntheticTrace::new(p, &dram, i, cell.seed),
                ops: Rc::clone(ops),
                log: Rc::clone(log),
            };
            Core::with_config(ThreadId(i), Box::new(trace), CoreConfig::paper_baseline())
        })
        .collect();

    let n = cores.len();
    let warmup = default_warmup(cell.insts);
    let budget = warmup + cell.insts;
    let cap = cell.insts.saturating_mul(MAX_CPI) / CPU_CYCLES_PER_DRAM_CYCLE;
    let mut baseline: Vec<Option<CoreStats>> = vec![None; n];
    let mut frozen: Vec<Option<CoreStats>> = vec![None; n];
    let mut remaining = n;
    let mut now = DramCycle::ZERO;

    log.borrow_mut().enter(Layer::Cell);
    while remaining > 0 {
        log.borrow_mut().enter(Layer::Tick);
        mem.tick(now);
        log.borrow_mut().exit();

        log.borrow_mut().enter(Layer::Reap);
        for c in mem.drain_completions() {
            if let Some(core) = cores.get_mut(c.thread.0 as usize) {
                core.push_completion(c);
            }
        }
        log.borrow_mut().exit();

        for core in &mut cores {
            log.borrow_mut().enter(Layer::Step);
            for _ in 0..CPU_CYCLES_PER_DRAM_CYCLE {
                core.step(&mut mem);
            }
            log.borrow_mut().exit();
        }
        now += 1;

        // The measurement window, as `System` tracks it.
        for (i, core) in cores.iter().enumerate() {
            let insts = core.stats().instructions;
            if baseline[i].is_none() && insts >= warmup {
                baseline[i] = Some(*core.stats());
                mem.reset_max_read_latency(ThreadId(i as u32));
            }
            if frozen[i].is_none() && insts >= budget {
                frozen[i] = Some(*core.stats());
                remaining -= 1;
            }
        }
        if now.get() >= cap {
            log.borrow_mut().exit();
            return Err(format!(
                "{}: stepper hit the run cap",
                cell.scheduler.token()
            ));
        }
    }
    log.borrow_mut().exit();

    let frozen = frozen
        .into_iter()
        .zip(baseline)
        .filter_map(|(f, b)| Some(f?.minus(&b?)))
        .collect();
    Ok(StepperOut {
        dram_cycles: now.get(),
        frozen,
        ops: counters.iter().map(|c| *c.borrow()).collect(),
    })
}

/// The controller and estimator work counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Channel scheduling passes.
    pub sched_visits: u64,
    /// Full per-bank rank passes.
    pub rank_scans: u64,
    /// Per-bank decisions served from the cross-tick cache.
    pub rank_carried: u64,
    /// STFM estimator full rebuilds.
    pub full_rebuilds: u64,
    /// STFM estimator incremental updates.
    pub incremental_updates: u64,
    /// STFM decision passes that recomputed slowdowns.
    pub decides_recomputed: u64,
    /// STFM decision passes served from the previous result.
    pub decides_carried: u64,
}

/// Captures the `EstimatorWork` snapshot.
#[derive(Debug, Default)]
struct WorkCapture(Option<WorkCounts>);

impl Sink for WorkCapture {
    fn record(&mut self, event: &Event) {
        if let Event::EstimatorWork {
            full_rebuilds,
            incremental_updates,
            decides_recomputed,
            decides_carried,
            sched_visits,
            rank_scans,
            rank_carried,
            ..
        } = *event
        {
            self.0 = Some(WorkCounts {
                sched_visits,
                rank_scans,
                rank_carried,
                full_rebuilds,
                incremental_updates,
                decides_recomputed,
                decides_carried,
            });
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What the event-loop replica reports for one cell.
#[derive(Debug, Clone)]
pub struct ReplicaOut {
    /// DRAM cycles simulated.
    pub dram_cycles: u64,
    /// Cycles skipped by whole-system jumps.
    pub jumped: u64,
    /// Cycles whose memory tick was elided while cores ran.
    pub elided: u64,
    /// Per-core statistics over the measured window.
    pub frozen: Vec<CoreStats>,
    /// Work counters at the end of the run.
    pub work: WorkCounts,
}

/// Builds `cell`'s `System` as `Experiment` does and runs it on the
/// event loop with `run_with_warmup`.
///
/// # Errors
///
/// Unknown benchmark, a truncated run, or no work snapshot.
pub fn replica(cell: &Cell) -> Result<ReplicaOut, String> {
    let dram = dram_for(cell);
    let mem = memory(cell, &dram);
    let cores: Vec<Core> = profiles(cell)?
        .into_iter()
        .zip(0u32..)
        .map(|(p, i)| {
            let trace = SyntheticTrace::new(p, &dram, i, cell.seed);
            Core::with_config(ThreadId(i), Box::new(trace), CoreConfig::paper_baseline())
        })
        .collect();
    let mut sys = System::new(cores, mem);
    let out = sys.run_with_warmup(
        default_warmup(cell.insts),
        cell.insts,
        cell.insts.saturating_mul(MAX_CPI),
    );
    if out.truncated || out.cancelled {
        return Err(format!("{}: replica run truncated", cell.scheduler.token()));
    }
    // Attach the capture only now: the run itself stays untraced.
    sys.memory_mut().set_sink(Box::new(WorkCapture::default()));
    sys.memory_mut().record_work_counters();
    let mut sink = sys.memory_mut().take_sink();
    let work = sink
        .as_any_mut()
        .downcast_mut::<WorkCapture>()
        .and_then(|w| w.0)
        .ok_or("no EstimatorWork snapshot recorded")?;
    Ok(ReplicaOut {
        dram_cycles: out.cpu_cycles / CPU_CYCLES_PER_DRAM_CYCLE,
        jumped: sys.jumped_cycles(),
        elided: sys.elided_cycles(),
        frozen: out.frozen,
        work,
    })
}

/// Regenerates, in isolation, `ops[i]` ops of each of `cell`'s traces
/// and returns the host seconds it took.
///
/// # Errors
///
/// Unknown benchmark.
pub fn regenerate(cell: &Cell, ops: &[u64]) -> Result<f64, String> {
    let dram = dram_for(cell);
    let mut traces: Vec<SyntheticTrace> = profiles(cell)?
        .into_iter()
        .zip(0u32..)
        .map(|(p, i)| SyntheticTrace::new(p, &dram, i, cell.seed))
        .collect();
    let t0 = Instant::now();
    for (trace, &count) in traces.iter_mut().zip(ops) {
        for _ in 0..count {
            black_box(trace.next_op());
        }
    }
    Ok(t0.elapsed().as_secs_f64())
}
