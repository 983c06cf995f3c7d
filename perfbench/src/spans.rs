//! In-memory span log for the traced run, and self-time arithmetic.
//!
//! A span is one timed call group at a layer boundary: its layer, the
//! cell it belongs to, its parent span, and its start and end on the
//! run's monotonic clock. Spans nest strictly (the stepper is single
//! threaded and opens/closes them in stack order), so a span's *self
//! time* is its duration minus the summed durations of its direct
//! children.

use std::io::{self, Write};
use std::time::Instant;

/// The call groups the traced stepper records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One whole cell stepped to its end (the root of a cell's spans).
    Cell,
    /// `MemorySystem::tick`: controller, calendar, DRAM timing state and
    /// the scheduling policy (`stfm-mc`, `stfm-dram`, `stfm-core`).
    Tick,
    /// `drain_completions` plus `Core::push_completion`.
    Reap,
    /// Ten `Core::step` calls of one core (`stfm-cpu`).
    Step,
    /// One `SyntheticTrace::next_op` (`stfm-workloads`), inside a step.
    Gen,
}

impl Layer {
    /// The span name used in reports and the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Cell => "cell",
            Layer::Tick => "mc.tick",
            Layer::Reap => "mc.reap",
            Layer::Step => "cpu.step",
            Layer::Gen => "workloads.gen",
        }
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Cell index within the workload.
    pub cell: u8,
    /// Which call group.
    pub layer: Layer,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    cell: u8,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cell: 0,
        }
    }
}

impl SpanLog {
    /// Drops every span (keeping the allocation) and stamps `cell` on
    /// the spans opened from now on.
    pub fn clear(&mut self, cell: u8) {
        self.spans.clear();
        self.stack.clear();
        self.cell = cell;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, layer: Layer) {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now_ns();
        let idx = u32::try_from(self.spans.len()).unwrap_or(NO_PARENT);
        self.spans.push(Span {
            start,
            end: start,
            parent,
            cell: self.cell,
            layer,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        if let Some(span) = self
            .stack
            .pop()
            .and_then(|idx| self.spans.get_mut(idx as usize))
        {
            span.end = end;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Header of the span dump.
pub const CSV_HEADER: &str = "index,parent,cell,layer,start_ns,end_ns";

/// Writes `spans` as CSV rows (no header). `index` and `parent` count
/// within `spans`, so together with `cell` they identify a span.
///
/// # Errors
///
/// Writing to `out` failed.
pub fn write_csv(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            String::new()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i},{parent},{},{},{},{}",
            s.cell,
            s.layer.name(),
            s.start,
            s.end
        )?;
    }
    Ok(())
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(slot) = child_sum.get_mut(s.parent as usize) {
            *slot += s.duration();
        }
    }
    spans
        .iter()
        .zip(child_sum)
        .map(|(s, c)| s.duration().saturating_sub(c))
        .collect()
}

/// Self time (ns) summed per `(cell, layer)`.
pub fn self_by_cell_layer(spans: &[Span]) -> std::collections::BTreeMap<(u8, Layer), u64> {
    let mut out = std::collections::BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry((s.cell, s.layer)).or_insert(0) += own;
    }
    out
}

/// Total duration (ns) of a cell's root spans.
pub fn cell_total(spans: &[Span], cell: u8) -> u64 {
    spans
        .iter()
        .filter(|s| s.cell == cell && s.layer == Layer::Cell)
        .map(Span::duration)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32, layer: Layer) -> Span {
        Span {
            start,
            end,
            parent,
            cell: 0,
            layer,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // cell [0,100) > step [10,60) > gen [20,30), gen [40,45);
        //              > tick [60,90)
        let spans = [
            span(0, 100, NO_PARENT, Layer::Cell),
            span(10, 60, 0, Layer::Step),
            span(20, 30, 1, Layer::Gen),
            span(40, 45, 1, Layer::Gen),
            span(60, 90, 0, Layer::Tick),
        ];
        assert_eq!(self_times(&spans), vec![20, 35, 10, 5, 30]);
        let by = self_by_cell_layer(&spans);
        assert_eq!(by[&(0, Layer::Gen)], 15);
        assert_eq!(by[&(0, Layer::Step)], 35);
        assert_eq!(by[&(0, Layer::Cell)], 20);
        // Self times partition the root's duration.
        assert_eq!(by.values().sum::<u64>(), 100);
        assert_eq!(cell_total(&spans, 0), 100);
    }

    #[test]
    fn log_nests_in_stack_order() {
        let mut log = SpanLog::default();
        log.clear(3);
        log.enter(Layer::Cell);
        log.enter(Layer::Step);
        log.enter(Layer::Gen);
        log.exit();
        log.exit();
        log.enter(Layer::Tick);
        log.exit();
        log.exit();
        let s = log.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!(s[1].parent, 0);
        assert_eq!(s[2].parent, 1);
        assert_eq!(s[3].parent, 0);
        assert!(s.iter().all(|x| x.cell == 3 && x.end >= x.start));
        assert!(s[0].end >= s[3].end && s[1].end <= s[3].start);
        let mut csv = Vec::new();
        write_csv(s, &mut csv).unwrap();
        assert_eq!(
            csv.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count(),
            4
        );
        log.clear(1);
        assert!(log.spans().is_empty());
    }
}
