//! The paper's fairness and throughput formulas (Section 6.2),
//! recomputed independently of `stfm_sim::metrics` from the per-thread
//! shared/alone counters a result line carries.
//!
//! * memory slowdown `S_i = MCPI_shared / MCPI_alone`, with
//!   `MCPI = stall cycles / instructions`;
//! * unfairness `max S_i / min S_i`;
//! * weighted speedup `Σ IPC_shared / IPC_alone`;
//! * hmean speedup `N / Σ (IPC_alone / IPC_shared)`.
//!
//! The simulator regularizes the slowdown ratio with a small constant
//! added to both MCPIs (benchmarks such as povray barely stall, which
//! makes the bare ratio ill-conditioned); the same constant is used here
//! so the two computations agree to float rounding.

/// The simulator's MCPI regularization constant.
pub const MCPI_EPSILON: f64 = 0.005;

/// The counters one thread contributes: `(cycles, instructions,
/// memory-stall cycles)`, for the shared run and the alone run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCounters {
    /// Shared-run `(cycles, instructions, stall cycles)`.
    pub shared: (u64, u64, u64),
    /// Alone-run `(cycles, instructions, stall cycles)`.
    pub alone: (u64, u64, u64),
}

fn ipc((cycles, insts, _): (u64, u64, u64)) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        insts as f64 / cycles as f64
    }
}

fn mcpi((_, insts, stalls): (u64, u64, u64)) -> f64 {
    if insts == 0 {
        0.0
    } else {
        stalls as f64 / insts as f64
    }
}

/// Memory slowdown of one thread.
pub fn slowdown(t: &ThreadCounters) -> f64 {
    (mcpi(t.shared) + MCPI_EPSILON) / (mcpi(t.alone) + MCPI_EPSILON)
}

fn ipc_ratio(t: &ThreadCounters) -> f64 {
    let alone = ipc(t.alone);
    if alone == 0.0 {
        0.0
    } else {
        ipc(t.shared) / alone
    }
}

/// Unfairness: the largest memory slowdown over the smallest.
pub fn unfairness(threads: &[ThreadCounters]) -> f64 {
    let s: Vec<f64> = threads.iter().map(slowdown).collect();
    let max = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = s.iter().copied().fold(f64::INFINITY, f64::min);
    if s.is_empty() {
        1.0
    } else {
        max / min
    }
}

/// Weighted speedup.
pub fn weighted_speedup(threads: &[ThreadCounters]) -> f64 {
    threads.iter().map(ipc_ratio).sum()
}

/// Harmonic-mean speedup.
pub fn hmean_speedup(threads: &[ThreadCounters]) -> f64 {
    let denom: f64 = threads.iter().map(|t| 1.0 / ipc_ratio(t)).sum();
    threads.len() as f64 / denom
}

/// True when `a` and `b` agree to within float rounding of the
/// computations above (a few ulps of relative error).
pub fn agrees(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shared: (u64, u64, u64), alone: (u64, u64, u64)) -> ThreadCounters {
        ThreadCounters { shared, alone }
    }

    #[test]
    fn slowdown_is_regularized_mcpi_ratio() {
        // MCPI shared 2.0, alone 1.0.
        let x = t((4_000, 1_000, 2_000), (2_000, 1_000, 1_000));
        assert!(agrees(slowdown(&x), 2.005 / 1.005));
    }

    #[test]
    fn unfairness_is_max_over_min_slowdown() {
        let a = t((4_000, 1_000, 2_000), (2_000, 1_000, 1_000)); // 2.005/1.005
        let b = t((2_000, 1_000, 1_000), (2_000, 1_000, 1_000)); // 1
        assert!(agrees(unfairness(&[a, b]), 2.005 / 1.005));
        assert_eq!(unfairness(&[]), 1.0);
    }

    #[test]
    fn speedups_from_ipc_ratios() {
        // IPC ratios 0.5 and 1.0.
        let a = t((4_000, 1_000, 0), (2_000, 1_000, 0));
        let b = t((2_000, 1_000, 0), (2_000, 1_000, 0));
        assert!(agrees(weighted_speedup(&[a, b]), 1.5));
        assert!(agrees(hmean_speedup(&[a, b]), 2.0 / (2.0 + 1.0)));
    }

    #[test]
    fn agreement_tolerates_rounding_only() {
        assert!(agrees(1.0, 1.0 + 1e-15));
        assert!(!agrees(1.0, 1.0 + 1e-9));
    }
}
