//! The benchmark's workloads: one JSONL spec line each, the same line
//! `stfm sweep` or `stfm serve` would take for the paper's figure, with
//! the run's seed filled in.
//!
//! Each line names its mix member by member and asks for
//! `"scheduler": "all"`, which expands to five cells (FR-FCFS, FCFS,
//! FR-FCFS+Cap, NFQ, STFM) in that order.

use stfm_workloads::{mix, Profile};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6 case study I: 4 cores on 1 channel, bandwidth bound.
    Stream4,
    /// Fig. 12 high8+low8: 16 cores on 4 channels.
    Mix16,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::Stream4, Workload::Mix16];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream4 => "stream4",
            Workload::Mix16 => "mix16",
        }
    }

    /// Measured-window instructions per thread: the figure binaries' own
    /// budgets (`fig6` and `fig12` in `crates/bench`), so the benchmark
    /// times the cells the figures run.
    pub fn insts(self) -> u64 {
        match self {
            Workload::Stream4 => 150_000,
            Workload::Mix16 => 30_000,
        }
    }

    /// The paper's mix for this workload, member by member.
    pub fn paper_mix(self) -> Vec<Profile> {
        match self {
            Workload::Stream4 => mix::case_study_intensive(),
            Workload::Mix16 => mix::sixteen_core_mixes()
                .into_iter()
                .find(|(name, _)| name == "high8+low8")
                .map(|(_, m)| m)
                .unwrap_or_default(),
        }
    }

    /// The mix as written in the spec line. Spelled out rather than
    /// derived from [`Workload::paper_mix`], so a change to the paper
    /// mixes shows up as a failed check instead of a silently different
    /// benchmark.
    pub fn members(self) -> &'static [&'static str] {
        match self {
            Workload::Stream4 => &["mcf", "libquantum", "GemsFDTD", "astar"],
            Workload::Mix16 => &[
                "mcf",
                "libquantum",
                "leslie3d",
                "soplex",
                "milc",
                "lbm",
                "sphinx3",
                "GemsFDTD",
                "wrf",
                "sjeng",
                "namd",
                "tonto",
                "gcc",
                "calculix",
                "perlbench",
                "povray",
            ],
        }
    }

    /// The JSONL spec line for `seed`.
    pub fn spec_line(self, seed: u64) -> String {
        let members: Vec<String> = self.members().iter().map(|m| format!("\"{m}\"")).collect();
        format!(
            "{{\"mix\": [{}], \"scheduler\": \"all\", \"insts\": {}, \"seed\": {seed}}}",
            members.join(", "),
            self.insts()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_are_the_paper_mixes() {
        for w in Workload::ALL {
            let paper: Vec<&str> = w.paper_mix().iter().map(|p| p.name).collect();
            assert_eq!(paper, w.members(), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn spec_lines_expand_to_five_cells() {
        for w in Workload::ALL {
            let cells = stfm_serve::expand_line(&w.spec_line(7)).unwrap();
            assert_eq!(cells.len(), 5);
            assert!(cells.iter().all(|c| c.seed == 7 && c.insts == w.insts()));
        }
    }
}
