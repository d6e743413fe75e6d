//! The reconfigurable parameter space (the paper's Figure 1) and its
//! encoding as binary decision variables `x₁ … x₅₂` (Section 4 of the paper).
//!
//! Each decision variable represents *one parameter value changed from the
//! base configuration*.  Multi-valued parameters therefore contribute one
//! variable per non-base value, and a one-hot constraint ensures at most one
//! of them is selected (see [`crate::formulation`]).

use leon_sim::{LeonConfig, Multiplier, ReplacementPolicy};
use serde::{Deserialize, Serialize};

/// A single-parameter change relative to the base configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamChange {
    /// Instruction-cache associativity ("number of sets" in LEON terms).
    IcacheWays(u8),
    /// Instruction-cache way size in KB ("set size").
    IcacheWayKb(u32),
    /// Instruction-cache line size in words.
    IcacheLineWords(u8),
    /// Instruction-cache replacement policy.
    IcacheReplacement(ReplacementPolicy),
    /// Data-cache associativity.
    DcacheWays(u8),
    /// Data-cache way size in KB.
    DcacheWayKb(u32),
    /// Data-cache line size in words.
    DcacheLineWords(u8),
    /// Data-cache replacement policy.
    DcacheReplacement(ReplacementPolicy),
    /// Disable the fast-jump option (enabled in the base configuration).
    FastJumpOff,
    /// Disable the ICC-hold interlock (enabled in the base configuration).
    IccHoldOff,
    /// Disable fast instruction decode (enabled in the base configuration).
    FastDecodeOff,
    /// Use a 2-cycle load delay (1 cycle in the base configuration).
    LoadDelay2,
    /// Enable the data-cache fast-read option.
    DcacheFastRead,
    /// Remove the hardware divider (software division).
    DividerNone,
    /// Do not infer multiplier/divider structures during synthesis.
    NoInferMultDiv,
    /// Number of register windows (base: 8).
    RegWindows(u8),
    /// Hardware multiplier option (base: 16×16).
    SetMultiplier(Multiplier),
    /// Enable the data-cache fast-write option.
    DcacheFastWrite,
}

impl ParamChange {
    /// Apply this change to a configuration.
    pub fn apply(&self, config: &mut LeonConfig) {
        match *self {
            ParamChange::IcacheWays(w) => config.icache.ways = w,
            ParamChange::IcacheWayKb(kb) => config.icache.way_kb = kb,
            ParamChange::IcacheLineWords(w) => config.icache.line_words = w,
            ParamChange::IcacheReplacement(r) => config.icache.replacement = r,
            ParamChange::DcacheWays(w) => config.dcache.ways = w,
            ParamChange::DcacheWayKb(kb) => config.dcache.way_kb = kb,
            ParamChange::DcacheLineWords(w) => config.dcache.line_words = w,
            ParamChange::DcacheReplacement(r) => config.dcache.replacement = r,
            ParamChange::FastJumpOff => config.iu.fast_jump = false,
            ParamChange::IccHoldOff => config.iu.icc_hold = false,
            ParamChange::FastDecodeOff => config.iu.fast_decode = false,
            ParamChange::LoadDelay2 => config.iu.load_delay = 2,
            ParamChange::DcacheFastRead => config.dcache_fast_read = true,
            ParamChange::DividerNone => config.iu.divider = leon_sim::Divider::None,
            ParamChange::NoInferMultDiv => config.synthesis.infer_mult_div = false,
            ParamChange::RegWindows(n) => config.iu.reg_windows = n,
            ParamChange::SetMultiplier(m) => config.iu.multiplier = m,
            ParamChange::DcacheFastWrite => config.dcache_fast_write = true,
        }
    }

    /// Short human-readable description used in reports.
    pub fn describe(&self) -> String {
        match *self {
            ParamChange::IcacheWays(w) => format!("icache sets={w}"),
            ParamChange::IcacheWayKb(kb) => format!("icache setsize={kb}KB"),
            ParamChange::IcacheLineWords(w) => format!("icache linesize={w}"),
            ParamChange::IcacheReplacement(r) => format!("icache replace={}", r.short_name()),
            ParamChange::DcacheWays(w) => format!("dcache sets={w}"),
            ParamChange::DcacheWayKb(kb) => format!("dcache setsize={kb}KB"),
            ParamChange::DcacheLineWords(w) => format!("dcache linesize={w}"),
            ParamChange::DcacheReplacement(r) => format!("dcache replace={}", r.short_name()),
            ParamChange::FastJumpOff => "fast jump=off".to_string(),
            ParamChange::IccHoldOff => "ICC hold=off".to_string(),
            ParamChange::FastDecodeOff => "fast decode=off".to_string(),
            ParamChange::LoadDelay2 => "load delay=2".to_string(),
            ParamChange::DcacheFastRead => "dcache fast read=on".to_string(),
            ParamChange::DividerNone => "divider=none".to_string(),
            ParamChange::NoInferMultDiv => "infer mult/div=false".to_string(),
            ParamChange::RegWindows(n) => format!("register windows={n}"),
            ParamChange::SetMultiplier(m) => format!("multiplier={}", m.short_name()),
            ParamChange::DcacheFastWrite => "dcache fast write=on".to_string(),
        }
    }
}

/// One decision variable of the BINLP formulation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Variable {
    /// 1-based index matching the paper's `x₁ … x₅₂` numbering.
    pub index: usize,
    /// The configuration change this variable represents.
    pub change: ParamChange,
    /// An additional change needed to make the perturbation structurally
    /// valid in isolation (e.g. LRR replacement requires a 2-way cache).
    /// Costs are measured relative to `base + enabler` so that the additive
    /// model `cost(enabler) + cost(change)` approximates the combined cost.
    pub enabler: Option<ParamChange>,
    /// Human-readable name.
    pub name: String,
}

/// The full 52-variable parameter space of the paper.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParameterSpace {
    variables: Vec<Variable>,
}

/// 1-based indices of the variable groups used by the paper's constraints.
pub mod groups {
    /// icache number of sets (2, 3, 4): x₁–x₃.
    pub const ICACHE_WAYS: std::ops::RangeInclusive<usize> = 1..=3;
    /// icache set size (1, 2, 8, 16, 32 KB): x₄–x₈.
    pub const ICACHE_WAY_KB: std::ops::RangeInclusive<usize> = 4..=8;
    /// icache line size 4 words: x₉.
    pub const ICACHE_LINE: usize = 9;
    /// icache replacement (LRR, LRU): x₁₀–x₁₁.
    pub const ICACHE_REPLACEMENT: std::ops::RangeInclusive<usize> = 10..=11;
    /// dcache number of sets (2, 3, 4): x₁₂–x₁₄.
    pub const DCACHE_WAYS: std::ops::RangeInclusive<usize> = 12..=14;
    /// dcache set size (1, 2, 8, 16, 32 KB): x₁₅–x₁₉.
    pub const DCACHE_WAY_KB: std::ops::RangeInclusive<usize> = 15..=19;
    /// dcache line size 4 words: x₂₀.
    pub const DCACHE_LINE: usize = 20;
    /// dcache replacement (LRR, LRU): x₂₁–x₂₂.
    pub const DCACHE_REPLACEMENT: std::ops::RangeInclusive<usize> = 21..=22;
    /// IU register windows (16–32): x₃₀–x₄₆.
    pub const REG_WINDOWS: std::ops::RangeInclusive<usize> = 30..=46;
    /// Hardware multipliers: x₄₇–x₅₁.
    pub const MULTIPLIERS: std::ops::RangeInclusive<usize> = 47..=51;
}

impl Default for ParameterSpace {
    fn default() -> Self {
        ParameterSpace::paper()
    }
}

impl ParameterSpace {
    /// Build the paper's 52-variable space (Section 4.2 numbering).
    ///
    /// Notes on fidelity:
    /// * 64 KB way sizes are excluded because they exceed the available BRAM
    ///   (Figure 1 of the paper notes this explicitly).
    /// * The multiplier group x₄₇–x₅₁ holds the five hardware alternatives to
    ///   the base 16×16 multiplier (iterative, 16×16 + pipeline registers,
    ///   32×8, 32×16, 32×32); the "no multiplier" option is excluded because
    ///   every benchmark in the suite multiplies.
    pub fn paper() -> ParameterSpace {
        let mut variables = Vec::with_capacity(52);
        let mut push = |change: ParamChange, enabler: Option<ParamChange>| {
            let index = variables.len() + 1;
            variables.push(Variable { index, name: change.describe(), change, enabler });
        };

        // x1..x3: icache number of sets
        for ways in [2u8, 3, 4] {
            push(ParamChange::IcacheWays(ways), None);
        }
        // x4..x8: icache set size (base 4 KB excluded; 64 KB infeasible)
        for kb in [1u32, 2, 8, 16, 32] {
            push(ParamChange::IcacheWayKb(kb), None);
        }
        // x9: icache line size 4 words
        push(ParamChange::IcacheLineWords(4), None);
        // x10, x11: icache replacement LRR / LRU (need a multi-way cache to
        // be structurally valid in isolation)
        push(
            ParamChange::IcacheReplacement(ReplacementPolicy::Lrr),
            Some(ParamChange::IcacheWays(2)),
        );
        push(
            ParamChange::IcacheReplacement(ReplacementPolicy::Lru),
            Some(ParamChange::IcacheWays(2)),
        );
        // x12..x14: dcache number of sets
        for ways in [2u8, 3, 4] {
            push(ParamChange::DcacheWays(ways), None);
        }
        // x15..x19: dcache set size
        for kb in [1u32, 2, 8, 16, 32] {
            push(ParamChange::DcacheWayKb(kb), None);
        }
        // x20: dcache line size 4 words
        push(ParamChange::DcacheLineWords(4), None);
        // x21, x22: dcache replacement LRR / LRU
        push(
            ParamChange::DcacheReplacement(ReplacementPolicy::Lrr),
            Some(ParamChange::DcacheWays(2)),
        );
        push(
            ParamChange::DcacheReplacement(ReplacementPolicy::Lru),
            Some(ParamChange::DcacheWays(2)),
        );
        // x23..x29: integer-unit and synthesis toggles
        push(ParamChange::FastJumpOff, None); // x23
        push(ParamChange::IccHoldOff, None); // x24
        push(ParamChange::FastDecodeOff, None); // x25
        push(ParamChange::LoadDelay2, None); // x26
        push(ParamChange::DcacheFastRead, None); // x27
        push(ParamChange::DividerNone, None); // x28
        push(ParamChange::NoInferMultDiv, None); // x29
        // x30..x46: register windows 16..32
        for windows in 16u8..=32 {
            push(ParamChange::RegWindows(windows), None);
        }
        // x47..x51: hardware multipliers other than the base 16x16
        for m in [
            Multiplier::Iterative,
            Multiplier::M16x16Pipelined,
            Multiplier::M32x8,
            Multiplier::M32x16,
            Multiplier::M32x32,
        ] {
            push(ParamChange::SetMultiplier(m), None);
        }
        // x52: dcache fast write
        push(ParamChange::DcacheFastWrite, None);

        let space = ParameterSpace { variables };
        assert_eq!(space.len(), 52, "the paper's space has exactly 52 variables");
        space
    }

    /// A restricted space containing only the dcache geometry variables
    /// (number of sets x₁₂–x₁₄ and set size x₁₅–x₁₉), used by the paper's
    /// Section 5 validation study.
    pub fn dcache_geometry() -> ParameterSpace {
        let full = ParameterSpace::paper();
        ParameterSpace {
            variables: full
                .variables
                .into_iter()
                .filter(|v| {
                    groups::DCACHE_WAYS.contains(&v.index) || groups::DCACHE_WAY_KB.contains(&v.index)
                })
                .collect(),
        }
    }

    /// The paper index of the extra 64 KB dcache way-size variable the
    /// search spaces append (see [`ParameterSpace::dcache_figure2`]).
    pub const DCACHE_WAY_KB_64: usize = 53;

    /// The Figure 2 search space: the dcache geometry variables plus a 64 KB
    /// way-size variable (x₅₃).
    ///
    /// The paper's 52-variable space excludes 64 KB ways because they exceed
    /// the device BRAM, but the *exhaustive* Figure 2 sweep enumerates them
    /// (and lets synthesis reject them) — so a search that must reproduce
    /// the sweep's optimum byte-for-byte enumerates them too and prunes them
    /// closed-form.  x₅₃ is deliberately outside [`ParameterSpace::paper`]
    /// (whose one-hot formulation ranges are fixed); only the `search`
    /// module's own semantic grouping routes it.
    pub fn dcache_figure2() -> ParameterSpace {
        let mut space = ParameterSpace::dcache_geometry();
        space.variables.push(Variable {
            index: Self::DCACHE_WAY_KB_64,
            change: ParamChange::DcacheWayKb(64),
            enabler: None,
            name: ParamChange::DcacheWayKb(64).describe(),
        });
        space
    }

    /// The expanded search space: the paper's 52 variables plus the 64 KB
    /// dcache way size (x₅₃) of [`ParameterSpace::dcache_figure2`].  Used by
    /// the `search` module's cross-product candidate enumeration (i-cache ×
    /// d-cache × register windows × multipliers); never routed through
    /// [`crate::formulation::formulate`], whose one-hot groups cover the
    /// paper indices only.
    pub fn expanded() -> ParameterSpace {
        let mut space = ParameterSpace::paper();
        space.variables.push(Variable {
            index: Self::DCACHE_WAY_KB_64,
            change: ParamChange::DcacheWayKb(64),
            enabler: None,
            name: ParamChange::DcacheWayKb(64).describe(),
        });
        space
    }

    /// Number of decision variables.
    pub fn len(&self) -> usize {
        self.variables.len()
    }

    /// True when the space is empty.
    pub fn is_empty(&self) -> bool {
        self.variables.is_empty()
    }

    /// The variables in index order.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// Look up a variable by its paper index (1-based).
    pub fn by_index(&self, index: usize) -> Option<&Variable> {
        self.variables.iter().find(|v| v.index == index)
    }

    /// Apply a set of selected variables (by paper index) to the base
    /// configuration, producing the combined candidate configuration.
    pub fn apply(&self, base: &LeonConfig, selected: &[usize]) -> LeonConfig {
        let mut config = *base;
        for &index in selected {
            if let Some(var) = self.by_index(index) {
                var.change.apply(&mut config);
            }
        }
        config
    }

    /// The exhaustive configuration count the paper reports for the Figure 1
    /// space ("results in 3,641,573,376 exhaustive configurations",
    /// Section 3).
    pub const PAPER_REPORTED_EXHAUSTIVE: u64 = 3_641_573_376;

    /// The number of exhaustive configurations of the Figure 1 space as the
    /// product of the per-parameter value counts listed in the figure.
    ///
    /// This systematic count comes to ~9.1 × 10⁸; the paper quotes
    /// [`Self::PAPER_REPORTED_EXHAUSTIVE`] (≈3.6 × 10⁹, a factor of four
    /// higher, presumably counting two further binary options not broken out
    /// in Figure 1).  Either way the conclusion is identical: exhaustive
    /// enumeration is infeasible, while the one-at-a-time space is just 52
    /// configurations.
    pub fn exhaustive_config_count() -> u64 {
        let icache: u64 = 4 * 7 * 2 * 3; // sets, set size, line size, replacement
        let dcache: u64 = 4 * 7 * 2 * 3 * 2 * 2; // + fast read, fast write
        let iu: u64 = 2 * 2 * 2 * 2 * 18 * 2 * 7; // jump, icc, decode, load delay, windows, divider, multiplier
        let synthesis: u64 = 2; // infer mult/div
        icache * dcache * iu * synthesis
    }

    /// Number of one-at-a-time configurations (linear in parameter values):
    /// one per decision variable.
    pub fn one_at_a_time_config_count(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leon_sim::Divider;

    #[test]
    fn space_has_the_papers_structure() {
        let s = ParameterSpace::paper();
        assert_eq!(s.len(), 52);
        // spot-check the paper's variable numbering from Section 4.2
        assert_eq!(s.by_index(9).unwrap().change, ParamChange::IcacheLineWords(4));
        assert_eq!(s.by_index(20).unwrap().change, ParamChange::DcacheLineWords(4));
        assert_eq!(s.by_index(23).unwrap().change, ParamChange::FastJumpOff);
        assert_eq!(s.by_index(24).unwrap().change, ParamChange::IccHoldOff);
        assert_eq!(s.by_index(25).unwrap().change, ParamChange::FastDecodeOff);
        assert_eq!(s.by_index(26).unwrap().change, ParamChange::LoadDelay2);
        assert_eq!(s.by_index(27).unwrap().change, ParamChange::DcacheFastRead);
        assert_eq!(s.by_index(28).unwrap().change, ParamChange::DividerNone);
        assert_eq!(s.by_index(29).unwrap().change, ParamChange::NoInferMultDiv);
        assert_eq!(s.by_index(30).unwrap().change, ParamChange::RegWindows(16));
        assert_eq!(s.by_index(46).unwrap().change, ParamChange::RegWindows(32));
        assert_eq!(s.by_index(52).unwrap().change, ParamChange::DcacheFastWrite);
        assert!(matches!(s.by_index(47).unwrap().change, ParamChange::SetMultiplier(_)));
    }

    #[test]
    fn exhaustive_count_is_billions_of_configurations() {
        // "results in 3,641,573,376 exhaustive configurations" (Section 3);
        // the systematic product of Figure 1's value counts is ~9.1e8 —
        // either way it is utterly infeasible to enumerate
        assert_eq!(ParameterSpace::PAPER_REPORTED_EXHAUSTIVE, 3_641_573_376);
        assert_eq!(ParameterSpace::exhaustive_config_count(), 910_393_344);
        assert!(ParameterSpace::exhaustive_config_count() > 500_000_000);
    }

    #[test]
    fn one_at_a_time_is_linear_in_values() {
        let s = ParameterSpace::paper();
        assert_eq!(s.one_at_a_time_config_count(), 52);
        assert!(
            (ParameterSpace::exhaustive_config_count() as f64)
                / (s.one_at_a_time_config_count() as f64)
                > 1e7,
            "the one-at-a-time space must be dramatically smaller"
        );
    }

    #[test]
    fn every_perturbation_is_valid_with_its_enabler() {
        let s = ParameterSpace::paper();
        let base = LeonConfig::base();
        for var in s.variables() {
            let mut config = base;
            if let Some(enabler) = &var.enabler {
                enabler.apply(&mut config);
            }
            var.change.apply(&mut config);
            assert!(
                config.validate().is_ok(),
                "variable x{} ({}) is not valid even with its enabler",
                var.index,
                var.name
            );
        }
    }

    #[test]
    fn apply_combines_changes() {
        let s = ParameterSpace::paper();
        let base = LeonConfig::base();
        // x12 = dcache 2 sets, x18 = dcache 16 KB, x28 = no divider
        let cfg = s.apply(&base, &[12, 18, 28]);
        assert_eq!(cfg.dcache.ways, 2);
        assert_eq!(cfg.dcache.way_kb, 16);
        assert_eq!(cfg.iu.divider, Divider::None);
        // untouched parameters stay at base values
        assert_eq!(cfg.icache.way_kb, 4);
    }

    #[test]
    fn dcache_geometry_subspace() {
        let s = ParameterSpace::dcache_geometry();
        assert_eq!(s.len(), 8);
        assert!(s.variables().iter().all(|v| (12..=19).contains(&v.index)));
    }

    #[test]
    fn search_spaces_append_the_64kb_dcache_way() {
        let f2 = ParameterSpace::dcache_figure2();
        assert_eq!(f2.len(), 9);
        assert_eq!(
            f2.by_index(ParameterSpace::DCACHE_WAY_KB_64).unwrap().change,
            ParamChange::DcacheWayKb(64)
        );
        let exp = ParameterSpace::expanded();
        assert_eq!(exp.len(), 53);
        // the paper indices are untouched — x53 is purely additive
        for v in ParameterSpace::paper().variables() {
            assert_eq!(exp.by_index(v.index).unwrap().change, v.change);
        }
        let cfg = exp.apply(&LeonConfig::base(), &[14, ParameterSpace::DCACHE_WAY_KB_64]);
        assert_eq!(cfg.dcache.ways, 4);
        assert_eq!(cfg.dcache.way_kb, 64);
    }

    #[test]
    fn no_64kb_way_in_the_space() {
        let s = ParameterSpace::paper();
        for v in s.variables() {
            match v.change {
                ParamChange::IcacheWayKb(kb) | ParamChange::DcacheWayKb(kb) => {
                    assert!(kb < 64, "64KB ways exceed the device and must be excluded")
                }
                _ => {}
            }
        }
    }
}
