//! The NSPS regression comparator.
//!
//! Compares two [`BenchRecord`] sets — a committed baseline and a fresh
//! candidate — configuration by configuration (matched on
//! [`BenchRecord::key`]). NSPS is time per unit of work, so *lower is
//! better*: a configuration regresses when the candidate's steady-state
//! NSPS exceeds the baseline's by more than the threshold fraction.
//!
//! The candidate is also checked on its own against a ratio measured
//! inside one process, which survives shared-runner noise where a
//! cross-file comparison does not: SoA `float` `soa-fast` Analytical ÷
//! Precalculated NSPS must stay within [`ANALYTICAL_RATIO_BOUND`].

use crate::record::BenchRecord;

/// Bound on the SoA `float` `soa-fast` Analytical ÷ Precalculated NSPS
/// ratio of one candidate file. With three libm `sin_cos` calls per
/// particle the Analytical sampler measured 4.8–5.6×; fused and
/// vectorized (`pic_math::special::dipole_radial`) its medians are
/// 1.3–1.4× at 2×10⁵ particles × 20 steps × 7 iterations. Much smaller
/// emits time each row in milliseconds and can cross the bound on noise.
pub const ANALYTICAL_RATIO_BOUND: f64 = 2.0;

/// The roadmap's target for the same ratio (the paper's Table 2 has
/// Analytical at ~0.9× of Precalculated). Reported, not gated.
pub const ANALYTICAL_RATIO_TARGET: f64 = 1.5;

/// One Analytical ÷ Precalculated pair of the candidate file: two
/// records whose keys differ only in the scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct RatioCheck {
    /// Key of the Analytical record ([`BenchRecord::key`]).
    pub key: String,
    /// Analytical ÷ Precalculated steady-state NSPS.
    pub ratio: f64,
    /// Whether the ratio exceeds [`ANALYTICAL_RATIO_BOUND`].
    pub exceeded: bool,
}

const ANALYTICAL: &str = "Analytical Fields";
const PRECALCULATED: &str = "Precalculated Fields";

/// One matched configuration's baseline/candidate comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// Configuration key ([`BenchRecord::key`]).
    pub key: String,
    /// Baseline steady-state NSPS.
    pub baseline_nsps: f64,
    /// Candidate steady-state NSPS.
    pub candidate_nsps: f64,
    /// Fractional change: `candidate / baseline - 1` (positive = slower).
    pub delta: f64,
    /// Whether the slowdown exceeds the threshold.
    pub regressed: bool,
}

/// The outcome of comparing two record sets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegressReport {
    /// Every configuration present in both sets, in baseline order.
    pub comparisons: Vec<Comparison>,
    /// Keys present only in the baseline (coverage lost).
    pub missing: Vec<String>,
    /// Keys present only in the candidate (new coverage).
    pub new: Vec<String>,
    /// The threshold the comparisons were judged against.
    pub threshold: f64,
    /// The candidate's Analytical ÷ Precalculated pairs (empty when it
    /// has no SoA `float` `soa-fast` pair).
    pub ratios: Vec<RatioCheck>,
}

impl RegressReport {
    /// True when no matched configuration regressed and no candidate
    /// Analytical ÷ Precalculated ratio exceeds its bound. Missing
    /// configurations are reported but do not fail the gate; a disappeared
    /// benchmark is a coverage question, not a slowdown.
    pub fn passed(&self) -> bool {
        self.comparisons.iter().all(|c| !c.regressed) && self.ratios.iter().all(|r| !r.exceeded)
    }

    /// The regressed subset of [`RegressReport::comparisons`].
    pub fn regressions(&self) -> Vec<&Comparison> {
        self.comparisons.iter().filter(|c| c.regressed).collect()
    }

    /// Renders the report as the human-readable table the `regress`
    /// binary prints.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>10} {:>10} {:>8}  verdict",
            "configuration", "base nsps", "cand nsps", "delta"
        );
        for c in &self.comparisons {
            let verdict = if c.regressed {
                "REGRESSED"
            } else if c.delta < 0.0 {
                "improved"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<44} {:>10.3} {:>10.3} {:>+7.1}%  {}",
                c.key,
                c.baseline_nsps,
                c.candidate_nsps,
                c.delta * 100.0,
                verdict
            );
        }
        for k in &self.missing {
            let _ = writeln!(out, "{k:<44} missing from candidate");
        }
        for k in &self.new {
            let _ = writeln!(out, "{k:<44} new in candidate");
        }
        let n_reg = self.regressions().len();
        let _ = writeln!(
            out,
            "{} configuration(s) compared, {} regression(s) at threshold {:.0}%",
            self.comparisons.len(),
            n_reg,
            self.threshold * 100.0
        );
        if self.ratios.is_empty() {
            let _ = writeln!(
                out,
                "analytical/precalculated: no SoA float soa-fast pair in candidate, not checked"
            );
        }
        for r in &self.ratios {
            let _ = writeln!(
                out,
                "analytical/precalculated {:<44} {:>6.2}x (bound {:.1}x, target {:.1}x)  {}",
                r.key,
                r.ratio,
                ANALYTICAL_RATIO_BOUND,
                ANALYTICAL_RATIO_TARGET,
                if r.exceeded { "EXCEEDED" } else { "ok" }
            );
        }
        out
    }
}

/// Compares `candidate` against `baseline` at the given fractional
/// `threshold` (0.10 = fail on >10% slowdown). Records are matched on
/// [`BenchRecord::key`]; when a key appears more than once on a side the
/// last record wins (later lines in a JSON-lines file supersede earlier
/// ones).
pub fn compare(
    baseline: &[BenchRecord],
    candidate: &[BenchRecord],
    threshold: f64,
) -> RegressReport {
    let lookup = |set: &[BenchRecord], key: &str| -> Option<usize> {
        set.iter().rposition(|r| r.key() == key)
    };

    let mut report = RegressReport {
        threshold,
        ..Default::default()
    };
    let mut seen = Vec::new();
    for b in baseline {
        let key = b.key();
        if seen.contains(&key) {
            continue;
        }
        seen.push(key.clone());
        // Honor last-wins on the baseline side too; `key` came from
        // `baseline`, so the lookup can only miss if `key()` is
        // non-deterministic — skip rather than panic in that case.
        let Some(bi) = lookup(baseline, &key) else {
            continue;
        };
        let b = &baseline[bi];
        match lookup(candidate, &key) {
            Some(ci) => {
                let c = &candidate[ci];
                let delta = if b.steady_nsps > 0.0 {
                    c.steady_nsps / b.steady_nsps - 1.0
                } else {
                    0.0
                };
                report.comparisons.push(Comparison {
                    key,
                    baseline_nsps: b.steady_nsps,
                    candidate_nsps: c.steady_nsps,
                    delta,
                    regressed: delta > threshold,
                });
            }
            None => report.missing.push(key),
        }
    }
    for c in candidate {
        let key = c.key();
        if !seen.contains(&key) && !report.new.contains(&key) {
            report.new.push(key);
        }
    }
    report.ratios = analytical_ratios(candidate);
    report
}

/// The Analytical ÷ Precalculated NSPS ratio of every SoA `float`
/// `soa-fast` Analytical record in `records` that has a Precalculated
/// twin (same key but for the scenario, same label). A records file is
/// written whole by one `reproduce --emit-metrics` process, so both
/// rows of a pair come from the same process; last record wins per key.
fn analytical_ratios(records: &[BenchRecord]) -> Vec<RatioCheck> {
    let mut out: Vec<RatioCheck> = Vec::new();
    for (i, a) in records.iter().enumerate() {
        let candidate = a.scenario == ANALYTICAL
            && a.layout == "SoA"
            && a.precision == "float"
            && a.kernel_variant == "soa-fast";
        let key = a.key();
        // Last record wins: skip one that a later record supersedes.
        if !candidate || records[i + 1..].iter().any(|r| r.key() == key) {
            continue;
        }
        let mut twin = a.clone();
        twin.scenario = PRECALCULATED.into();
        let twin_key = twin.key();
        let Some(p) = records
            .iter()
            .rev()
            .find(|r| r.key() == twin_key && r.label == a.label)
        else {
            continue;
        };
        let ratio = if p.steady_nsps > 0.0 {
            a.steady_nsps / p.steady_nsps
        } else {
            f64::INFINITY
        };
        out.push(RatioCheck {
            key,
            ratio,
            exceeded: ratio.is_nan() || ratio > ANALYTICAL_RATIO_BOUND,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::sample_record;

    #[test]
    fn identical_records_pass() {
        let base = vec![sample_record("a", 50.0)];
        let report = compare(&base, &base, 0.10);
        assert!(report.passed());
        assert_eq!(report.comparisons.len(), 1);
        assert_eq!(report.comparisons[0].delta, 0.0);
        assert!(report.missing.is_empty() && report.new.is_empty());
    }

    #[test]
    fn two_x_slowdown_fails_gate() {
        let base = vec![sample_record("base", 50.0)];
        let cand = vec![sample_record("cand", 100.0)];
        let report = compare(&base, &cand, 0.10);
        assert!(!report.passed());
        let regs = report.regressions();
        assert_eq!(regs.len(), 1);
        assert!((regs[0].delta - 1.0).abs() < 1e-12, "{:?}", regs[0]);
    }

    #[test]
    fn slowdown_within_threshold_passes() {
        let base = vec![sample_record("base", 100.0)];
        let cand = vec![sample_record("cand", 109.0)];
        assert!(compare(&base, &cand, 0.10).passed());
        // ...but a tighter threshold catches it.
        assert!(!compare(&base, &cand, 0.05).passed());
    }

    #[test]
    fn improvement_never_fails() {
        let base = vec![sample_record("base", 100.0)];
        let cand = vec![sample_record("cand", 10.0)];
        let report = compare(&base, &cand, 0.10);
        assert!(report.passed());
        assert!(report.comparisons[0].delta < 0.0);
    }

    #[test]
    fn missing_and_new_keys_are_reported_not_failed() {
        let mut only_base = sample_record("b", 50.0);
        only_base.layout = "AoS".into();
        let mut only_cand = sample_record("c", 50.0);
        only_cand.threads = 8;
        let base = vec![sample_record("b", 50.0), only_base.clone()];
        let cand = vec![sample_record("c", 50.0), only_cand.clone()];
        let report = compare(&base, &cand, 0.10);
        assert!(report.passed());
        assert_eq!(report.missing, vec![only_base.key()]);
        assert_eq!(report.new, vec![only_cand.key()]);
    }

    #[test]
    fn duplicate_keys_last_record_wins() {
        let base = vec![sample_record("old", 200.0), sample_record("new", 50.0)];
        let cand = vec![sample_record("c", 52.0)];
        let report = compare(&base, &cand, 0.10);
        assert_eq!(report.comparisons.len(), 1);
        assert_eq!(report.comparisons[0].baseline_nsps, 50.0);
        assert!(report.passed());
    }

    fn scenario_pair(analytical_nsps: f64, precalculated_nsps: f64) -> Vec<BenchRecord> {
        let mut a = sample_record("pair", analytical_nsps);
        a.scenario = ANALYTICAL.into();
        a.kernel_variant = "soa-fast".into();
        let mut p = sample_record("pair", precalculated_nsps);
        p.kernel_variant = "soa-fast".into();
        vec![p, a]
    }

    #[test]
    fn analytical_ratio_above_bound_fails_even_against_itself() {
        // A synthetic 2.5× pair fails the same-process ratio gate, also in
        // the self-comparison CI runs.
        let pair = scenario_pair(25.0, 10.0);
        let report = compare(&pair, &pair, 0.10);
        assert!(report.comparisons.iter().all(|c| !c.regressed));
        assert_eq!(report.ratios.len(), 1);
        assert!((report.ratios[0].ratio - 2.5).abs() < 1e-12);
        assert!(report.ratios[0].exceeded);
        assert!(!report.passed());
        assert!(report.render().contains("EXCEEDED"), "{}", report.render());
    }

    #[test]
    fn analytical_ratio_within_bound_passes() {
        let pair = scenario_pair(15.0, 10.0);
        let report = compare(&pair, &pair, 0.10);
        assert_eq!(report.ratios.len(), 1);
        assert!(!report.ratios[0].exceeded);
        assert!(report.passed());
    }

    #[test]
    fn analytical_ratio_needs_a_soa_float_fast_twin() {
        // Other layouts, precisions or variants, and unpaired or
        // differently-labelled rows, are not checked; the report says so.
        let mut aos = scenario_pair(40.0, 10.0);
        aos.iter_mut().for_each(|r| r.layout = "AoS".into());
        let mut double = scenario_pair(40.0, 10.0);
        double
            .iter_mut()
            .for_each(|r| r.precision = "double".into());
        let mut scalar = scenario_pair(40.0, 10.0);
        scalar
            .iter_mut()
            .for_each(|r| r.kernel_variant = "scalar".into());
        let mut relabelled = scenario_pair(40.0, 10.0);
        relabelled[0].label = "other".into();
        let unpaired = vec![scenario_pair(40.0, 10.0)[1].clone()];
        for set in [aos, double, scalar, relabelled, unpaired] {
            let report = compare(&set, &set, 0.10);
            assert!(report.ratios.is_empty(), "{:?}", report.ratios);
            assert!(report.passed());
            assert!(report.render().contains("not checked"));
        }
    }

    #[test]
    fn analytical_ratio_uses_the_last_record_per_key() {
        let mut set = scenario_pair(40.0, 10.0);
        set.extend(scenario_pair(12.0, 10.0));
        let report = compare(&set, &set, 0.10);
        assert_eq!(report.ratios.len(), 1);
        assert!((report.ratios[0].ratio - 1.2).abs() < 1e-12);
    }

    #[test]
    fn render_mentions_regressions() {
        let base = vec![sample_record("b", 50.0)];
        let cand = vec![sample_record("c", 100.0)];
        let text = compare(&base, &cand, 0.10).render();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("1 regression(s)"), "{text}");
    }
}
