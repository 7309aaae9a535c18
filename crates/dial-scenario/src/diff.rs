//! The comparison document: a byte-stable JSON rendering of a baseline
//! vs counterfactual run, experiment by experiment.
//!
//! Rendering is manual string building over fields in a fixed order —
//! the same discipline every analysis pipeline in the workspace follows —
//! so the document is identical across runs, platforms and pool widths,
//! and its FNV fingerprint is a meaningful cache/CI key.

use crate::parse::{Intervention, Scenario};
use dial_model::ContentHash;
use dial_sim::SecondMarketReport;
use dial_time::Era;
use std::fmt::Write as _;

/// One experiment's baseline and counterfactual bodies.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Registry experiment id (e.g. `fig1`).
    pub id: String,
    /// The experiment's JSON body on the baseline snapshot.
    pub baseline: String,
    /// The same experiment's body on the counterfactual snapshot.
    pub counterfactual: String,
}

impl DiffRow {
    /// Whether the intervention changed this experiment's result at all.
    pub fn changed(&self) -> bool {
        self.baseline != self.counterfactual
    }
}

/// Summary of one sealed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The sealed snapshot fingerprint (`dataset-ledger`, the same format
    /// the serve snapshot store pins).
    pub snapshot: String,
    /// Total contracts in the sealed dataset.
    pub contracts: usize,
    /// Total users in the sealed dataset.
    pub users: usize,
    /// The second market a takedown migration opened, if any.
    pub second_market: Option<SecondMarketReport>,
}

/// A finished scenario comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The scenario this compares (carried for rendering).
    pub scenario: Scenario,
    /// Content fingerprint of the scenario itself (name, seed, scale,
    /// interventions) — the serve cache key component.
    pub fingerprint: String,
    /// The baseline run.
    pub baseline: RunSummary,
    /// The counterfactual run.
    pub counterfactual: RunSummary,
    /// Per-experiment bodies, in registry order.
    pub rows: Vec<DiffRow>,
}

impl Comparison {
    /// Ids whose results the intervention changed, in registry order.
    pub fn changed_ids(&self) -> Vec<&str> {
        self.rows.iter().filter(|r| r.changed()).map(|r| r.id.as_str()).collect()
    }

    /// The canonical byte-stable comparison document. `/v1/scenario` and
    /// `dial scenario run --json` both emit exactly these bytes.
    pub fn to_json(&self) -> String {
        let s = &self.scenario;
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"scenario\":{},\"description\":{},\"fingerprint\":\"{}\",\"seed\":{},\"scale\":{}",
            json_str(&s.name),
            json_str(&s.description),
            self.fingerprint,
            s.seed,
            s.scale
        );
        out.push_str(",\"interventions\":");
        out.push_str(&interventions_json(&s.interventions));
        out.push_str(",\"baseline\":");
        render_run(&mut out, &self.baseline);
        out.push_str(",\"counterfactual\":");
        render_run(&mut out, &self.counterfactual);
        let changed = self.changed_ids();
        let _ = write!(out, ",\"experiments\":{},\"changed\":[", self.rows.len());
        for (i, id) in changed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(id));
        }
        out.push_str("],\"diff\":{");
        let mut first = true;
        for row in self.rows.iter().filter(|r| r.changed()) {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{}:{{\"baseline\":{},\"counterfactual\":{}}}",
                json_str(&row.id),
                row.baseline,
                row.counterfactual
            );
        }
        out.push('}');
        // The fingerprint of everything above is the document's identity:
        // two runs agree on the diff iff they agree on this.
        let _ = write!(out, ",\"diff_fingerprint\":\"{:016x}\"}}", ContentHash::of(out.as_bytes()));
        out
    }

    /// A short human-readable summary for the CLI's default (non-JSON)
    /// output.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let s = &self.scenario;
        let _ = writeln!(out, "scenario {} (seed {}, scale {})", s.name, s.seed, s.scale);
        if !s.description.is_empty() {
            let _ = writeln!(out, "  {}", s.description);
        }
        for iv in &s.interventions {
            let _ = writeln!(out, "  intervention: {}", describe(iv));
        }
        let _ = writeln!(
            out,
            "  baseline       {} contracts, {} users [{}]",
            self.baseline.contracts, self.baseline.users, self.baseline.snapshot
        );
        let _ = writeln!(
            out,
            "  counterfactual {} contracts, {} users [{}]",
            self.counterfactual.contracts, self.counterfactual.users, self.counterfactual.snapshot
        );
        if let Some(second) = &self.counterfactual.second_market {
            let _ = writeln!(
                out,
                "  second market: {} migrated traders took {:.1}% of demand ({} contracts)",
                second.migrated_traders,
                second.demand_share * 100.0,
                second.total_contracts()
            );
        }
        let changed = self.changed_ids();
        let _ = writeln!(
            out,
            "  {} of {} experiments changed{}",
            changed.len(),
            self.rows.len(),
            if changed.is_empty() { String::new() } else { format!(": {}", changed.join(", ")) }
        );
        out
    }
}

fn render_run(out: &mut String, run: &RunSummary) {
    let _ = write!(
        out,
        "{{\"snapshot\":\"{}\",\"contracts\":{},\"users\":{},\"second_market\":",
        run.snapshot, run.contracts, run.users
    );
    match &run.second_market {
        None => out.push_str("null"),
        Some(s) => {
            let _ = write!(
                out,
                "{{\"opened\":\"{}\",\"migrated_traders\":{},\"demand_share\":{:.6},\"total_contracts\":{},\"monthly\":[",
                s.opened,
                s.migrated_traders,
                s.demand_share,
                s.total_contracts()
            );
            for (i, (ym, n)) in s.monthly_contracts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[\"{ym}\",{n}]");
            }
            out.push_str("]}");
        }
    }
    out.push('}');
}

/// Canonical rendering of an intervention list — also the fingerprint
/// payload for the scenario itself.
pub fn interventions_json(interventions: &[Intervention]) -> String {
    let mut out = String::from("[");
    for (i, iv) in interventions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match *iv {
            Intervention::Mandate { month } => {
                match month {
                    Some(m) => {
                        let _ = write!(out, "{{\"kind\":\"mandate\",\"month\":{m}}}");
                    }
                    None => out.push_str("{\"kind\":\"mandate\",\"month\":null}"),
                };
            }
            Intervention::DemandShock { from_month, to_month, factor } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"demand_shock\",\"from_month\":{from_month},\"to_month\":{to_month},\"factor\":{factor}}}"
                );
            }
            Intervention::Takedown { month, top_k, migrate_fraction } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"takedown\",\"month\":{month},\"top_k\":{top_k},\"migrate_fraction\":{migrate_fraction}}}"
                );
            }
            Intervention::Sybil { era, targets_per_month, fakes_per_target } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"sybil\",\"era\":\"{}\",\"targets_per_month\":{targets_per_month},\"fakes_per_target\":{fakes_per_target}}}",
                    era_name(era)
                );
            }
        }
    }
    out.push(']');
    out
}

/// The scenario's content fingerprint: what the serve layer keys its
/// result cache on. Depends on everything that can change the diff.
pub fn scenario_fingerprint(s: &Scenario) -> String {
    let payload =
        format!("{}|{}|{}|{}", s.name, s.seed, s.scale, interventions_json(&s.interventions));
    format!("{:016x}", ContentHash::of(payload.as_bytes()))
}

fn describe(iv: &Intervention) -> String {
    match *iv {
        Intervention::Mandate { month: Some(m) } => format!("contract mandate moved to month {m}"),
        Intervention::Mandate { month: None } => "contract mandate disabled".to_string(),
        Intervention::DemandShock { from_month, to_month, factor } => {
            format!("demand x{factor} over months {from_month}..={to_month}")
        }
        Intervention::Takedown { month, top_k, migrate_fraction } => {
            format!("takedown of top {top_k} takers at month {month} ({migrate_fraction} migrate)")
        }
        Intervention::Sybil { era, targets_per_month, fakes_per_target } => {
            format!(
                "sybil attack in {}: {fakes_per_target} fakes x {targets_per_month} targets/month",
                era_name(era)
            )
        }
    }
}

fn era_name(era: Era) -> &'static str {
    match era {
        Era::SetUp => "setup",
        Era::Stable => "stable",
        Era::Covid19 => "covid19",
    }
}

/// JSON string escaping (quotes, backslashes, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_scenario_content() {
        let a = Scenario::parse("name: a\nseed: 1\n", "a.scn").unwrap();
        let b = Scenario::parse("name: a\nseed: 2\n", "b.scn").unwrap();
        let a2 = Scenario::parse("# cosmetic comment\nname: a\nseed: 1\n", "c.scn").unwrap();
        assert_ne!(scenario_fingerprint(&a), scenario_fingerprint(&b));
        assert_eq!(scenario_fingerprint(&a), scenario_fingerprint(&a2), "comments are cosmetic");
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
