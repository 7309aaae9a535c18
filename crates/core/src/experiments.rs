//! The experiment registry: every table and figure of the paper, mapped to
//! a runner that regenerates it from a dataset, alongside the paper's
//! reference claims for side-by-side comparison (used to fill
//! EXPERIMENTS.md).

use crate::{
    activities, centralisation, coldstart, completion, disputes, eras, forum, growth, ltm, mixing,
    network, payments, regression, render, repeat, stimulus, taxonomy, type_mix, values,
    visibility,
};
use dial_chain::Ledger;
use dial_model::{ContractType, Dataset};
use dial_time::{Era, MonthlySeries, YearMonth};
use std::sync::{Arc, OnceLock};

/// Everything an experiment runner may read.
pub struct ExperimentContext {
    /// The dataset under analysis, shared with whoever else holds this
    /// sealed prefix (a live stream engine, a checkpoint).
    pub dataset: Arc<Dataset>,
    /// The simulated blockchain, shared the same way.
    pub ledger: Arc<Ledger>,
    /// Seed for the stochastic analyses (k-means, LCA).
    pub seed: u64,
    /// Latent-class count for the LTM (the paper selects 12).
    pub lca_classes: usize,
    /// Memoised latent-class analysis: Table 6, Table 8 and Figures 12-13
    /// all read the same (expensive) fit.
    ltm_cache: OnceLock<ltm::LtmAnalysis>,
}

impl ExperimentContext {
    /// Builds a context over owned parts or over shared handles.
    pub fn new(
        dataset: impl Into<Arc<Dataset>>,
        ledger: impl Into<Arc<Ledger>>,
        seed: u64,
        lca_classes: usize,
    ) -> Self {
        Self {
            dataset: dataset.into(),
            ledger: ledger.into(),
            seed,
            lca_classes,
            ltm_cache: OnceLock::new(),
        }
    }

    /// The shared latent-class analysis (fitted once per context).
    pub fn ltm(&self) -> &ltm::LtmAnalysis {
        self.ltm_cache.get_or_init(|| ltm::ltm_analysis(&self.dataset, self.lca_classes, self.seed))
    }
}

/// One registered experiment.
pub struct Experiment {
    /// Identifier, e.g. `"table1"` or `"fig7"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The headline shape the paper reports for this artefact.
    pub paper_claim: &'static str,
    /// Regenerates the artefact from a dataset.
    pub run: fn(&ExperimentContext) -> String,
}

impl Experiment {
    /// Machine-readable variant of [`Experiment::run`]: the artefact's
    /// result structure serialized as JSON (consumed by `dial-serve` and
    /// `dial analyze --json`). Experiments without a structured mapping
    /// fall back to `{"text": <rendered output>}`.
    pub fn run_json(&self, ctx: &ExperimentContext) -> String {
        structured_json(self.id, ctx).unwrap_or_else(|| json(&TextResult { text: (self.run)(ctx) }))
    }
}

/// Fallback JSON envelope for experiments with purely textual output.
#[derive(serde::Serialize)]
struct TextResult {
    text: String,
}

/// Serializes an experiment result structure.
fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("experiment results are always serializable")
}

/// The structured result for `id`, or `None` when only text is available.
///
/// Every id registered in [`all_experiments`] and [`extension_experiments`]
/// has an arm here; `registry_has_structured_json_for_every_id` enforces it.
fn structured_json(id: &str, ctx: &ExperimentContext) -> Option<String> {
    let out = match id {
        "table1" => json(&taxonomy::taxonomy_table(&ctx.dataset)),
        "table2" => json(&visibility::visibility_table(&ctx.dataset)),
        "table3" => json(&activities::activity_table(&ctx.dataset)),
        "table4" => json(&payments::payment_table(&ctx.dataset)),
        "table5" => json(&values::value_report(&ctx.dataset, &ctx.ledger)),
        "table6" => json(ctx.ltm()),
        "table7" => json(&coldstart::cold_start_analysis(&ctx.dataset, ctx.seed)),
        "table8" => json(&ctx.ltm().flows),
        "table9" => json(&regression::table_models(&ctx.dataset, &regression::TABLE9)),
        "table10" => json(&regression::table_models(&ctx.dataset, &regression::TABLE10)),
        "fig1" => json(&growth::growth_series(&ctx.dataset)),
        "fig2" => json(&visibility::public_share_by_month(&ctx.dataset)),
        "fig3" => json(&type_mix::type_mix_series(&ctx.dataset)),
        "fig4" => json(&completion::completion_series(&ctx.dataset)),
        "fig5" => json(&centralisation::concentration_curves(&ctx.dataset)),
        "fig6" => json(&centralisation::key_share_series(&ctx.dataset)),
        "fig7" => json(&network::degree_distributions(&ctx.dataset)),
        "fig8" => json(&network::network_growth(&ctx.dataset)),
        "fig9" => json(&activities::product_evolution(&ctx.dataset)),
        "fig10" => json(&payments::payment_evolution(&ctx.dataset)),
        "fig11" => json(&values::value_evolution(&ctx.dataset, &ctx.ledger)),
        "fig12" => json(&ctx.ltm().made),
        "fig13" => json(&ctx.ltm().accepted),
        "ext-stimulus" => json(&stimulus::stimulus_analysis(&ctx.dataset)),
        "ext-disputes" => json(&disputes::dispute_analysis(&ctx.dataset)),
        "ext-repeat" => json(&repeat::repeat_analysis(&ctx.dataset)),
        "ext-eras" => json(&eras::detect_eras(&ctx.dataset)),
        "ext-dynamics" => json(&ltm::ltm_dynamics(&ctx.dataset, ctx.ltm(), ctx.seed)),
        "ext-forum" => json(&forum::forum_stats(&ctx.dataset)),
        "ext-mixing" => json(&mixing::mixing_analysis(&ctx.dataset)),
        _ => return None,
    };
    Some(out)
}

fn series_line(name: &str, s: &MonthlySeries<f64>) -> String {
    let fmt_num = |v: f64| {
        if v >= 1000.0 {
            render::thousands(v.round() as u64)
        } else {
            format!("{v:.1}")
        }
    };
    let peak = s
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(ym, v)| format!("peak {} @ {}", fmt_num(*v), ym))
        .unwrap_or_default();
    let first = s.values().first().copied().unwrap_or(0.0);
    let last = s.values().last().copied().unwrap_or(0.0);
    format!(
        "{name}: {} start {}, {peak}, end {}",
        render::sparkline(s.values()),
        fmt_num(first),
        fmt_num(last)
    )
}

fn u64_series(s: &MonthlySeries<u64>) -> MonthlySeries<f64> {
    s.map(|v| *v as f64)
}

/// All experiments in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Taxonomy of collected contracts",
            paper_claim: "188,236 contracts; SALE 64.9% of creation with highest non-completion; EXCHANGE completes at 69.8% (>2x SALE's 32.7%); VOUCH COPY has no denials",
            run: |ctx| taxonomy::taxonomy_table(&ctx.dataset).to_string(),
        },
        Experiment {
            id: "table2",
            title: "Visibility of contract types",
            paper_claim: "88.0% of created contracts private; completed contracts ~30% more often public (15.7%); SALE much more private (8.0% public) than other types (~20%)",
            run: |ctx| visibility::visibility_table(&ctx.dataset).to_string(),
        },
        Experiment {
            id: "fig1",
            title: "Monthly growth of new members and contracts",
            paper_claim: "volumes double over SET-UP; +172% created at the March 2019 mandate, peak April 2019 (~12.5k); slow decline; April 2020 exceeds the 2019 peak (13k+)",
            run: |ctx| {
                let g = growth::growth_series(&ctx.dataset);
                [
                    series_line("contracts created", &u64_series(&g.contracts_created)),
                    series_line("contracts completed", &u64_series(&g.contracts_completed)),
                    series_line("new members (created)", &u64_series(&g.new_members_created)),
                    series_line("new members (completed)", &u64_series(&g.new_members_completed)),
                    format!("mandate jump: {:+.0}%", g.mandate_jump() * 100.0),
                ]
                .join("\n")
            },
        },
        Experiment {
            id: "fig2",
            title: "Public contract proportion per month",
            paper_claim: "starts ~45%, peaks >50% in Aug 2018, falls to ~20% by end of SET-UP and ~10% in STABLE; completed consistently more public than created",
            run: |ctx| {
                let s = visibility::public_share_by_month(&ctx.dataset);
                [
                    series_line("public share (created)", &s.created.map(|v| v * 100.0)),
                    series_line("public share (completed)", &s.completed.map(|v| v * 100.0)),
                ]
                .join("\n")
            },
        },
        Experiment {
            id: "fig3",
            title: "Contract type proportions by month",
            paper_claim: "EXCHANGE ~50% at launch with SALE ~40%; after the mandate SALE >70% of created/55% of completed; VOUCH COPY appears Feb 2020 and keeps growing",
            run: |ctx| {
                let mix = type_mix::type_mix_series(&ctx.dataset);
                let at = |ym: YearMonth| {
                    let row = mix.created.get(ym).copied().unwrap_or_default();
                    format!(
                        "{ym}: SALE {:.0}%, PURCHASE {:.0}%, EXCHANGE {:.0}%, TRADE {:.1}%, VOUCH {:.1}%",
                        row[0] * 100.0, row[1] * 100.0, row[2] * 100.0, row[3] * 100.0, row[4] * 100.0
                    )
                };
                [
                    at(YearMonth::new(2018, 6)),
                    at(YearMonth::new(2019, 4)),
                    at(YearMonth::new(2020, 2)),
                    at(YearMonth::new(2020, 6)),
                ]
                .join("\n")
            },
        },
        Experiment {
            id: "fig4",
            title: "Average completion time by contract type",
            paper_claim: "maxima in early SET-UP; monotone speed-up to <10h by June 2020; TRADE shows noisy short-lived peaks in Feb/Apr 2020",
            run: |ctx| {
                let s = completion::completion_series(&ctx.dataset);
                let mut out = vec![format!("timed share: {:.0}%", s.timed_share * 100.0)];
                for ty in ContractType::ALL {
                    let early = s.at(YearMonth::new(2018, 7), ty);
                    let late = s.at(YearMonth::new(2020, 6), ty);
                    out.push(format!(
                        "{}: Jul-2018 {} -> Jun-2020 {}",
                        ty.label(),
                        early.map_or("n/a".into(), |h| format!("{h:.0}h")),
                        late.map_or("n/a".into(), |h| format!("{h:.0}h")),
                    ));
                }
                out.join("\n")
            },
        },
        Experiment {
            id: "fig5",
            title: "Top percentile of threads and users involved",
            paper_claim: "~5% of users account for >70% of contracts; ~70% of thread-linked contracts come from the top 30% of threads",
            run: |ctx| {
                let c = centralisation::concentration_curves(&ctx.dataset);
                let at = |curve: &[(f64, f64)], p: f64| {
                    curve
                        .iter()
                        .find(|(q, _)| (*q - p).abs() < 1e-9)
                        .map_or(0.0, |(_, s)| *s)
                };
                format!(
                    "top 5% users: {} of created, {} of completed\ntop 30% threads: {} of created, {} of completed",
                    render::pct(at(&c.users_created, 0.05)),
                    render::pct(at(&c.users_completed, 0.05)),
                    render::pct(at(&c.threads_created, 0.30)),
                    render::pct(at(&c.threads_completed, 0.30)),
                )
            },
        },
        Experiment {
            id: "fig6",
            title: "Key thread/member proportion by month",
            paper_claim: "key-member and key-thread shares rise through SET-UP, stabilise in STABLE, dip at its end, then jump at the start of COVID-19",
            run: |ctx| {
                let k = centralisation::key_share_series(&ctx.dataset);
                [
                    series_line("key members (created)", &k.members_created.map(|v| v * 100.0)),
                    series_line("key members (completed)", &k.members_completed.map(|v| v * 100.0)),
                    series_line("key threads (created)", &k.threads_created.map(|v| v * 100.0)),
                ]
                .join("\n")
            },
        },
        Experiment {
            id: "fig7",
            title: "Degree distribution of the contractual network",
            paper_claim: "raw/inbound follow a power law with hubs up to raw 5,004 / inbound 4,992 (created); outbound max far smaller (587); max raw ≈ max inbound",
            run: |ctx| {
                let d = network::degree_distributions(&ctx.dataset);
                let fit = d
                    .raw_power_law
                    .as_ref()
                    .map(|f| format!("alpha {:.2} (KS {:.3})", f.alpha, f.ks_distance))
                    .unwrap_or_else(|| "n/a".into());
                format!(
                    "created max raw/in/out: {}/{}/{}\ncompleted max raw/in/out: {}/{}/{}\nraw power law: {}",
                    d.created_max[0], d.created_max[1], d.created_max[2],
                    d.completed_max[0], d.completed_max[1], d.completed_max[2],
                    fit
                )
            },
        },
        Experiment {
            id: "fig8",
            title: "Growth of network degrees over time",
            paper_claim: "max raw and max inbound rise together steeply in STABLE; outbound grows slowly; average degree rises gradually with a dip in March 2019",
            run: |ctx| {
                let g = network::network_growth(&ctx.dataset);
                let max_raw = g.created.map(|s| s.max_raw as f64);
                let max_out = g.created.map(|s| s.max_outbound as f64);
                let avg = g.created.map(|s| s.avg_raw_degree);
                [
                    series_line("max raw degree", &max_raw),
                    series_line("max outbound degree", &max_out),
                    series_line("avg raw degree", &avg),
                ]
                .join("\n")
            },
        },
        Experiment {
            id: "table3",
            title: "Top trading activities",
            paper_claim: "currency exchange dominates (~75% of categorised activity, 9,516 of 12,703), payments second, giftcard third; delivery/shipping takers ~7x makers",
            run: |ctx| activities::activity_table(&ctx.dataset).to_string(),
        },
        Experiment {
            id: "fig9",
            title: "Evolution of top five products",
            paper_claim: "giftcard leads overall; gaming peaks in SET-UP; hackforums-related ends COVID-19 on top; multimedia rises through COVID-19",
            run: |ctx| {
                let ev = activities::product_evolution(&ctx.dataset);
                ev.series
                    .iter()
                    .map(|(cat, s)| series_line(cat.label(), &u64_series(s)))
                    .collect::<Vec<_>>()
                    .join("\n")
            },
        },
        Experiment {
            id: "table4",
            title: "Top payment methods",
            paper_claim: "Bitcoin ~75% and PayPal ~38% of completed money contracts; Amazon Giftcards third; V-Bucks has the highest repeat rate",
            run: |ctx| payments::payment_table(&ctx.dataset).to_string(),
        },
        Experiment {
            id: "fig10",
            title: "Evolution of top five payment methods",
            paper_claim: "Bitcoin and PayPal dominate all three eras; short-lived COVID-19 rise; Cashapp overtakes PayPal at the end (its highest-ever ranking)",
            run: |ctx| {
                let ev = payments::payment_evolution(&ctx.dataset);
                ev.series
                    .iter()
                    .map(|(m, s)| series_line(m.label(), &u64_series(s)))
                    .collect::<Vec<_>>()
                    .join("\n")
            },
        },
        Experiment {
            id: "table5",
            title: "Trading values",
            paper_claim: "public total $978,800 (avg $85, max $9,861); EXCHANGE $461k > SALE $305k > PURCHASE $205k > TRADE $7k; Bitcoin $809k ≈ 2.4x PayPal $334k; verification 50%/43%/7%; extrapolated $6.17M",
            run: |ctx| values::value_report(&ctx.dataset, &ctx.ledger).to_string(),
        },
        Experiment {
            id: "fig11",
            title: "Monthly value by type, payment method and product",
            paper_claim: "EXCHANGE carries the highest monthly value with a brief SALE takeover in Mar-Apr 2020; Bitcoin ~90% up in COVID-19 and 8x PayPal by June 2020; giftcard top product by value",
            run: |ctx| {
                let ev = values::value_evolution(&ctx.dataset, &ctx.ledger);
                let mut out: Vec<String> = ContractType::ALL
                    .iter()
                    .enumerate()
                    .filter(|(_, ty)| !ty.is_reputation_only())
                    .map(|(i, ty)| series_line(ty.label(), &ev.by_type[i]))
                    .collect();
                for (m, s) in &ev.by_payment {
                    out.push(series_line(&format!("pay:{}", m.label()), s));
                }
                out.join("\n")
            },
        },
        Experiment {
            id: "table6",
            title: "Latent classes (12-class Poisson LTM)",
            paper_claim: "12 classes from single SALE makers (C) and takers (J) to exchanger power-users (K: 31.2 made / 54.9 accepted EXCHANGE monthly) and the SALE-taker power class (L: 54.9 accepted SALE)",
            run: |ctx| ctx.ltm().to_string(),
        },
        Experiment {
            id: "table8",
            title: "Top maker→taker flows per era",
            paper_claim: "SALE flows concentrate from C→J (22%, SET-UP) into C→L (47%) and C→A (20%) in STABLE; PURCHASE is H→C/J→C throughout; EXCHANGE F→K strengthens to 10% in COVID-19",
            run: |ctx| {
                let a = ctx.ltm();
                a.flows
                    .iter()
                    .map(|f| {
                        format!(
                            "{} {}: {} -> {} ({:.0}%, {:.1}/mo)",
                            f.era,
                            f.contract_type.label(),
                            f.maker_label,
                            f.taker_label,
                            f.share * 100.0,
                            f.avg_per_month
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("\n")
            },
        },
        Experiment {
            id: "fig12",
            title: "Transactions made by class over time",
            paper_claim: "EXCHANGE making shifts from one-shot users to power-users across SET-UP; SALE making is dominated by class C throughout, quadrupling at the mandate",
            run: |ctx| summarize_class_volumes(ctx.ltm(), false),
        },
        Experiment {
            id: "fig13",
            title: "Transactions accepted by class over time",
            paper_claim: "SALE acceptance shifts from J (SET-UP) to the emerging L and A classes (STABLE onwards); EXCHANGE acceptance concentrates in K/E/B power classes",
            run: |ctx| summarize_class_volumes(ctx.ltm(), true),
        },
        Experiment {
            id: "table7",
            title: "Cold-start outlier clusters",
            paper_claim: "2 clusters (97.7% low-activity); 122 outliers in 8 sub-clusters; outlier lifespan 250d vs <1d; 54.1% vs 13.0% continue into COVID-19; reputation 157 vs 33",
            run: |ctx| coldstart::cold_start_analysis(&ctx.dataset, ctx.seed).to_string(),
        },
        Experiment {
            id: "table9",
            title: "ZIP regression, all users per era",
            paper_claim: "activity (initiated contracts, marketplace posts) raises completions in every era; ZIP preferred by Vuong; first-time users complete fewer contracts in STABLE/COVID-19",
            run: |ctx| zip_table_text(ctx, &regression::TABLE9),
        },
        Experiment {
            id: "table10",
            title: "ZIP regression, first-time vs existing users",
            paper_claim: "first-time users penalised for negative ratings/disputes in STABLE; existing users are not; the asymmetry persists in COVID-19",
            run: |ctx| zip_table_text(ctx, &regression::TABLE10),
        },
    ]
}

/// Renders one ZIP table's models, one block per model.
fn zip_table_text(ctx: &ExperimentContext, specs: &[(Era, regression::UserSubset)]) -> String {
    let models = regression::table_models(&ctx.dataset, specs);
    models.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
}

fn summarize_class_volumes(a: &ltm::LtmAnalysis, accepted: bool) -> String {
    let data = if accepted { &a.accepted } else { &a.made };
    let mut out = Vec::new();
    for (fi, ty) in ltm::FIGURE_TYPES.iter().enumerate() {
        // Total per class over the window; report the top three classes.
        let k = a.fit.k;
        let mut totals = vec![0u64; k];
        for month in &data[fi] {
            for (c, v) in month.iter().enumerate() {
                totals[c] += v;
            }
        }
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(totals[c]));
        let top: Vec<String> = order
            .iter()
            .take(3)
            .map(|&c| format!("{} ({})", a.labels[c], render::thousands(totals[c])))
            .collect();
        out.push(format!(
            "{} {}: top classes {}",
            ty.label(),
            if accepted { "accepted" } else { "made" },
            top.join(", ")
        ));
    }
    out.join("\n")
}

/// Extension experiments: quantified versions of claims the paper makes in
/// prose (§4–6). Separated from [`all_experiments`] so the paper-artifact
/// registry stays exactly the paper's tables and figures.
pub fn extension_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "ext-stimulus",
            title: "COVID-19: stimulus vs transformation",
            paper_claim: "volumes increase across all product categories but the same kinds of transactions, users and behaviours dominate — a stimulus rather than a transformation (§6)",
            run: |ctx| stimulus::stimulus_analysis(&ctx.dataset).to_string(),
        },
        Experiment {
            id: "ext-disputes",
            title: "Dispute rates and the storming phase",
            paper_claim: "disputes ~1% of contracts, peaking at 2-3% in the last six months of SET-UP, then dropping to a half or third at the start of STABLE; one user records 21 disputes; disputed deals are mostly Bitcoin exchanges (§5.1, §4.5)",
            run: |ctx| disputes::dispute_analysis(&ctx.dataset).to_string(),
        },
        Experiment {
            id: "ext-repeat",
            title: "One-off users and repeat rates",
            paper_claim: "49% of makers initiate one contract, 16% two, 5% more than twenty; the taker tail is longer (two takers above 9,000); V-Bucks has the highest per-trader repeat rate at 8.37 (§4.3-4.4)",
            run: |ctx| repeat::repeat_analysis(&ctx.dataset).to_string(),
        },
        Experiment {
            id: "ext-eras",
            title: "Inductive era detection",
            paper_claim: "the era boundaries are deductive, imposed from external events (§2.2) — but the mandate and the COVID-19 spike are volume shifts large enough to re-emerge from changepoint detection on the monthly series",
            run: |ctx| eras::detect_eras(&ctx.dataset).to_string(),
        },
        Experiment {
            id: "ext-dynamics",
            title: "Latent transition dynamics (Baum-Welch HMM)",
            paper_claim: "the LTM's transition layer: one-shot classes churn within a month or two while power-user classes persist across eras (§5.1's narrative of stable power-user identities)",
            run: |ctx| ltm::ltm_dynamics(&ctx.dataset, ctx.ltm(), ctx.seed).to_string(),
        },
        Experiment {
            id: "ext-forum",
            title: "Threads and posts corpus",
            paper_claim: "68.4% of public contracts (8.2% overall) are associated with a thread; ~6,000 threads with ~200,000 posts by ~30,000 members (§3)",
            run: |ctx| forum::forum_stats(&ctx.dataset).to_string(),
        },
        Experiment {
            id: "ext-mixing",
            title: "Assortativity: peer-to-peer to business-to-customer",
            paper_claim: "SET-UP trade runs largely between parties of similar size; STABLE grows business-to-customer patterns with power-users cultivating small-scale customers (§6)",
            run: |ctx| mixing::mixing_analysis(&ctx.dataset).to_string(),
        },
    ]
}

/// Runs every experiment, returning `(id, title, paper claim, output)`.
///
/// Experiments fan out across the pool and the results are collected in
/// registry order; each experiment only reads the shared context (the LTM
/// cache is a `OnceLock`, so concurrent first use is race-free).
pub fn run_all(ctx: &ExperimentContext) -> Vec<(String, String, String, String)> {
    dial_par::parallel_map(all_experiments(), |e| {
        let output = (e.run)(ctx);
        (e.id.to_string(), e.title.to_string(), e.paper_claim.to_string(), output)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dial_sim::SimConfig;

    #[test]
    fn registry_covers_all_tables_and_figures() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        for t in 1..=10 {
            assert!(ids.contains(&format!("table{t}").as_str()), "missing table{t}");
        }
        for f in 1..=13 {
            assert!(ids.contains(&format!("fig{f}").as_str()), "missing fig{f}");
        }
    }

    #[test]
    fn every_experiment_runs_on_a_small_market() {
        let out = SimConfig::paper_default().with_seed(21).with_scale(0.02).simulate_full();
        // k = 6 keeps the test fast; the harness uses 12.
        let ctx = ExperimentContext::new(out.dataset, out.ledger, 21, 6);
        for e in all_experiments() {
            let rendered = (e.run)(&ctx);
            assert!(!rendered.trim().is_empty(), "{} produced no output", e.id);
        }
    }

    #[test]
    fn registry_has_structured_json_for_every_id() {
        let out = SimConfig::paper_default().with_seed(21).with_scale(0.02).simulate_full();
        let ctx = ExperimentContext::new(out.dataset, out.ledger, 21, 6);
        for e in all_experiments().iter().chain(extension_experiments().iter()) {
            let body = structured_json(e.id, &ctx);
            assert!(body.is_some(), "{} has no structured JSON mapping", e.id);
            let body = body.unwrap();
            // Every payload must parse back as JSON.
            let parsed: Result<serde_json::Value, _> = serde_json::from_str(&body);
            assert!(parsed.is_ok(), "{} produced invalid JSON: {:?}", e.id, parsed.err());
            assert_eq!(body, e.run_json(&ctx), "{}: run_json disagrees with mapping", e.id);
        }
    }
}
