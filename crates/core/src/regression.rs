//! Tables 9–10: Zero-Inflated Poisson models of completed contracts.
//!
//! For each era, every member party to at least one contract created in
//! that era is one observation. The outcome is their number of completed
//! contracts in the era; predictors are the cold-start variables (§5.2):
//! disputes, positive/negative ratings, marketplace post count, contracts
//! initiated and accepted, first-time-user status and length of
//! participation since first active post. Following the paper, all
//! variables except length (and the outcome) are square-root transformed.

use crate::render::TextTable;
use dial_model::{Dataset, UserId};
use dial_stats::distributions::significance_stars;
use dial_stats::glm::design_with_intercept;
use dial_stats::{PoissonRegression, VuongTest, ZipFit, ZipModel};
use dial_time::Era;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Which users enter the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UserSubset {
    /// All users of the contract system in the era (Table 9).
    All,
    /// Only first-time contract users (Table 10 left).
    FirstTime,
    /// Only users with pre-era contract history (Table 10 right).
    Existing,
}

/// The per-user cold-start variables for one era.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ColdStartVars {
    /// Disputed contracts involving the user in the era.
    pub disputes: f64,
    /// Positive B-ratings received in the era.
    pub positive: f64,
    /// Negative B-ratings received in the era.
    pub negative: f64,
    /// Marketplace posts in the era.
    pub marketplace_posts: f64,
    /// Contracts initiated in the era.
    pub initiated: f64,
    /// Contracts accepted in the era.
    pub accepted: f64,
    /// True if the user's first-ever contract falls in this era.
    pub first_time: bool,
    /// Days from first active post to era end (0 if the user never posted).
    pub length_days: f64,
    /// Outcome: completed contracts involving the user in the era.
    pub completed: f64,
}

/// Collects the per-user variables for an era.
pub fn cold_start_variables(dataset: &Dataset, era: Era) -> HashMap<UserId, ColdStartVars> {
    let mut vars: HashMap<UserId, ColdStartVars> = HashMap::new();
    // First-ever contract month per user (single pass over id order, which
    // is generation order).
    let mut first_contract_era: HashMap<UserId, Era> = HashMap::new();
    for c in dataset.contracts() {
        if let Some(e) = c.created_era() {
            for p in c.parties() {
                first_contract_era.entry(p).or_insert(e);
            }
        }
    }

    for c in dataset.contracts_in_era(era) {
        let maker = vars.entry(c.maker).or_default();
        maker.initiated += 1.0;
        if c.is_disputed() {
            maker.disputes += 1.0;
        }
        if c.is_complete() {
            maker.completed += 1.0;
        }
        // The maker is rated by the taker.
        match c.taker_rating {
            Some(r) if r > 0 => maker.positive += 1.0,
            Some(_) => maker.negative += 1.0,
            None => {}
        }
        let taker = vars.entry(c.taker).or_default();
        if c.status.was_accepted() {
            taker.accepted += 1.0;
        }
        if c.is_disputed() {
            taker.disputes += 1.0;
        }
        if c.is_complete() {
            taker.completed += 1.0;
        }
        match c.maker_rating {
            Some(r) if r > 0 => taker.positive += 1.0,
            Some(_) => taker.negative += 1.0,
            None => {}
        }
    }

    // Marketplace posts within the era.
    let (start, end) = (era.start(), era.end());
    for p in dataset.posts() {
        if !p.in_marketplace {
            continue;
        }
        let d = p.at.date();
        if d >= start && d <= end {
            if let Some(v) = vars.get_mut(&p.author) {
                v.marketplace_posts += 1.0;
            }
        }
    }

    // lint:allow(nondeterministic-iteration): per-user field fill from dataset lookups; no cross-entry state
    for (user, v) in vars.iter_mut() {
        v.first_time = first_contract_era.get(user) == Some(&era);
        let u = dataset.user(*user);
        v.length_days =
            u.first_post.map(|fp| (end.days_since(fp.date())).max(0) as f64).unwrap_or(0.0);
    }
    vars
}

/// One reported coefficient.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoefRow {
    /// Variable name.
    pub name: String,
    /// Point estimate.
    pub estimate: f64,
    /// Standard error.
    pub std_err: f64,
    /// Wald z.
    pub z: f64,
    /// Significance stars at the paper's thresholds.
    pub stars: String,
}

/// A fitted era model (one column group of Tables 9–10).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EraZipModel {
    /// The era.
    pub era: Era,
    /// The user subset modelled.
    pub subset: UserSubset,
    /// Count-model coefficient rows (intercept last, as in the paper).
    pub count_rows: Vec<CoefRow>,
    /// Zero-inflation coefficient rows.
    pub zero_rows: Vec<CoefRow>,
    /// Observations.
    pub n: usize,
    /// Share of zero-completed-contract users (%).
    pub pct_zero: f64,
    /// McFadden's pseudo-R².
    pub mcfadden_r2: f64,
    /// The Vuong statistic vs plain Poisson (positive favours ZIP).
    pub vuong_statistic: f64,
    /// The underlying fit.
    pub zip: ZipFit,
}

/// Table 9's models: all users, one per era.
pub const TABLE9: [(Era, UserSubset); 3] = [
    (Era::SetUp, UserSubset::All),
    (Era::Stable, UserSubset::All),
    (Era::Covid19, UserSubset::All),
];

/// Table 10's models: first-time vs existing users in STABLE and COVID-19.
pub const TABLE10: [(Era, UserSubset); 4] = [
    (Era::Stable, UserSubset::FirstTime),
    (Era::Stable, UserSubset::Existing),
    (Era::Covid19, UserSubset::FirstTime),
    (Era::Covid19, UserSubset::Existing),
];

/// Fits one table's models ([`TABLE9`] or [`TABLE10`]), in spec order,
/// leaving out any that [`era_zip_model`] skips. The fits share nothing, so
/// they fan out over the pool; each result is the serial one, at any width.
pub fn table_models(dataset: &Dataset, specs: &[(Era, UserSubset)]) -> Vec<EraZipModel> {
    dial_par::parallel_map(specs.to_vec(), |(era, subset)| era_zip_model(dataset, era, subset))
        .into_iter()
        .flatten()
        .collect()
}

/// Fits the ZIP model for one era and subset. Returns `None` if fewer than
/// 50 users qualify (tiny-scale simulations).
pub fn era_zip_model(dataset: &Dataset, era: Era, subset: UserSubset) -> Option<EraZipModel> {
    let vars = cold_start_variables(dataset, era);
    let include_first_time = era != Era::SetUp && subset == UserSubset::All;

    let mut count_rows_raw: Vec<Vec<f64>> = Vec::new();
    let mut zero_rows_raw: Vec<Vec<f64>> = Vec::new();
    let mut y = Vec::new();
    // Deterministic observation order (HashMap iteration order would make
    // fits differ between runs).
    let mut users: Vec<UserId> = vars.keys().copied().collect();
    users.sort();
    for v in users.iter().map(|u| &vars[u]) {
        match subset {
            UserSubset::All => {}
            UserSubset::FirstTime if !v.first_time => continue,
            UserSubset::Existing if v.first_time => continue,
            _ => {}
        }
        let mut row = vec![
            v.disputes.sqrt(),
            v.positive.sqrt(),
            v.negative.sqrt(),
            v.marketplace_posts.sqrt(),
            v.initiated.sqrt(),
            v.accepted.sqrt(),
        ];
        if include_first_time {
            row.push(f64::from(v.first_time));
        }
        row.push(v.length_days);
        count_rows_raw.push(row);

        let mut zrow = vec![v.disputes.sqrt(), v.negative.sqrt()];
        if include_first_time {
            zrow.push(f64::from(v.first_time));
        }
        zrow.push(v.length_days);
        zero_rows_raw.push(zrow);
        y.push(v.completed);
    }
    if y.len() < 50 {
        return None;
    }

    let x_count = design_with_intercept(&count_rows_raw);
    let x_zero = design_with_intercept(&zero_rows_raw);
    let zip = ZipModel::fit(&x_count, &x_zero, &y).ok()?;
    let poisson = PoissonRegression::fit(&x_count, &y, None).ok()?;
    let vuong = VuongTest::zip_vs_poisson(&x_count, &x_zero, &y, &zip, &poisson);

    let mut count_names = vec![
        "Disputes",
        "Positive Rating",
        "Negative Rating",
        "Marketplace Post Count",
        "No. of Initiated Contracts",
        "No. of Accepted Contracts",
    ];
    if include_first_time {
        count_names.push("First-Time Contract User");
    }
    count_names.push("Length");
    let mut zero_names = vec!["Disputes", "Negative Rating"];
    if include_first_time {
        zero_names.push("First-Time Contract User");
    }
    zero_names.push("Length");

    let rows = |names: &[&str], coef: &[f64], se: &[f64], z: &[f64], p: &[f64]| {
        let mut out = Vec::new();
        // coef[0] is the intercept; named rows start at 1.
        for (i, name) in names.iter().enumerate() {
            out.push(CoefRow {
                name: name.to_string(),
                estimate: coef[i + 1],
                std_err: se[i + 1],
                z: z[i + 1],
                stars: significance_stars(p[i + 1]).to_string(),
            });
        }
        out.push(CoefRow {
            name: "(Intercept)".into(),
            estimate: coef[0],
            std_err: se[0],
            z: z[0],
            stars: significance_stars(p[0]).to_string(),
        });
        out
    };

    Some(EraZipModel {
        era,
        subset,
        count_rows: rows(&count_names, &zip.count_coef, &zip.count_se, &zip.count_z, &zip.count_p),
        zero_rows: rows(&zero_names, &zip.zero_coef, &zip.zero_se, &zip.zero_z, &zip.zero_p),
        n: zip.n,
        pct_zero: zip.pct_zero,
        mcfadden_r2: zip.mcfadden_r2,
        vuong_statistic: vuong.statistic,
        zip,
    })
}

impl fmt::Display for EraZipModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Zero-Inflated Poisson — {} ({:?} users)", self.era, self.subset)?;
        let mut t = TextTable::new(&["", "Estimate", "", "Std. Error", "Z Value"]);
        t.row(vec![
            "Count Model".into(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
        for r in &self.count_rows {
            t.row(vec![
                r.name.clone(),
                format!("{:.3}", r.estimate),
                r.stars.to_string(),
                format!("{:.3}", r.std_err),
                format!("{:.2}", r.z),
            ]);
        }
        t.row(vec![
            "Zero-Inflation Model".into(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
        for r in &self.zero_rows {
            t.row(vec![
                r.name.clone(),
                format!("{:.3}", r.estimate),
                r.stars.to_string(),
                format!("{:.3}", r.std_err),
                format!("{:.2}", r.z),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "n = {}   zero-completed = {:.1}%   McFadden R² = {:.3}   Vuong = {:.1}",
            self.n, self.pct_zero, self.mcfadden_r2, self.vuong_statistic
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dial_sim::SimConfig;

    #[test]
    fn table9_models_fit_and_favour_zip() {
        let ds = SimConfig::paper_default().with_seed(21).with_scale(0.04).simulate();
        for era in Era::ALL {
            let model = era_zip_model(&ds, era, UserSubset::All).expect("model fits");
            assert!(model.n > 100, "{era}: n = {}", model.n);
            // Activity predicts completions: most activity covariates are
            // positive and significant in the count model. (Individual
            // signs can flip under collinearity — accepted contracts is
            // negative even in the paper's SET-UP column — so assert on
            // the preponderance, not single coefficients.)
            let activity_vars = ["Positive Rating", "Marketplace Post", "Initiated", "Accepted"];
            let positive_significant = model
                .count_rows
                .iter()
                .filter(|r| activity_vars.iter().any(|v| r.name.contains(v)))
                .filter(|r| r.estimate > 0.0 && !r.stars.is_empty())
                .count();
            // Small-era fits (SET-UP at test scale has only a few hundred
            // users) are too noisy for a multi-coefficient claim.
            let required = if model.n >= 1000 { 2 } else { 1 };
            assert!(
                positive_significant >= required,
                "{era}: only {positive_significant} positive significant (n={})",
                model.n
            );
            // The Vuong test favours ZIP, as the paper reports for all
            // models. The statistic scales with √n: decisive at full scale
            // (see EXPERIMENTS.md), noisy below ~1,000 users, so only the
            // larger eras are held to a positive threshold here.
            if model.n >= 1000 {
                assert!(model.vuong_statistic > 0.2, "{era}: Vuong {}", model.vuong_statistic);
            } else {
                assert!(model.vuong_statistic > -2.0, "{era}: Vuong {}", model.vuong_statistic);
            }
            assert!(model.mcfadden_r2 > 0.2, "{era}: R² {}", model.mcfadden_r2);
            assert!(model.to_string().contains("Count Model"));
        }
    }

    #[test]
    fn table10_subsets_fit() {
        let ds = SimConfig::paper_default().with_seed(21).with_scale(0.04).simulate();
        for era in [Era::Stable, Era::Covid19] {
            let ft = era_zip_model(&ds, era, UserSubset::FirstTime).expect("first-time model");
            let ex = era_zip_model(&ds, era, UserSubset::Existing).expect("existing model");
            assert!(ft.n + ex.n > 100);
            // First-time users are more often left with zero completed
            // contracts than existing users.
            assert!(
                ft.pct_zero >= ex.pct_zero * 0.8,
                "{era}: first-time {}% vs existing {}%",
                ft.pct_zero,
                ex.pct_zero
            );
        }
    }
}
