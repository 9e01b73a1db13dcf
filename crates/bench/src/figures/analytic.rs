//! Figures 4 and 6: the analytical worst-vs-average-case comparison and the
//! SQ-vs-RQ simulation over a controlled skyline-size sweep.

use skyweb_core::{analysis, RqDbSky, SqDbSky};
use skyweb_datagen::synthetic;
use skyweb_hidden_db::RandomSkylineRanker;
use skyweb_skyline::sfs_skyline;

use super::helpers::{mk_db, run, run_capped};
use crate::{pool, FigureResult, Scale};

/// Figure 4: average-case vs worst-case query cost of SQ-DB-SKY as a
/// function of the skyline size, for m = 4 and m = 8 attributes.
pub fn fig04(_scale: Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig04",
        "SQ-DB-SKY analytical cost: average case vs worst case (m = 4, 8)",
        vec![
            "|S|", "avg_m4", "bound_m4", "worst_m4", "avg_m8", "bound_m8", "worst_m8",
        ],
    );
    for s in (1..=19).step_by(2) {
        fig.push_row(vec![
            s as f64,
            analysis::sq_average_case_cost(4, s),
            analysis::sq_average_case_upper_bound(4, s),
            analysis::sq_worst_case_bound(4, s),
            analysis::sq_average_case_cost(8, s),
            analysis::sq_average_case_upper_bound(8, s),
            analysis::sq_worst_case_bound(8, s),
        ]);
    }
    fig.note("closed forms only; no queries are issued for this figure");
    fig
}

/// Figure 6: simulated query cost of SQ-DB-SKY vs RQ-DB-SKY as the number
/// of skyline tuples grows (controlled through attribute correlation), under
/// the randomized (average-case) ranking function.
pub fn fig06(scale: Scale) -> FigureResult {
    let n = scale.pick(600, 2_000);
    let m = scale.pick(3, 4);
    let steps = scale.pick(4, 6);
    let sq_budget = scale.pick(40_000u64, 400_000u64);

    let mut fig = FigureResult::new(
        "fig06",
        format!("SQ- vs RQ-DB-SKY query cost vs skyline size ({m}D, n = {n}, k = 1)"),
        vec!["rho", "skyline", "sq_cost", "rq_cost", "sq_complete"],
    );

    // Sweep the correlation from strongly positive (tiny skyline) to mildly
    // anti-correlated (larger skyline); strongly anti-correlated data would
    // push SQ-DB-SKY deep into its exponential regime, which the paper only
    // reports analytically.
    // Each correlation step builds its own dataset and its own seeded
    // rankers, so steps parallelize without perturbing the randomness.
    for row in pool::par_map(steps, |step| {
        let rho = 0.95 - 1.35 * step as f64 / (steps as f64 - 1.0);
        let correlation = if rho >= 0.0 {
            synthetic::Correlation::Correlated(rho)
        } else {
            synthetic::Correlation::AntiCorrelated(-rho)
        };
        let ds = synthetic::generate(&synthetic::SyntheticConfig {
            n,
            m,
            domain_size: 60,
            correlation,
            seed: 60 + step as u64,
        });
        let skyline = sfs_skyline(&ds.tuples, &ds.schema).len();

        let db_sq = mk_db(ds.clone(), 1, || Box::new(RandomSkylineRanker::new(7)));
        let sq = run_capped(&SqDbSky::new(), &db_sq, sq_budget);
        let db_rq = mk_db(ds, 1, || Box::new(RandomSkylineRanker::new(7)));
        let rq = run(&RqDbSky::new(), &db_rq);

        vec![
            rho,
            skyline as f64,
            sq.query_cost as f64,
            rq.query_cost as f64,
            if sq.complete { 1.0 } else { 0.0 },
        ]
    }) {
        fig.push_row(row);
    }
    fig.note(format!(
        "ranking function: uniform over matching skyline tuples; SQ budget capped at {sq_budget}"
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 6: RQ-DB-SKY never costs more queries than SQ-DB-SKY, and SQ
    /// completes inside its budget on every step. A range predicate splits
    /// a subspace that SQ must split one value at a time, so the gap opens
    /// as the skyline grows: at quick scale RQ/SQ read 7/7, 46/64, 70/109
    /// and 163/877 as `rho` falls from 0.95 to −0.40.
    #[test]
    fn fig06_rq_costs_no_more_than_sq() {
        let fig = fig06(Scale::Quick);
        let rho = fig.column("rho");
        let sq = fig.column("sq_cost");
        for (i, rq) in fig.column("rq_cost").into_iter().enumerate() {
            assert!(
                rq <= sq[i],
                "rho = {}: RQ costs {rq} queries against SQ's {}",
                rho[i],
                sq[i]
            );
        }
        let complete = fig.column("sq_complete");
        assert!(
            complete.iter().all(|&c| c == 1.0),
            "SQ ran out of budget: {complete:?}"
        );
    }
}
