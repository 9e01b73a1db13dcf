//! Figures 13, 14, 15 and 20: the offline experiments over range-predicate
//! interfaces (impact of k, n and m, and the anytime property).

use skyweb_core::{BaselineCrawl, RqDbSky, SqDbSky};
use skyweb_datagen::flights_dot;
use skyweb_hidden_db::InterfaceType;

use super::helpers::{
    flights_all_rq, flights_base, mk_db_sum, queries_per_discovery, run, run_capped, skyline_size,
};
use crate::{pool, FigureResult, Scale};

/// Figure 13: RQ-DB-SKY vs the crawling BASELINE as the top-k constraint
/// varies.
pub fn fig13(scale: Scale) -> FigureResult {
    let n = scale.pick(5_000, 50_000);
    let baseline_budget = scale.pick(20_000u64, 200_000u64);
    let base = flights_base(scale).sample(n, 13);
    let ds = flights_all_rq(&base);

    let mut fig = FigureResult::new(
        "fig13",
        format!("Range predicates, impact of k (DOT-like, n = {n})"),
        vec!["k", "rq_cost", "baseline_cost", "baseline_complete"],
    );
    // Each k is an independent series (own databases, no shared RNG), so
    // the sweep runs on the worker pool; rows come back in sweep order.
    let ks = [1usize, 10, 20, 30, 40, 50];
    for row in pool::par_map(ks.len(), |i| {
        let k = ks[i];
        let db = mk_db_sum(ds.clone(), k);
        let rq = run(&RqDbSky::new(), &db);
        let db_b = mk_db_sum(ds.clone(), k);
        let baseline = run_capped(&BaselineCrawl::new(), &db_b, baseline_budget);
        vec![
            k as f64,
            rq.query_cost as f64,
            baseline.query_cost as f64,
            if baseline.complete { 1.0 } else { 0.0 },
        ]
    }) {
        fig.push_row(row);
    }
    fig.note(format!(
        "BASELINE capped at {baseline_budget} queries (rows with baseline_complete = 0 are lower bounds)"
    ));
    fig
}

/// Figure 14: impact of the database size n on SQ-/RQ-DB-SKY and on the
/// skyline size.
pub fn fig14(scale: Scale) -> FigureResult {
    let sizes: Vec<usize> = scale.pick(
        vec![2_000, 5_000, 10_000, 20_000],
        vec![50_000, 100_000, 200_000, 300_000, 400_000],
    );
    let k = 10;
    let base = flights_base(scale);

    let mut fig = FigureResult::new(
        "fig14",
        format!("Range predicates, impact of n (DOT-like, k = {k})"),
        vec!["n", "skyline", "sq_cost", "rq_cost"],
    );
    for row in pool::par_map(sizes.len(), |i| {
        let n = sizes[i];
        // Deterministic per-task seed, exactly as the serial sweep used.
        let ds = flights_all_rq(&base.sample(n, 14 + i as u64));
        let skyline = skyline_size(&ds);
        let sq = run(&SqDbSky::new(), &mk_db_sum(ds.clone(), k));
        let rq = run(&RqDbSky::new(), &mk_db_sum(ds, k));
        vec![
            n as f64,
            skyline as f64,
            sq.query_cost as f64,
            rq.query_cost as f64,
        ]
    }) {
        fig.push_row(row);
    }
    fig
}

/// Figure 15: impact of the number of ranking attributes m on SQ-/RQ-DB-SKY
/// and on the skyline size.
pub fn fig15(scale: Scale) -> FigureResult {
    let n = scale.pick(5_000, 100_000);
    let max_m = scale.pick(7, 10);
    let k = 10;
    let sq_budget = scale.pick(50_000u64, 300_000u64);
    let base = flights_base(scale).sample(n, 15);

    // Attribute order used for the m-sweep: the nine primary attributes plus
    // one derived group attribute to reach m = 10.
    let mut order: Vec<&str> = flights_dot::PRIMARY_RANKING.to_vec();
    order.push("taxi_out_group");

    let mut fig = FigureResult::new(
        "fig15",
        format!("Range predicates, impact of m (DOT-like, n = {n}, k = {k})"),
        vec!["m", "skyline", "sq_cost", "rq_cost"],
    );
    for row in pool::par_map(max_m - 1, |i| {
        let m = i + 2;
        let names: Vec<&str> = order[..m].to_vec();
        let mut ds = base.project(&names);
        for name in &names {
            ds = ds.with_interface(name, InterfaceType::Rq);
        }
        let skyline = skyline_size(&ds);
        let sq = run_capped(&SqDbSky::new(), &mk_db_sum(ds.clone(), k), sq_budget);
        let rq = run(&RqDbSky::new(), &mk_db_sum(ds, k));
        vec![
            m as f64,
            skyline as f64,
            sq.query_cost as f64,
            rq.query_cost as f64,
        ]
    }) {
        fig.push_row(row);
    }
    fig.note(format!("SQ budget capped at {sq_budget}"));
    fig
}

/// Figure 20: the anytime property of SQ- and RQ-DB-SKY — cumulative query
/// cost needed to reach the i-th discovered skyline tuple.
pub fn fig20(scale: Scale) -> FigureResult {
    let n = scale.pick(5_000, 100_000);
    let k = 10;
    let base = flights_base(scale).sample(n, 20);
    let names = [
        "dep_delay",
        "taxi_out",
        "taxi_in",
        "air_time",
        "arrival_delay",
    ];
    let mut ds = base.project(&names);
    for name in &names {
        ds = ds.with_interface(name, InterfaceType::Rq);
    }

    // Two independent discovery runs (separate databases) — one pool task
    // each.
    let mut runs = pool::par_map(2, |i| {
        if i == 0 {
            run(&SqDbSky::new(), &mk_db_sum(ds.clone(), k))
        } else {
            run(&RqDbSky::new(), &mk_db_sum(ds.clone(), k))
        }
    });
    let rq = runs.pop().expect("two runs");
    let sq = runs.pop().expect("two runs");
    let total = sq.skyline.len().max(rq.skyline.len());
    let sq_curve = queries_per_discovery(&sq.trace, total);
    let rq_curve = queries_per_discovery(&rq.trace, total);

    let mut fig = FigureResult::new(
        "fig20",
        format!("Anytime property of SQ-/RQ-DB-SKY (5 range attributes, n = {n}, k = {k})"),
        vec!["skyline_idx", "sq_queries", "rq_queries"],
    );
    for i in 0..total {
        fig.push_row(vec![(i + 1) as f64, sq_curve[i] as f64, rq_curve[i] as f64]);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 20: the anytime curves of SQ- and RQ-DB-SKY never decrease:
    /// reaching one more skyline tuple never takes fewer queries. At quick
    /// scale both reach all 19 skyline tuples, SQ after 32 queries and RQ
    /// after 42.
    #[test]
    fn fig20_anytime_curves_never_decrease() {
        let fig = fig20(Scale::Quick);
        for series in ["sq_queries", "rq_queries"] {
            let curve = fig.column(series);
            assert!(
                curve.windows(2).all(|w| w[0] <= w[1]),
                "{series} decreases: {curve:?}"
            );
        }
    }

    /// Figure 13: RQ-DB-SKY costs far fewer queries than crawling the
    /// database, at every k. At quick scale the crawl costs at least 5.67×
    /// RQ's queries (k = 50); the bound, 4×, leaves a 30% margin. A crawl
    /// stopped at its budget reports a lower bound of its cost, which only
    /// understates the ratio.
    #[test]
    fn fig13_rq_is_far_cheaper_than_the_crawl() {
        let fig = fig13(Scale::Quick);
        let ks = fig.column("k");
        let crawl = fig.column("baseline_cost");
        for (i, rq) in fig.column("rq_cost").into_iter().enumerate() {
            assert!(
                crawl[i] >= 4.0 * rq,
                "k = {}: the crawl costs {} queries against RQ's {rq}",
                ks[i],
                crawl[i]
            );
        }
    }
}
