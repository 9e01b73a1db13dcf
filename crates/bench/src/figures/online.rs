//! Figures 22, 23 and 24: the "live" experiments over Blue Nile, Google
//! Flights and Yahoo! Autos, reproduced against the synthetic stand-in
//! databases of `skyweb-datagen` (same schemas, interface types, default
//! price ranking and k).

use skyweb_core::{BaselineCrawl, MqDbSky};
use skyweb_datagen::{autos, diamonds, gflights, Dataset};
use skyweb_hidden_db::SingleAttributeRanker;

use super::helpers::{mk_db, queries_per_discovery, run, run_capped};
use crate::{pool, FigureResult, Scale};

/// Number of progress checkpoints reported for the discovery-progress
/// figures.
const CHECKPOINTS: usize = 20;

fn price_db(ds: Dataset, k: usize) -> skyweb_hidden_db::HiddenDb {
    let price = ds
        .schema
        .attr_by_name("price")
        .expect("online datasets have a price attribute");
    mk_db(ds, k, || Box::new(SingleAttributeRanker::new(price)))
}

/// Shared shape of Figures 22 and 24: cumulative query cost of MQ-DB-SKY vs
/// the (budget-capped) BASELINE as discovery progresses.
fn online_progress_figure(
    id: &str,
    title: String,
    ds: Dataset,
    k: usize,
    baseline_budget: u64,
) -> FigureResult {
    // The discovery run and the crawl are independent (separate database
    // instances) — one pool task each.
    let mut runs = pool::par_map(2, |i| {
        let db = price_db(ds.clone(), k);
        if i == 0 {
            run(&MqDbSky::new(), &db)
        } else {
            run_capped(&BaselineCrawl::new(), &db, baseline_budget)
        }
    });
    let baseline = runs.pop().expect("two runs");
    let mq = runs.pop().expect("two runs");

    let total = mq.skyline.len().max(1);
    let mq_curve = queries_per_discovery(&mq.trace, total);
    let baseline_curve = queries_per_discovery(&baseline.trace, total);
    let baseline_found = baseline.skyline.len();

    let mut fig = FigureResult::new(
        id,
        title,
        vec!["skyline_discovered", "mq_queries", "baseline_queries"],
    );
    for c in 1..=CHECKPOINTS {
        let idx = ((c * total) / CHECKPOINTS).max(1);
        fig.push_row(vec![
            idx as f64,
            mq_curve[idx - 1] as f64,
            baseline_curve[idx - 1] as f64,
        ]);
    }
    fig.note(format!(
        "MQ-DB-SKY discovered {} skyline tuples in {} queries ({:.2} queries/tuple)",
        mq.skyline.len(),
        mq.query_cost,
        mq.queries_per_skyline()
    ));
    fig.note(format!(
        "BASELINE stopped after {} queries having seen {} skyline tuples (complete = {}); \
         its per-checkpoint numbers are the queries it needed to have *seen* that many \
         skyline tuples, which it cannot certify without finishing the crawl",
        baseline.query_cost, baseline_found, baseline.complete
    ));
    fig
}

/// Figure 22: skyline discovery over the Blue Nile-like diamond catalogue
/// (five RQ attributes, k = 50, price ranking).
pub fn fig22(scale: Scale) -> FigureResult {
    let n = scale.pick(20_000, 209_666);
    let ds = diamonds::generate(&diamonds::DiamondsConfig { n, seed: 4 });
    online_progress_figure(
        "fig22",
        format!("Online experiment: Blue Nile diamonds (n = {n}, k = 50)"),
        ds,
        50,
        10_000,
    )
}

/// Figure 23: skyline discovery over Google Flights-like route/date
/// instances (SQ on stops/price/connection, RQ on departure time, k = 1).
pub fn fig23(scale: Scale) -> FigureResult {
    let instances = scale.pick(10, 50);
    let itineraries = 120;
    let datasets = gflights::generate_instances(instances, itineraries, 23);

    // Average cumulative query cost needed to reach the i-th skyline flight,
    // averaged over the instances (instances with fewer skyline flights stop
    // contributing beyond their own skyline size).
    let mut per_instance: Vec<Vec<u64>> = Vec::new();
    let mut costs = Vec::new();
    let mut skyline_sizes = Vec::new();
    // Route/date instances are independent databases: one pool task each.
    for result in pool::par_map(datasets.len(), |i| {
        let db = price_db(datasets[i].clone(), 1);
        run(&MqDbSky::new(), &db)
    }) {
        skyline_sizes.push(result.skyline.len());
        costs.push(result.query_cost);
        per_instance.push(queries_per_discovery(&result.trace, result.skyline.len()));
    }
    let max_skyline = skyline_sizes.iter().copied().max().unwrap_or(0);

    let mut fig = FigureResult::new(
        "fig23",
        format!(
            "Online experiment: Google Flights ({} route/date instances, k = 1)",
            per_instance.len()
        ),
        vec!["skyline_idx", "avg_queries", "instances_reaching"],
    );
    for i in 0..max_skyline {
        let reaching: Vec<u64> = per_instance
            .iter()
            .filter(|c| c.len() > i)
            .map(|c| c[i])
            .collect();
        if reaching.is_empty() {
            break;
        }
        let avg = reaching.iter().sum::<u64>() as f64 / reaching.len() as f64;
        fig.push_row(vec![(i + 1) as f64, avg, reaching.len() as f64]);
    }
    let avg_cost = costs.iter().sum::<u64>() as f64 / costs.len().max(1) as f64;
    fig.note(format!(
        "skyline flights per instance: {}..{}; average total cost {:.1} queries \
         (the QPX free quota is 50 queries/day)",
        skyline_sizes.iter().min().unwrap_or(&0),
        skyline_sizes.iter().max().unwrap_or(&0),
        avg_cost
    ));
    fig
}

/// Figure 24: skyline discovery over the Yahoo! Autos-like listing table
/// (three RQ attributes, k = 50, price ranking).
pub fn fig24(scale: Scale) -> FigureResult {
    let n = scale.pick(20_000, 125_149);
    let ds = autos::generate(&autos::AutosConfig { n, seed: 30 });
    online_progress_figure(
        "fig24",
        format!("Online experiment: Yahoo! Autos (n = {n}, k = 50)"),
        ds,
        50,
        10_000,
    )
}
