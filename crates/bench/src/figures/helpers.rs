//! Shared workload-construction helpers for the figure harnesses.

use skyweb_core::{Discoverer, DiscoveryDriver, DiscoveryResult, TracePoint};
use skyweb_datagen::{flights_dot, Dataset};
use skyweb_hidden_db::{
    FaultyOracle, HiddenDb, InterfaceType, MemSource, Ranker, SegmentWriter, SumRanker,
};
use skyweb_skyline::sfs_skyline;

use crate::{net, run_config, RunConfig, Scale};

/// Wraps a dataset in a hidden-database interface. With
/// [`RunConfig::segment`] set (`--segment`), the database is written into
/// an in-memory segment and served from there with lazy hydration under
/// those options; figure output is identical by the storage layer's
/// differential contract. `ranker` is a factory because the RAM build and
/// the segment reopen each need their own `Box<dyn Ranker>`.
pub(crate) fn mk_db(ds: Dataset, k: usize, ranker: impl Fn() -> Box<dyn Ranker>) -> HiddenDb {
    let ram = ds.into_db(ranker(), k);
    let Some(options) = run_config().segment else {
        return ram;
    };
    let bytes = SegmentWriter::new()
        .write(&ram)
        .unwrap_or_else(|e| panic!("cannot write a segment: {e}"));
    HiddenDb::open_segment_source_with(Box::new(MemSource::new(bytes)), ranker(), options)
        .unwrap_or_else(|e| panic!("cannot open a segment: {e}"))
}

/// [`mk_db`] with the paper's default SUM ranking function.
pub(crate) fn mk_db_sum(ds: Dataset, k: usize) -> HiddenDb {
    mk_db(ds, k, || Box::new(SumRanker))
}

/// Generates the DOT-like flight dataset used by the offline experiments
/// (Figures 13–21). The quick scale keeps the schema and correlation
/// structure but shrinks the cardinality.
pub(crate) fn flights_base(scale: Scale) -> Dataset {
    let n = scale.pick(25_000, 457_013);
    flights_dot::generate(&flights_dot::FlightsDotConfig { n, seed: 2015 })
}

/// The nine primary ranking attributes of the DOT dataset, all re-declared
/// as two-ended range attributes (the configuration of the paper's
/// "interfaces with range predicates" experiments).
pub(crate) fn flights_all_rq(base: &Dataset) -> Dataset {
    let names: Vec<&str> = flights_dot::PRIMARY_RANKING.to_vec();
    let mut ds = base.project(&names);
    for name in &names {
        ds = ds.with_interface(name, InterfaceType::Rq);
    }
    ds
}

/// Runs a discoverer under the installed [`RunConfig`] and panics with a
/// readable message on interface errors (which would indicate a bug in the
/// harness wiring, not in the algorithm).
pub(crate) fn run(alg: &dyn Discoverer, db: &HiddenDb) -> DiscoveryResult {
    run_with(alg, db, run_config())
}

/// [`run`], stopped after at most `cap` queries: the figure's own cap on a
/// crawl or an SQ run, or the installed `--budget` when that is smaller.
/// The only place two budgets meet.
pub(crate) fn run_capped(alg: &dyn Discoverer, db: &HiddenDb, cap: u64) -> DiscoveryResult {
    let mut config = run_config();
    let budget = config.driver.budget.map_or(cap, |b| b.min(cap));
    config.driver = config.driver.with_budget(Some(budget));
    run_with(alg, db, config)
}

fn run_with(alg: &dyn Discoverer, db: &HiddenDb, config: RunConfig) -> DiscoveryResult {
    if config.net {
        return net::run_remote(alg, db, config.driver, config.faults).0;
    }
    let machine = alg
        .machine(db)
        .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()));
    let oracle = FaultyOracle::new(db.session(), config.faults);
    DiscoveryDriver::with_oracle(oracle, machine, config.driver)
        .run()
        .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()))
}

/// Ground-truth skyline size of a dataset (server-side knowledge used only
/// for reporting).
pub(crate) fn skyline_size(ds: &Dataset) -> usize {
    sfs_skyline(&ds.tuples, &ds.schema).len()
}

/// Converts an anytime trace into "queries needed to reach the i-th skyline
/// tuple" (1-based), the series plotted by the paper's anytime figures.
pub(crate) fn queries_per_discovery(trace: &[TracePoint], up_to: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(up_to);
    for target in 1..=up_to {
        let q = trace
            .iter()
            .find(|p| p.skyline_found >= target)
            .map(|p| p.queries)
            .unwrap_or_else(|| trace.last().map(|p| p.queries).unwrap_or(0));
        out.push(q);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_conversion() {
        let trace = vec![
            TracePoint {
                queries: 1,
                skyline_found: 1,
            },
            TracePoint {
                queries: 4,
                skyline_found: 1,
            },
            TracePoint {
                queries: 6,
                skyline_found: 3,
            },
        ];
        assert_eq!(queries_per_discovery(&trace, 3), vec![1, 6, 6]);
        assert_eq!(queries_per_discovery(&trace, 4), vec![1, 6, 6, 6]);
    }
}
