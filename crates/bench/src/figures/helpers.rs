//! Shared workload-construction helpers for the figure harnesses.

use skyweb_core::{
    Discoverer, DiscoveryDriver, DiscoveryResult, DriverConfig, RetryPolicy, TracePoint,
};
use skyweb_datagen::{flights_dot, Dataset};
use skyweb_hidden_db::{FaultPlan, HiddenDb, InterfaceType, Ranker, SumRanker};
use skyweb_skyline::sfs_skyline;

use crate::{limits, storage, Scale};

/// Wraps a dataset in a hidden-database interface, honoring segment-backed
/// mode: with `--segment` on, the database is round-tripped through the
/// persistent columnar store and served with lazy hydration
/// (figure output is identical by the storage layer's differential
/// contract). `ranker` is a factory because the RAM build and the segment
/// reopen each need their own `Box<dyn Ranker>`.
pub(crate) fn mk_db(ds: Dataset, k: usize, ranker: impl Fn() -> Box<dyn Ranker>) -> HiddenDb {
    let ram = ds.into_db(ranker(), k);
    if storage::segment_mode() {
        storage::segment_backed(&ram, ranker())
    } else {
        ram
    }
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

/// Runs a discoverer and panics with a readable message on interface errors
/// (which would indicate a bug in the harness wiring, not in the algorithm).
///
/// When harness-wide limits are installed (`--budget` / `--max-wall-ms` /
/// `--max-batch` / `--fault-rate`), the run goes through the sans-io
/// machine + driver path under those limits (the budget combines with any
/// algorithm-level budget by taking the minimum; `--max-batch 1` forces
/// the per-query reference schedule instead of engine-side plan batching;
/// `--fault-rate` routes every query through the deterministic fault
/// oracle with the default retry policy — retries converge, so figure
/// output is unchanged); without limits this is exactly the
/// `Discoverer::discover` adapter.
pub(crate) fn run(alg: &dyn Discoverer, db: &HiddenDb) -> DiscoveryResult {
    // Net mode routes the run over a loopback TCP connection through a
    // RemoteOracle (byte-identical output by the wire-protocol contract);
    // it honors budget/wall/batch limits itself and is mutually exclusive
    // with fault injection (rejected by the experiments binary).
    if crate::net::net_mode() {
        return crate::net::run_over_loopback(alg, db);
    }
    let limits = limits::run_limits();
    if !limits.any() {
        return alg
            .discover(db)
            .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()));
    }
    let budget = match (alg.budget(), limits.budget) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let machine = alg
        .machine(db)
        .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()));
    let mut config = DriverConfig::new()
        .with_budget(budget)
        .with_max_wall(limits.max_wall);
    if let Some(max_batch) = limits.max_batch {
        config = config.with_max_batch(max_batch);
    }
    let faults = match limits.fault_rate {
        Some(rate) => {
            config = config.with_retry(Some(RetryPolicy::new().with_seed(limits.fault_seed)));
            FaultPlan::new(limits.fault_seed, rate)
        }
        None => FaultPlan::none(),
    };
    DiscoveryDriver::with_faults(db, machine, config, faults)
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
