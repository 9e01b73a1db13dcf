//! `knowledge`: the client's `KnowledgeBase`, the server's skyline-aware
//! top-k selection, the driver and executor layers above them, and fig22,
//! the critical path of `experiments --full`. Most rows compare a baseline
//! against the current code and check that both give the same answers.
//!
//! Client layer, `n_client` diamonds ingested in chunks of 50 like top-50
//! responses. The baseline is `NaiveCollector`, the pre-refactor
//! deep-cloning BNL `Collector` kept verbatim.
//! - `kb_ingest_per_tuple`: [`KnowledgeBase`] ingest keeps its entries
//!   key-sorted in a two-level blocked layout (batched, batch-presorted
//!   ingest, so the structural work per insert is bounded by one block
//!   instead of an O(s) flat-`Vec` memmove). That is what buys the
//!   deterministic dominator answers. Its scans compare columns of
//!   dominance values eight entries at a time and look for dominators
//!   nearest-first, so it ingests faster than the unordered BNL append
//!   (the `speedup` row of `BENCH_knowledge.json`). It no longer builds
//!   the posting lists (the first probe that reads them does), so this
//!   row no longer includes that build.
//! - `any_seen_matches_eq_pivot` (equality pivots) and
//!   `any_seen_matches_ge_box` (≥-rooted boxes): two probe shapes that are
//!   not downward closed, which the old collector answered with a full scan
//!   of the retrieved set. Every probe must answer the same on both sides.
//!   Ingest builds no posting lists: the first probe that reads them
//!   does, and one untimed probe builds them before these rows, so they
//!   time the lookups alone.
//!   Only the RQ tree walk probes, and of its probes only the sky band's
//!   ≥-rooted boxes are not downward closed; no machine issues the
//!   equality-pivot shape (MQ's point phase walks SQ trees, which never
//!   probe).
//!
//! Server layer, top-50 over `n_server` matching tuples:
//! - `worst_case_select_top_50`: [`WorstCaseRanker::select_top_k`] (the
//!   incremental peel) against the old O(rounds·n²) minimal-set
//!   recomputation; both must select the same tuples.
//!
//! Driver and executor layers, on the fig14 workload (DOT-like flights,
//! all nine primary attributes as SQ, k = 10):
//! - `sq_fig14_driver`: SQ-DB-SKY through the sans-io driver with
//!   `max_batch` 1, the old one-round-trip-per-query pattern, against
//!   default frontier batching through the engine's shared-prefix batch
//!   executor. Each run gets a fresh database whose index is built before
//!   its clock starts. Cost, trace and skyline must be identical; byte
//!   identity is proptested in hidden-db `tests/proptest_plan.rs`.
//!   RQ-DB-SKY has no batched row: each sq-vs-rq choice and subtree
//!   abandonment consumes the previous answer, so its plans are
//!   single-query by construction and its round-trip count is minimal.
//! - `shared_prefix_plan_exec`: that executor in isolation, on a real deep
//!   (level-3+) SQ frontier plan, where most of a fig14 run's queries live
//!   and sibling groups share multi-predicate parent conjunctions: a
//!   per-query `Session::query` loop against one grouped `run_plan` call,
//!   whose responses must be identical. It takes the best of five
//!   interleaved passes, since scheduling noise exceeds the effect size.
//!   The gain depends on where the selectivity sits: ~2× at quick scale,
//!   where the inherited prefix is the selective part of most members, ~1×
//!   at full scale, where many members' own residual predicate is tighter
//!   and the executor's per-member cost check (O(1) prefix counts)
//!   delegates them back to their single-query plans.
//!
//! Local kernels, the full-access algorithms of `skyweb-skyline` behind
//! figure ground truth and the crawl's post-processing, each timed as the
//! mean of `kernel_iters` runs:
//! - `local_skyline_<correlation>`: BNL, SFS and the incremental skyline
//!   on synthetic tables with m = 4 and domain 1,000 (seed 99): correlated
//!   (0.7) and independent with 10,000 tuples, anti-correlated (0.8) with
//!   2,000. Each kernel must return BNL's ids.
//! - `skyband_h<h>`, h ∈ {1, 5, 20}: the batch sky band, which counts every
//!   tuple's dominators, against the incremental one, on an independent
//!   table with 3,000 tuples, m = 3 and domain 500 (seed 5). Both must
//!   return the same ids.
//!
//! End to end, `fig22_ms` is the wall time of fig22 at the suite's scale.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use skyweb_bench::figures;
use skyweb_core::{DiscoveryDriver, DiscoveryMachine, DriverConfig, KnowledgeBase, SqDbSky};
use skyweb_datagen::synthetic::{self, Correlation, SyntheticConfig};
use skyweb_datagen::{diamonds, flights_dot};
use skyweb_hidden_db::{
    dominates_on, AttrId, InterfaceType, PlanOracle, Predicate, Query, Ranker, Schema,
    SchemaBuilder, Tuple, WorstCaseRanker,
};
use skyweb_skyline::incremental::{incremental_skyband_on, incremental_skyline_on};
use skyweb_skyline::{bnl_skyline_on, same_ids, sfs_skyline_on, skyband_on};

use super::{compared, time_ns, Args, Record};

/// The pre-refactor client collector, kept verbatim as the baseline: deep
/// clones into a `HashMap`, BNL skyline insertion, full-set fallback scans.
struct NaiveCollector {
    attrs: Vec<usize>,
    seen: HashMap<u64, Tuple>,
    skyline: Vec<Tuple>,
}

impl NaiveCollector {
    fn new(attrs: Vec<usize>) -> Self {
        NaiveCollector {
            attrs,
            seen: HashMap::new(),
            skyline: Vec::new(),
        }
    }

    fn ingest(&mut self, tuples: &[Arc<Tuple>]) {
        for t in tuples {
            let t: &Tuple = t;
            if self.seen.contains_key(&t.id) {
                continue;
            }
            self.seen.insert(t.id, t.clone());
            let mut dominated = false;
            let mut i = 0;
            while i < self.skyline.len() {
                if dominates_on(&self.skyline[i], t, &self.attrs) {
                    dominated = true;
                    break;
                }
                if dominates_on(t, &self.skyline[i], &self.attrs) {
                    self.skyline.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if !dominated {
                self.skyline.push(t.clone());
            }
        }
    }

    fn any_seen_matches(&self, query: &Query) -> bool {
        let downward_closed = query.predicates().iter().all(|p| {
            matches!(
                p.op,
                skyweb_hidden_db::CmpOp::Lt | skyweb_hidden_db::CmpOp::Le
            ) && self.attrs.contains(&p.attr)
        });
        if downward_closed {
            self.skyline.iter().any(|t| query.matches(t))
        } else {
            self.seen.values().any(|t| query.matches(t))
        }
    }
}

/// The pre-refactor dominance-driven selection loop (worst-case flavor),
/// kept verbatim as the server-side baseline.
fn old_worst_case_select<'a>(matching: &[&'a Tuple], k: usize, schema: &Schema) -> Vec<&'a Tuple> {
    let attrs = schema.ranking_attrs();
    let minimal_indices = |candidates: &[&Tuple]| -> Vec<usize> {
        let mut minimal = Vec::new();
        'outer: for (i, &t) in candidates.iter().enumerate() {
            for (j, &u) in candidates.iter().enumerate() {
                if i != j && dominates_on(u, t, attrs) {
                    continue 'outer;
                }
            }
            minimal.push(i);
        }
        minimal
    };
    let mut remaining: Vec<&'a Tuple> = matching.to_vec();
    let mut out = Vec::with_capacity(k.min(remaining.len()));
    while out.len() < k && !remaining.is_empty() {
        let minimal = minimal_indices(&remaining);
        let pick = minimal
            .into_iter()
            .max_by_key(|&i| {
                let sum: u64 = attrs
                    .iter()
                    .map(|&a| u64::from(remaining[i].values[a]))
                    .sum();
                (sum, remaining[i].id)
            })
            .expect("non-empty");
        out.push(remaining.swap_remove(pick));
    }
    out
}

pub fn run(args: &Args) -> Result<Vec<Record>, String> {
    let scale = args.scale;
    let (n_client, n_server, probe_iters) =
        scale.pick((10_000, 1_500, 200), (50_000, 3_000, 1_000));
    let mut out = vec![
        Record::new("workload", "n_client", "count", n_client as f64),
        Record::new("workload", "n_server", "count", n_server as f64),
        Record::new("workload", "probe_iters", "count", probe_iters as f64),
    ];

    eprintln!("# client layer: ingest + membership over {n_client} diamonds");
    let ds = diamonds::generate(&diamonds::DiamondsConfig {
        n: n_client,
        seed: 4,
    });
    let attrs: Vec<usize> = ds.schema.ranking_attrs().to_vec();
    let stream: Vec<Arc<Tuple>> = ds.tuples.iter().cloned().map(Arc::new).collect();
    let naive_ns = time_ns(0, 1, || {
        let mut c = NaiveCollector::new(attrs.clone());
        for chunk in stream.chunks(50) {
            c.ingest(chunk);
        }
        c.skyline.len()
    });
    let indexed_ns = time_ns(0, 1, || {
        let mut kb = KnowledgeBase::new(attrs.clone());
        for chunk in stream.chunks(50) {
            kb.ingest(chunk);
        }
        kb.skyline_len()
    });
    let per_tuple = stream.len() as f64;
    out.extend(compared(
        "kb_ingest_per_tuple",
        "ns",
        ("naive_ns", naive_ns / per_tuple),
        ("indexed_ns", indexed_ns / per_tuple),
    ));

    let mut naive = NaiveCollector::new(attrs.clone());
    naive.ingest(&stream);
    let mut kb = KnowledgeBase::new(attrs);
    kb.ingest(&stream);
    // Ingest builds no posting lists; the first probe that reads them
    // does. Build them here, untimed, so the probe rows time lookups
    // alone. Attribute 2 (cut) holds grades 0–4: this probe matches
    // nothing.
    assert!(!kb.any_seen_matches(&Query::new(vec![Predicate::eq(2, 999)])));
    let eq_pivots: Vec<Query> = (0..8)
        .map(|v| Query::new(vec![Predicate::eq(2, v % 6), Predicate::ge(0, 40)]))
        .collect();
    let ge_boxes: Vec<Query> = (0..8)
        .map(|v| Query::new(vec![Predicate::ge(0, 90 + v), Predicate::ge(1, 200)]))
        .collect();
    for (case, probes) in [
        ("any_seen_matches_eq_pivot", &eq_pivots),
        ("any_seen_matches_ge_box", &ge_boxes),
    ] {
        let per_probe = probes.len() as f64;
        let naive_ns = time_ns(0, probe_iters, || {
            probes.iter().filter(|q| naive.any_seen_matches(q)).count()
        });
        let indexed_ns = time_ns(0, probe_iters, || {
            probes.iter().filter(|q| kb.any_seen_matches(q)).count()
        });
        out.extend(compared(
            case,
            "ns",
            ("naive_ns", naive_ns / per_probe),
            ("indexed_ns", indexed_ns / per_probe),
        ));
        for q in probes {
            assert_eq!(naive.any_seen_matches(q), kb.any_seen_matches(q), "{case}");
        }
    }

    eprintln!("# server layer: skyline-aware top-50 over {n_server} matching tuples");
    let mut b = SchemaBuilder::new();
    for i in 0..4 {
        b = b.ranking(format!("a{i}"), 64, InterfaceType::Rq);
    }
    let schema = b.build();
    let tuples: Vec<Tuple> = (0..n_server as u64)
        .map(|i| {
            let values = (0..4)
                .map(|j| ((i * 2654435761 + j * 40503 + 11) % 64) as u32)
                .collect();
            Tuple::new(i, values)
        })
        .collect();
    let matching: Vec<&Tuple> = tuples.iter().collect();
    let k = 50;
    out.extend(compared(
        "worst_case_select_top_50",
        "ns",
        (
            "naive_ns",
            time_ns(0, 3, || old_worst_case_select(&matching, k, &schema).len()),
        ),
        (
            "peel_ns",
            time_ns(0, 20, || {
                WorstCaseRanker.select_top_k(&matching, k, &schema).len()
            }),
        ),
    ));
    let ids = |sel: Vec<&Tuple>| sel.iter().map(|t| t.id).collect::<Vec<u64>>();
    assert_eq!(
        ids(old_worst_case_select(&matching, k, &schema)),
        ids(WorstCaseRanker.select_top_k(&matching, k, &schema)),
        "worst-case selection diverged"
    );

    let n_sq = scale.pick(5_000, 20_000);
    eprintln!("# driver layer: SQ-DB-SKY over {n_sq} DOT-like flights, sequential vs batched");
    out.push(Record::new("workload", "n_sq", "count", n_sq as f64));
    let names: Vec<&str> = flights_dot::PRIMARY_RANKING.to_vec();
    let mut sq_ds = flights_dot::generate(&flights_dot::FlightsDotConfig {
        n: n_sq,
        seed: 2015,
    })
    .project(&names);
    for name in &names {
        sq_ds = sq_ds.with_interface(name, InterfaceType::Sq);
    }
    let discover = |config: DriverConfig| {
        let db = sq_ds.clone().into_db_sum(10);
        let machine = SqDbSky::new().build_machine(&db).expect("SQ schema");
        // Builds the lazy query index without counting a query, so the
        // clock times discovery only.
        db.selectivity(0, 0, 0);
        let start = Instant::now();
        let result = DiscoveryDriver::new(&db, machine, config)
            .run()
            .expect("SQ discovery");
        let ns_per_query = start.elapsed().as_nanos() as f64 / result.query_cost as f64;
        (ns_per_query, result)
    };
    let (seq_ns, seq) = discover(DriverConfig::new().with_max_batch(1));
    let (bat_ns, bat) = discover(DriverConfig::new());
    assert_eq!(seq.query_cost, bat.query_cost);
    assert_eq!(seq.trace, bat.trace);
    assert_eq!(
        seq.skyline.iter().map(|t| t.id).collect::<Vec<_>>(),
        bat.skyline.iter().map(|t| t.id).collect::<Vec<_>>()
    );
    out.push(Record::new(
        "sq_fig14_driver",
        "queries",
        "count",
        seq.query_cost as f64,
    ));
    out.extend(compared(
        "sq_fig14_driver",
        "ns",
        ("sequential_ns_per_query", seq_ns),
        ("batched_ns_per_query", bat_ns),
    ));

    let frontier_db = sq_ds.into_db_sum(10);
    let mut frontier_machine = SqDbSky::new()
        .build_machine(&frontier_db)
        .expect("SQ schema");
    let mut probe = frontier_db.session();
    // Drive to a deep frontier plan: most of a fig14 run's cost sits at
    // tree level 3+, where sibling groups share multi-predicate parent
    // conjunctions (the shape shared evaluation pays off for; a 1-predicate
    // prefix is no tighter than what each member's own posting plan walks).
    loop {
        let plan = frontier_machine.next_plan(256);
        let deep = plan.len() >= 64
            && plan
                .groups()
                .is_some_and(|gs| gs.iter().all(|g| g.prefix_len >= 2));
        if deep || plan.is_empty() {
            break;
        }
        let (responses, err) = probe.run_plan_grouped(plan.queries(), plan.groups());
        assert!(err.is_none(), "probe run rejected");
        frontier_machine.resume(&responses);
    }
    let plan = frontier_machine.next_plan(256);
    assert!(!plan.is_empty(), "SQ frontier exhausted before the probe");
    eprintln!(
        "# executor layer: one SQ frontier plan of {} queries in {} sibling groups",
        plan.len(),
        plan.groups().map_or(0, <[_]>::len)
    );
    let mut session = frontier_db.session();
    let per_query: Vec<Vec<u64>> = plan
        .queries()
        .iter()
        .map(|q| {
            session
                .query(q)
                .expect("probe query")
                .iter()
                .map(|t| t.id)
                .collect()
        })
        .collect();
    let (grouped, err) = session.run_plan_grouped(plan.queries(), plan.groups());
    assert!(err.is_none());
    let grouped: Vec<Vec<u64>> = grouped
        .iter()
        .map(|r| r.iter().map(|t| t.id).collect())
        .collect();
    assert_eq!(per_query, grouped, "executor diverged from per-query");
    let per_plan = plan.len() as f64;
    let (mut per_query_ns, mut grouped_ns) = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        let ns = time_ns(0, probe_iters / 8, || {
            plan.queries()
                .iter()
                .map(|q| session.query(q).expect("bench query").len())
                .sum::<usize>()
        });
        per_query_ns = per_query_ns.min(ns / per_plan);
        let ns = time_ns(0, probe_iters / 8, || {
            session
                .run_plan_grouped(plan.queries(), plan.groups())
                .0
                .len()
        });
        grouped_ns = grouped_ns.min(ns / per_plan);
    }
    out.extend(compared(
        "shared_prefix_plan_exec",
        "ns",
        ("per_query_ns", per_query_ns),
        ("grouped_ns", grouped_ns),
    ));

    let kernel_iters = scale.pick(2, 5);
    eprintln!("# local kernels: skyline and sky band over synthetic tables");
    out.push(Record::new(
        "workload",
        "kernel_iters",
        "count",
        kernel_iters as f64,
    ));
    type Kernel = fn(&[Tuple], &[AttrId]) -> Vec<Tuple>;
    let kernels: [(&str, Kernel); 3] = [
        ("bnl_ms", bnl_skyline_on),
        ("sfs_ms", sfs_skyline_on),
        ("incremental_ms", incremental_skyline_on),
    ];
    for (label, n, correlation) in [
        ("correlated", 10_000, Correlation::Correlated(0.7)),
        ("independent", 10_000, Correlation::Independent),
        ("anticorrelated", 2_000, Correlation::AntiCorrelated(0.8)),
    ] {
        let ds = synthetic::generate(&SyntheticConfig {
            n,
            m: 4,
            domain_size: 1_000,
            correlation,
            seed: 99,
        });
        let attrs = ds.schema.ranking_attrs();
        let case = format!("local_skyline_{label}");
        let reference = bnl_skyline_on(&ds.tuples, attrs);
        out.push(Record::new(
            &case,
            "skyline",
            "count",
            reference.len() as f64,
        ));
        for (metric, kernel) in kernels {
            assert!(
                same_ids(&reference, &kernel(&ds.tuples, attrs)),
                "{case}: the kernel behind {metric} diverged from BNL"
            );
            let ms = time_ns(0, kernel_iters, || kernel(&ds.tuples, attrs).len()) / 1e6;
            out.push(Record::new(&case, metric, "ms", ms));
        }
    }
    let ds = synthetic::generate(&SyntheticConfig {
        n: 3_000,
        m: 3,
        domain_size: 500,
        correlation: Correlation::Independent,
        seed: 5,
    });
    let attrs = ds.schema.ranking_attrs();
    for h in [1, 5, 20] {
        let case = format!("skyband_h{h}");
        let band = skyband_on(&ds.tuples, attrs, h);
        assert!(
            same_ids(&band, &incremental_skyband_on(&ds.tuples, attrs, h)),
            "{case}: the incremental sky band diverged from the batch one"
        );
        out.push(Record::new(&case, "band", "count", band.len() as f64));
        out.extend(compared(
            &case,
            "ms",
            (
                "batch_ms",
                time_ns(0, kernel_iters, || skyband_on(&ds.tuples, attrs, h).len()) / 1e6,
            ),
            (
                "incremental_ms",
                time_ns(0, kernel_iters, || {
                    incremental_skyband_on(&ds.tuples, attrs, h).len()
                }) / 1e6,
            ),
        ));
    }

    eprintln!("# end-to-end: fig22, the critical path of experiments --full");
    let fig22_ms = time_ns(0, 1, || figures::fig22(scale)) / 1e6;
    out.push(Record::new("end_to_end", "fig22_ms", "ms", fig22_ms));
    Ok(out)
}
