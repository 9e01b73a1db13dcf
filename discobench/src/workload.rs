//! The four workloads and their set-up: data generation, database build,
//! index warm-up, ground truth, segment files and the TCP server.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use skyweb_core::{Discoverer, MqDbSky, RqDbSky, SqDbSky};
use skyweb_datagen::{diamonds, flights_dot, Dataset};
use skyweb_hidden_db::{
    HiddenDb, InterfaceType, Query, Ranker, SegmentOpenOptions, SingleAttributeRanker, SumRanker,
    TupleId,
};
use skyweb_net::Server;
use skyweb_skyline::sfs_skyline;

/// The discovery algorithm a key runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alg {
    Sq,
    Rq,
    Mq,
}

impl Alg {
    pub fn discoverer(self) -> Box<dyn Discoverer + Send + Sync> {
        match self {
            Alg::Sq => Box::new(SqDbSky::new()),
            Alg::Rq => Box::new(RqDbSky::new()),
            Alg::Mq => Box::new(MqDbSky::new()),
        }
    }
}

/// Which workload, as named on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SqFlights,
    MqDiamonds,
    RqSegmentCapped,
    NetMixed,
}

pub const WORKLOADS: [(&str, Workload); 4] = [
    ("sq-flights", Workload::SqFlights),
    ("mq-diamonds", Workload::MqDiamonds),
    ("rq-segment-capped", Workload::RqSegmentCapped),
    ("net-mixed", Workload::NetMixed),
];

/// Fixed DOT-flights catalogue: (generator seed, row counts). The SQ cost
/// of a flights table swings by two orders of magnitude between generator
/// seeds (see README.md), so the catalogue stays fixed and the workload seed
/// re-presents it instead (see [`represent`]).
const SQ_FLIGHTS: [(u64, &[usize]); 3] = [
    (2015, &[25_000, 50_000, 100_000]),
    (2019, &[25_000, 50_000, 100_000]),
    (2020, &[25_000, 50_000, 100_000]),
];
const RQ_CAPPED: [(u64, &[usize]); 3] = [(2015, &[25_000]), (2018, &[25_000]), (2020, &[25_000])];
const NET_FLIGHTS: [(u64, &[usize]); 1] = [(2015, &[100_000])];
/// Blue-Nile stand-ins per run; their generator seeds derive from the
/// workload seed (MQ cost varies by ~3% across generator seeds).
const DIAMOND_INSTANCES: u64 = 3;
const DIAMONDS_N: usize = 20_000;
/// The capped workload's chunk-cache budget.
const CAPPED_CACHE_BYTES: u64 = 1 << 20;
/// Ids are spread by this stride when re-presenting a dataset.
const ID_STRIDE: u64 = 8;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    pub fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("?", |(n, _)| n)
    }

    /// The algorithms every instance runs, in key order.
    pub fn algs(self) -> &'static [Alg] {
        match self {
            Workload::SqFlights => &[Alg::Sq],
            Workload::MqDiamonds => &[Alg::Mq],
            Workload::RqSegmentCapped => &[Alg::Rq],
            Workload::NetMixed => &[Alg::Sq, Alg::Rq],
        }
    }

    /// Concurrent clients.
    pub fn clients(self) -> usize {
        match self {
            Workload::NetMixed => 2,
            _ => 1,
        }
    }
}

/// SplitMix64 of a seed and a stream index: independent per-instance seeds.
pub fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed ^ n.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Re-presents a dataset as `seed` dictates: the rows go into a
/// seed-dependent storage order and every id becomes `id * 8 + r` with a
/// seeded `r < 8`. Relative id order is kept, so rankings (which break
/// ties by id), query answers and costs are those of the catalogue
/// instance, while the store, the index build and the segment layout see
/// different input.
pub fn represent(ds: Dataset, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tuples = ds.tuples;
    for t in &mut tuples {
        t.id = t.id * ID_STRIDE + rng.gen_range(0..ID_STRIDE);
    }
    tuples.shuffle(&mut rng);
    Dataset::new(ds.name, ds.schema, tuples)
}

/// The first `n` rows of a DOT-like flights table over the nine primary
/// ranking attributes, all behind `interface`.
fn flights(table: &Dataset, n: usize, interface: InterfaceType) -> Dataset {
    let names: Vec<&str> = flights_dot::PRIMARY_RANKING.to_vec();
    let head = Dataset::new(
        table.name.clone(),
        table.schema.clone(),
        table.tuples[..n.min(table.len())].to_vec(),
    );
    let mut ds = head.project(&names);
    for name in &names {
        ds = ds.with_interface(name, interface);
    }
    ds
}

/// Set-up time by phase, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub datagen_s: f64,
    pub index_warm_s: f64,
    pub ground_truth_s: f64,
    pub segment_open_s: f64,
}

/// One database and its ground truth.
pub struct Instance {
    pub label: String,
    pub db: HiddenDb,
    /// Skyline ids, ascending.
    pub truth: Vec<TupleId>,
    pub ranking_attrs: Vec<usize>,
}

/// Everything a run needs, built by [`setup`].
pub struct Env {
    pub instances: Vec<Instance>,
    pub server: Option<Server>,
    pub phases: Phases,
    segments: Vec<PathBuf>,
}

impl Drop for Env {
    fn drop(&mut self) {
        for path in &self.segments {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// How an instance is served.
#[derive(Debug, Clone, Copy)]
enum Serving {
    Ram,
    /// From a segment file, with this chunk-cache budget (`None` =
    /// unbounded).
    Segment(Option<u64>),
}

/// Builds the workload's instances from `seed`. `tag` keeps the segment
/// files of repeated set-ups apart.
pub fn setup(workload: Workload, seed: u64, out_dir: &Path, tag: usize) -> Result<Env, String> {
    let mut env = Env {
        instances: Vec::new(),
        server: None,
        phases: Phases::default(),
        segments: Vec::new(),
    };
    let mut site = Site {
        env: &mut env,
        out_dir,
        tag,
    };
    let instances = match workload {
        Workload::SqFlights => site.flights(&SQ_FLIGHTS, InterfaceType::Sq, Serving::Ram, seed)?,
        Workload::RqSegmentCapped => site.flights(
            &RQ_CAPPED,
            InterfaceType::Rq,
            Serving::Segment(Some(CAPPED_CACHE_BYTES)),
            seed,
        )?,
        Workload::NetMixed => site.flights(
            &NET_FLIGHTS,
            InterfaceType::Rq,
            Serving::Segment(None),
            seed,
        )?,
        Workload::MqDiamonds => (0..DIAMOND_INSTANCES)
            .map(|i| site.diamonds(mix(seed, i), i))
            .collect::<Result<Vec<_>, String>>()?,
    };
    env.instances = instances;
    if workload == Workload::NetMixed {
        let server = Server::bind("127.0.0.1:0")
            .map_err(|e| format!("cannot bind a loopback server: {e}"))?;
        env.server = Some(server);
    }
    Ok(env)
}

/// Where a set-up builds its instances.
struct Site<'a> {
    env: &'a mut Env,
    out_dir: &'a Path,
    tag: usize,
}

impl Site<'_> {
    /// The catalogue's flights tables, re-presented by `seed`, with k = 10
    /// and the SUM ranking.
    fn flights(
        &mut self,
        spec: &[(u64, &[usize])],
        interface: InterfaceType,
        serving: Serving,
        seed: u64,
    ) -> Result<Vec<Instance>, String> {
        let mut out = Vec::new();
        for &(gseed, sizes) in spec {
            let max = sizes.iter().copied().max().unwrap_or(0);
            let table = timed(&mut self.env.phases.datagen_s, || {
                flights_dot::generate(&flights_dot::FlightsDotConfig {
                    n: max,
                    seed: gseed,
                })
            });
            for &n in sizes {
                let index = out.len() as u64;
                let ds = timed(&mut self.env.phases.datagen_s, || {
                    represent(flights(&table, n, interface), mix(seed, index))
                });
                let label = format!("flights-g{gseed}-n{n}");
                out.push(self.build(label, ds, 10, || Box::new(SumRanker), serving, index)?);
            }
        }
        Ok(out)
    }

    /// A Blue-Nile stand-in in its fig22 configuration: five RQ ranking
    /// attributes, price ranking, k = 50.
    fn diamonds(&mut self, dseed: u64, index: u64) -> Result<Instance, String> {
        let ds = timed(&mut self.env.phases.datagen_s, || {
            diamonds::generate(&diamonds::DiamondsConfig {
                n: DIAMONDS_N,
                seed: dseed,
            })
        });
        let price = ds
            .schema
            .attr_by_name("price")
            .ok_or("diamonds have a price attribute")?;
        let label = format!("diamonds-{dseed:016x}");
        let ranker = move || -> Box<dyn Ranker> { Box::new(SingleAttributeRanker::new(price)) };
        self.build(label, ds, 50, ranker, Serving::Ram, index)
    }

    /// Builds one instance: ground truth, the RAM database and its warmed
    /// index, and for segment serving the file it is re-opened from.
    fn build(
        &mut self,
        label: String,
        ds: Dataset,
        k: usize,
        ranker: impl Fn() -> Box<dyn Ranker>,
        serving: Serving,
        index: u64,
    ) -> Result<Instance, String> {
        let phases = &mut self.env.phases;
        let ranking_attrs = ds.schema.ranking_attrs().to_vec();
        let truth = timed(&mut phases.ground_truth_s, || {
            let mut ids: Vec<TupleId> = sfs_skyline(&ds.tuples, &ds.schema)
                .iter()
                .map(|t| t.id)
                .collect();
            ids.sort_unstable();
            ids
        });
        let ram = timed(&mut phases.datagen_s, || ds.into_db(ranker(), k));
        // The first query builds the lazy index (`Ranker::precompute`
        // included).
        timed(&mut phases.index_warm_s, || ram.query(&Query::select_all()))
            .map_err(|e| format!("{label}: warm-up query failed: {e}"))?;
        let db = match serving {
            Serving::Ram => ram,
            Serving::Segment(budget) => {
                let name = format!("{}-{}-{index}.swsg", std::process::id(), self.tag);
                let path = self.out_dir.join(name);
                self.env.segments.push(path.clone());
                ram.write_segment(&path)
                    .map_err(|e| format!("{label}: cannot write {}: {e}", path.display()))?;
                drop(ram);
                let mut options = SegmentOpenOptions::new();
                if let Some(bytes) = budget {
                    options = options.with_cache_budget(bytes);
                }
                timed(&mut phases.segment_open_s, || {
                    HiddenDb::open_segment_with(&path, ranker(), options)
                })
                .map_err(|e| format!("{label}: cannot open {}: {e}", path.display()))?
            }
        };
        Ok(Instance {
            label,
            db,
            truth,
            ranking_attrs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for (name, w) in WORKLOADS {
            assert_eq!(Workload::parse(name), Some(w));
            assert_eq!(w.name(), name);
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn representation_keeps_id_order_and_values() {
        let ds = flights_dot::generate(&flights_dot::FlightsDotConfig { n: 300, seed: 1 });
        let a = represent(ds.clone(), 5);
        let b = represent(ds.clone(), 5);
        let c = represent(ds.clone(), 6);
        assert_eq!(a.tuples, b.tuples, "same seed, same input");
        assert_ne!(a.tuples, c.tuples, "another seed, another input");
        let mut by_id = a.tuples.clone();
        by_id.sort_by_key(|t| t.id);
        let values: Vec<_> = by_id.iter().map(|t| &t.values).collect();
        let original: Vec<_> = ds.tuples.iter().map(|t| &t.values).collect();
        assert_eq!(
            values, original,
            "sorting by new id restores the catalogue order"
        );
    }

    /// Builds a small flights instance through the set-up path and runs SQ
    /// and RQ on it: (stored ids in storage order, exact counts per run).
    fn small_instance(seed: u64) -> (Vec<TupleId>, Vec<crate::layers::Counts>) {
        let dir = Path::new("unused: RAM serving writes no file");
        let mut env = Env {
            instances: Vec::new(),
            server: None,
            phases: Phases::default(),
            segments: Vec::new(),
        };
        let mut site = Site {
            env: &mut env,
            out_dir: dir,
            tag: 0,
        };
        let spec: [(u64, &[usize]); 1] = [(2015, &[2_000])];
        let mut instances = site
            .flights(&spec, InterfaceType::Rq, Serving::Ram, seed)
            .unwrap();
        let instance = instances.remove(0);
        let ids = instance.db.oracle_tuples().iter().map(|t| t.id).collect();
        let counts = [Alg::Sq, Alg::Rq]
            .iter()
            .map(|alg| {
                let alg = alg.discoverer();
                let job = crate::discover::Job {
                    alg: alg.as_ref(),
                    truth: &instance.truth,
                    id: 0,
                    traced: false,
                };
                crate::discover::local(job, &instance.db, None)
                    .unwrap()
                    .counts
            })
            .collect();
        (ids, counts)
    }

    #[test]
    fn same_seed_same_counts_other_seed_other_instance() {
        let (ids_a, counts_a) = small_instance(1);
        let (ids_b, counts_b) = small_instance(1);
        let (ids_c, counts_c) = small_instance(2);
        assert_eq!(ids_a, ids_b);
        assert_eq!(counts_a, counts_b, "same seed, identical exact counts");
        assert_ne!(ids_a, ids_c, "another seed, another instance");
        // Re-presenting keeps the catalogue instance's costs.
        assert_eq!(counts_a, counts_c);
        // Diamonds draw fresh generator seeds per workload seed.
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
    }
}
