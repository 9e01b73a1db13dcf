//! `parallel`: the figure worker pool. Runs every figure serially, timing
//! each one, and then all of them on the scoped-thread pool with `jobs`
//! workers (`SKYWEB_JOBS`, else the machine's parallelism). The rendered
//! figure output of the two passes must be byte-identical; the speedup
//! itself is descriptive.

use std::time::Instant;

use skyweb_bench::{figures, pool, FigureResult};

use super::{compared, Args, Record};

fn render(results: &[FigureResult]) -> String {
    results.iter().map(|r| format!("{r}\n")).collect()
}

pub fn run(args: &Args) -> Result<Vec<Record>, String> {
    let (scale, ids, jobs) = (args.scale, figures::ALL_FIGURES, pool::jobs());
    let mut out = vec![Record::new("workload", "jobs", "count", jobs as f64)];

    eprintln!("# serial pass, {scale:?} scale...");
    let start = Instant::now();
    let serial = pool::serial(|| {
        ids.iter()
            .map(|id| {
                let t = Instant::now();
                let result = figures::by_id(id, scale).expect("known figure id");
                let serial_s = t.elapsed().as_secs_f64();
                eprintln!("#   {id} {serial_s:.1}s");
                out.push(Record::new(*id, "serial_s", "s", serial_s));
                result
            })
            .collect::<Vec<_>>()
    });
    let serial_s = start.elapsed().as_secs_f64();

    eprintln!("# parallel pass, {jobs} jobs...");
    let start = Instant::now();
    let parallel = pool::par_map(ids.len(), |i| {
        figures::by_id(ids[i], scale).expect("known figure id")
    });
    let parallel_s = start.elapsed().as_secs_f64();

    assert!(
        render(&serial) == render(&parallel),
        "parallel figure output diverged from the serial run"
    );
    out.extend(compared(
        "all_figures",
        "s",
        ("serial_s", serial_s),
        ("parallel_s", parallel_s),
    ));
    Ok(out)
}
