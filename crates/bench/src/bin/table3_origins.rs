//! Table 3: origins and classification of frequent Linux timeout values.
use timerstudy::experiment::run_table_workloads;
use timerstudy::{figures, Os};

fn main() {
    let started = std::time::Instant::now();
    let results = run_table_workloads(Os::Linux, bench::repro_duration(), 7);
    println!("{}", figures::table3(&results).printable());
    bench::print_stage_summary("table3", &results, started);
}
