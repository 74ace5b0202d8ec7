//! Figure 5: common Linux timeout values, X/icewm filtered.
use timerstudy::experiment::run_table_workloads;
use timerstudy::{figures, Os};

fn main() {
    let started = std::time::Instant::now();
    let results = run_table_workloads(Os::Linux, bench::repro_duration(), 7);
    println!("{}", figures::fig05(&results).printable());
    bench::print_stage_summary("fig05", &results, started);
}
