//! Telemetry overhead budget smoke test.
//!
//! Runs the same experiment with metric recording enabled and disabled
//! (`telemetry::set_enabled`) and asserts the instrumented path stays
//! within 10% of the baseline. Minimum-of-N timings with interleaved
//! runs keep the comparison robust against scheduler noise; the
//! `telemetry_overhead` criterion bench gives the detailed numbers.
//!
//! One experiment runs on the calling thread alone, so each run is timed
//! with that thread's CPU clock (`CLOCK_THREAD_CPUTIME_ID`, Linux): time
//! the thread spends descheduled, or that the host steals from a shared
//! virtual CPU, is not counted against either mode.

use std::time::Duration;

use simtime::SimDuration;
use timerstudy::{run_experiment, ExperimentSpec, Os, Workload};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used so far.
fn thread_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the duration
    // of the call, and CLOCK_THREAD_CPUTIME_ID is always supported on
    // Linux, so the call only writes into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

fn timed(spec: ExperimentSpec) -> Duration {
    let started = thread_cpu_time();
    let result = run_experiment(spec);
    assert!(result.records > 0);
    thread_cpu_time() - started
}

#[test]
fn instrumented_run_within_ten_percent_of_baseline() {
    // 20 simulated seconds puts one run around half a millisecond of
    // wall time — long enough that scheduler jitter cannot fake a
    // double-digit percentage on its own (a 5 s run is ~180 µs, where
    // it demonstrably can).
    let spec = ExperimentSpec::new(Os::Linux, Workload::Idle, SimDuration::from_secs(20), 99);

    // Warm up allocator, code and branch caches for both modes.
    for on in [false, true] {
        telemetry::set_enabled(on);
        timed(spec);
    }
    telemetry::set_enabled(true);

    // Interleave the two modes so slow drift (thermal, other processes)
    // hits both equally, and keep the minimum of each.
    let mut baseline = Duration::MAX;
    let mut instrumented = Duration::MAX;
    for _ in 0..11 {
        telemetry::set_enabled(false);
        baseline = baseline.min(timed(spec));
        telemetry::set_enabled(true);
        instrumented = instrumented.min(timed(spec));
    }

    let ratio = instrumented.as_secs_f64() / baseline.as_secs_f64();
    assert!(
        ratio <= 1.10,
        "telemetry overhead {:.1}% exceeds the 10% budget \
         (instrumented {instrumented:?} vs baseline {baseline:?})",
        (ratio - 1.0) * 100.0
    );
}
