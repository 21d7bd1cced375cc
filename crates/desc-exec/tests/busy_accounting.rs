//! Worker busy time must count nested tasks once: a `parts` task that
//! runs on a thread already inside a `cells` task is part of that
//! cell's busy time, so no worker can report more busy time than wall
//! time — the utilization invariant `pool_utilization` promises.
//!
//! Lives in its own integration-test binary so the telemetry epoch
//! (the zero of `elapsed_us`) starts with this test and no other test
//! adds busy time or raises the pool target above 2.

use std::time::{Duration, Instant};

/// Spins (rather than sleeps) so the task is genuinely busy.
fn spin(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

fn assert_busy_within_elapsed(phase: &str) {
    let util = desc_exec::utilization();
    assert!(!util.workers.is_empty(), "{phase}: no worker rows");
    for w in &util.workers {
        assert!(
            w.busy_us <= util.elapsed_us,
            "{phase}: worker {} ({}) busy {} us > elapsed {} us",
            w.worker,
            w.name,
            w.busy_us,
            util.elapsed_us
        );
    }
}

#[test]
fn nested_cells_times_parts_count_busy_time_once() {
    desc_telemetry::set_enabled(true);
    let _ = desc_telemetry::now_us(); // start the epoch now
    desc_exec::configure(2);
    assert!(desc_exec::stats().workers >= 1, "pool must have a real worker");

    // Shards > 1: each cell's parts go through a pooled nested region,
    // drained by the cell's own thread (inside its cell task) and by
    // the idle worker.
    let sums = desc_exec::run_labeled("cells", 8, 2, |c| {
        desc_exec::run_labeled("parts", 8, 2, |p| {
            spin(Duration::from_millis(4));
            c * 8 + p
        })
        .into_iter()
        .sum::<usize>()
    });
    assert_eq!(sums.iter().sum::<usize>(), (0..64).sum::<usize>());
    assert_busy_within_elapsed("pooled parts");

    // Shards = 1: each cell's parts take the inline timed path, still
    // inside the cell task.
    let counts = desc_exec::run_labeled("cells", 8, 2, |_| {
        let mut parts = vec![false; 8];
        desc_exec::run_mut_labeled("parts_mut", &mut parts, 1, |_, done| {
            spin(Duration::from_millis(4));
            *done = true;
        });
        parts.iter().filter(|&&done| done).count()
    });
    assert!(counts.iter().all(|&n| n == 8));
    assert_busy_within_elapsed("inline parts");
}
