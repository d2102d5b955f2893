//! Host CPU steal: time the hypervisor kept this machine's virtual CPUs
//! from running although they had work.  On a shared host it comes in
//! episodes of a few milliseconds; an operation that lasts about as long
//! (a served delta) can double its latency when one lands on it, so the
//! tail of such a workload follows the neighbours' load, not the program.
//!
//! The kernel credits steal to the `steal` field of `/proc/stat` at the
//! first timer tick after the virtual CPU runs again.  A sampler polls that
//! field during each timed phase and keeps the times it saw it grow; an
//! operation that *completed* within [`ZONE_S`] of such a time is
//! steal-adjacent.  The test looks only at completion times, never at how
//! long an operation took, so a slow operation is no likelier to be left
//! out than a fast one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often the sampler reads the steal counter.
const POLL: Duration = Duration::from_millis(2);

/// An operation that completed within this many seconds (either side) of a
/// poll that saw the steal counter grow is steal-adjacent.
pub const ZONE_S: f64 = 0.010;

/// The `steal` field of the aggregate `cpu` line of `/proc/stat`, in clock
/// ticks; `None` where the file or the field is missing.
fn ticks() -> Option<u64> {
    parse(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// The `steal` field (the eighth number) of the aggregate `cpu` line.
fn parse(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Polls the steal counter until `stop` is set, and returns the times, in
/// seconds from `start`, of the polls that saw it grow (ascending; empty
/// where the counter cannot be read).
pub fn sample(start: Instant, stop: &AtomicBool) -> Vec<f64> {
    let mut grew = Vec::new();
    let Some(mut last) = ticks() else {
        return grew;
    };
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(POLL);
        let Some(now) = ticks() else {
            break;
        };
        if now > last {
            grew.push(start.elapsed().as_secs_f64());
            last = now;
        }
    }
    grew
}

/// Whether `done_s` lies within [`ZONE_S`] of a time in ascending `grew`.
pub fn near(grew: &[f64], done_s: f64) -> bool {
    let i = grew.partition_point(|&t| t < done_s - ZONE_S);
    grew.get(i).is_some_and(|&t| t <= done_s + ZONE_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_steal_field_of_the_aggregate_line() {
        let stat = "cpu  1101430 0 31293 1331613 1181 0 4732 45601 0 0\n\
                    cpu0 550000 0 15000 660000 600 0 2000 22000 0 0\n";
        assert_eq!(parse(stat), Some(45601));
        assert_eq!(parse("cpu  1 2 3 4 5 6 7\n"), None);
        assert_eq!(parse("intr 5\n"), None);
    }

    #[test]
    fn the_zone_reaches_ten_milliseconds_either_side() {
        let grew = [1.0, 2.0];
        for done in [0.991, 0.995, 1.0, 1.008, 1.009, 1.995] {
            assert!(near(&grew, done), "{done}");
        }
        for done in [0.0, 0.989, 1.011, 1.5, 2.011] {
            assert!(!near(&grew, done), "{done}");
        }
        assert!(!near(&[], 1.0));
    }
}
