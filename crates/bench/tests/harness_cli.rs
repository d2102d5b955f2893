//! The `harness` binary's command line, driven as a subprocess.

use std::process::Command;

#[test]
fn a_workload_glob_matching_nothing_exits_before_measuring() {
    let out_path = std::env::temp_dir().join(format!("pm_bench_cli_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["--quick", "--json", "--workloads", "srved/*", "--json-out"])
        .arg(&out_path)
        .output()
        .expect("the harness runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("srved/*"), "{stderr}");
    for name in [
        "served/warm_solve/uniform",
        "faults/chaos/uniform",
        "cold/snapshot_load/uniform",
    ] {
        assert!(
            stderr.contains(name),
            "registered name {name} not listed: {stderr}"
        );
    }
    assert!(
        !out_path.exists(),
        "nothing may be written for an empty selection"
    );
}
