//! The run fingerprint: the machine, the toolchain, the source revision and
//! the effective tuning knobs a result was measured under.

use crate::report::json_string;

/// `(key, value)` pairs describing this run's environment.
pub fn collect() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let hypervisor = std::fs::read_to_string("/sys/hypervisor/type")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| {
            let flagged = cpuinfo
                .lines()
                .any(|l| l.starts_with("flags") && l.split_whitespace().any(|f| f == "hypervisor"));
            if flagged { "present" } else { "none" }.to_string()
        });
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("cpu_model", cpu_model.to_string()),
        ("logical_cpus", cpus.to_string()),
        ("hypervisor", hypervisor),
        ("kernel", kernel),
        ("rustc", env!("PMBENCH_RUSTC").to_string()),
        ("git_rev", git_rev()),
        ("pm_threads", rayon::current_num_threads().to_string()),
        ("pm_chunk_bytes", pm_pram::tune::chunk_bytes().to_string()),
        (
            "pm_prefetch_dist",
            pm_pram::tune::prefetch_dist().to_string(),
        ),
        ("feature_prefetch", cfg!(feature = "prefetch").to_string()),
        (
            "feature_faults",
            pm_serve::faults::Spec::compiled_in().to_string(),
        ),
    ]
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Renders `(key, value)` pairs as one JSON object.
pub fn to_json(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
