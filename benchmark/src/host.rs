//! What the harness needs from the host: the process's peak resident
//! set, a clean `CEDAR_*` environment, and the run manifest.

use crate::json::Json;

/// Parse the `VmHWM` line (peak resident set, kB) out of a
/// `/proc/<pid>/status` text, in MB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Remove every `CEDAR_*` variable from this process's environment and
/// return the names removed. The simulator reads its knobs from the
/// environment; the benchmark measures the default engine, so knobs are
/// compared across commits, never inside the harness. Call before any
/// thread exists.
pub fn scrub_cedar_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CEDAR_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First stdout line of `program args…`, or `"unknown"` (a checkout that
/// is not a git repository, a missing tool).
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run manifest of a suite run: where, on what, and with which
/// settings the numbers beside it were measured.
pub fn manifest(seed: u64, seconds: u64, smoke: bool, scrubbed: &[String]) -> Json {
    let workloads = crate::workloads::all().map(|(name, (sweep, sim))| {
        Json::obj([
            ("name", Json::str(name)),
            ("sweep_threads", Json::Num(sweep as f64)),
            ("simulation_threads", Json::Num(sim as f64)),
        ])
    });
    Json::obj([
        (
            "git_revision",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line_of("rustc", &["-V"]))),
        ("host_parallelism", Json::Num(host_parallelism() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds as f64)),
        ("min_repetitions", Json::Num(crate::min_reps(smoke) as f64)),
        ("smoke", Json::Bool(smoke)),
        (
            "scrubbed_env",
            Json::Arr(scrubbed.iter().map(Json::str).collect()),
        ),
        ("workloads", Json::Arr(workloads.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parser_reads_the_status_format() {
        let status = "Name:\tcedar\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
