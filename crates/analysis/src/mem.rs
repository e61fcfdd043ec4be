//! Process-memory measurement for experiment reports.
//!
//! Memory claims in `ScenarioReport`s ("peak memory independent of the
//! churn-event count") must be *measured*, not asserted. On Linux the
//! kernel already tracks exactly what we need in `/proc/self/status`:
//! `VmHWM` (peak resident set, the high-water mark) and `VmRSS` (current
//! resident set). Elsewhere both readers return `None` and reports print
//! `n/a` — no FFI, no allocator shims.
//!
//! Caveat: the counters are **process-wide**, and the high-water mark is
//! monotone over the process lifetime. A peak reading is faithful to a
//! workload only when that workload runs in a fresh process (the
//! standalone `exp_*` binaries, including the CI smoke runs); a reading
//! taken after *any* earlier work in the same process — concurrent or
//! sequenced — reports the union of everything so far. For per-phase
//! attribution inside one process, read [`current_rss_bytes`] while the
//! phase's allocations are still live.

/// Peak resident set size of this process in bytes, if the platform
/// exposes it. Reported as `max(VmHWM, VmRSS)`: some kernels update the
/// high-water mark lazily, so the current resident set can momentarily
/// exceed it — the true peak is never below either reading.
pub fn peak_rss_bytes() -> Option<u64> {
    let hwm = read_status_kb("VmHWM:");
    let rss = read_status_kb("VmRSS:");
    match (hwm, rss) {
        (Some(h), Some(r)) => Some(h.max(r) * 1024),
        (one, other) => one.or(other).map(|kb| kb * 1024),
    }
}

/// Current resident set size of this process in bytes (`VmRSS`), if the
/// platform exposes it.
pub fn current_rss_bytes() -> Option<u64> {
    read_status_kb("VmRSS:").map(|kb| kb * 1024)
}

fn read_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.strip_prefix(field)?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Formats a byte count as mebibytes for tables (`"123.4"`), or `"n/a"`.
pub fn fmt_mib(bytes: Option<u64>) -> String {
    match bytes {
        Some(b) => format!("{:.1}", b as f64 / (1024.0 * 1024.0)),
        None => "n/a".to_string(),
    }
}

/// Per-plane heap census, re-exported from the engine so analysis and
/// report code name one type. Unlike [`peak_rss_bytes`] this is *not*
/// process-wide: it attributes live bytes to the engine's planes
/// (topology / drift / automaton-hot / automaton-cold / wheel / staging /
/// dispatch-scratch) at the instant it is read.
pub use gcs_sim::PlaneBytes;

/// Formats one plane census as a compact single-line summary in MiB,
/// e.g. `topo 1.2 | drift 0.3 | hot 4.5 | cold 0.1 | wheel 0.2 |
/// staged 0.1 | scratch 0.1`.
pub fn fmt_planes(p: &PlaneBytes) -> String {
    let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
    format!(
        "topo {:.1} | drift {:.1} | hot {:.1} | cold {:.1} | wheel {:.1} | staged {:.1} | scratch {:.1}",
        mib(p.topology),
        mib(p.drift),
        mib(p.automaton_hot),
        mib(p.automaton_cold),
        mib(p.wheel),
        mib(p.staging),
        mib(p.dispatch_scratch)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_readers_return_plausible_values_on_linux() {
        let cur = current_rss_bytes().expect("linux exposes VmRSS");
        let peak = peak_rss_bytes().expect("linux exposes VmHWM/VmRSS");
        assert!(peak >= cur, "peak {peak} below the current reading {cur}");
        assert!(cur > 100 * 1024, "a test process uses more than 100 KiB");
    }

    #[test]
    fn fmt_mib_handles_both_cases() {
        assert_eq!(fmt_mib(None), "n/a");
        assert_eq!(fmt_mib(Some(10 * 1024 * 1024)), "10.0");
    }

    #[test]
    fn fmt_planes_lists_every_plane() {
        let p = PlaneBytes {
            topology: 1024 * 1024,
            drift: 0,
            automaton_hot: 2 * 1024 * 1024,
            automaton_cold: 512 * 1024,
            wheel: 0,
            staging: 128 * 1024,
            dispatch_scratch: 256 * 1024,
        };
        assert_eq!(
            fmt_planes(&p),
            "topo 1.0 | drift 0.0 | hot 2.0 | cold 0.5 | wheel 0.0 | staged 0.1 | scratch 0.2"
        );
        assert_eq!(
            p.total(),
            1024 * 1024 * 3 + 512 * 1024 + 128 * 1024 + 256 * 1024
        );
    }
}
