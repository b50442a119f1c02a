//! Host memory of the simulator's own process. Timed measurements that
//! back a performance claim come from the repo benchmark (`benchmark/`),
//! which reads its `peak_rss_mb` from here.

/// Peak resident set size of this process in bytes. Reads `VmHWM` from
/// `/proc/self/status` on Linux; returns 0 where unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_sane_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // This test binary surely holds at least a megabyte.
            assert!(rss > 1 << 20, "VmHWM parsed as {rss}");
        }
    }
}
