//! Per-thread CPU time from `/proc/self/task`, read from outside the
//! program: the server's event loops are found by their thread names
//! (`bso-loop<i>`), the benchmark's own driver threads by theirs.

use std::fs;

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`
/// (`USER_HZ`, 100 on every mainstream Linux configuration).
const USER_HZ: u64 = 100;

/// CPU nanoseconds from a `schedstat` line: its first field is the
/// time the task spent running, in nanoseconds.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// CPU nanoseconds from a `stat` line: `utime + stime` (fields 14 and
/// 15) in clock ticks. The command name in field 2 may contain spaces
/// and parentheses, so fields are counted after its closing `)`.
pub fn parse_stat(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// CPU nanoseconds of the task whose `/proc` directory is `dir`,
/// preferring the nanosecond `schedstat` over tick-granular `stat`.
fn task_cpu_ns(dir: &str) -> Option<u64> {
    fs::read_to_string(format!("{dir}/schedstat"))
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .or_else(|| {
            fs::read_to_string(format!("{dir}/stat"))
                .ok()
                .and_then(|s| parse_stat(&s))
        })
}

/// `(thread id, CPU ns)` of a set of threads at one instant.
pub type CpuReading = Vec<(u32, u64)>;

/// `(thread id, CPU ns)` for every thread of this process whose name
/// starts with `prefix`.
pub fn threads_cpu(prefix: &str) -> CpuReading {
    let Ok(entries) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = format!("/proc/self/task/{tid}");
        let named = fs::read_to_string(format!("{dir}/comm"))
            .map(|c| c.trim_end().starts_with(prefix))
            .unwrap_or(false);
        if named {
            if let Some(ns) = task_cpu_ns(&dir) {
                out.push((tid, ns));
            }
        }
    }
    out
}

/// CPU nanoseconds of the calling thread.
pub fn this_thread_cpu_ns() -> u64 {
    task_cpu_ns("/proc/thread-self").unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(parse_schedstat("662459 825302 3\n"), Some(662_459));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn stat_sums_user_and_system_ticks() {
        // A thread name with a space and a parenthesis, 7 user ticks
        // and 5 system ticks.
        let line = "4242 (bso loop) x) S 1 2 3 0 -1 4194304 80 0 0 0 7 5 0 0 20 0 1 0";
        assert_eq!(parse_stat(line), Some(12 * 10_000_000));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn own_thread_is_found_by_name() {
        let t = std::thread::Builder::new()
            .name("perfbench-probe".into())
            .spawn(|| {
                // Spin across several scheduler ticks, so the kernel has
                // charged the run time to the thread.
                let t0 = std::time::Instant::now();
                while t0.elapsed() < std::time::Duration::from_millis(50) {
                    std::hint::spin_loop();
                }
                (threads_cpu("perfbench-pro"), this_thread_cpu_ns())
            })
            .unwrap();
        let (found, own) = t.join().unwrap();
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(own > 0);
    }
}
