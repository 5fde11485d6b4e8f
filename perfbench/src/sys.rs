//! Process facts read from `/proc` and the checkout, with std only.

use std::path::Path;
use std::time::Duration;

/// `AT_CLKTCK` in the auxiliary vector.
const AT_CLKTCK: u64 = 17;

/// Clock ticks per second for `/proc` CPU times (from the auxiliary
/// vector; 100 when it cannot be read).
pub fn clock_ticks() -> u64 {
    let Ok(raw) = std::fs::read("/proc/self/auxv") else {
        return 100;
    };
    raw.chunks_exact(16)
        .map(|kv| {
            let k = u64::from_ne_bytes(kv[..8].try_into().expect("8-byte key"));
            let v = u64::from_ne_bytes(kv[8..].try_into().expect("8-byte value"));
            (k, v)
        })
        .find(|&(k, _)| k == AT_CLKTCK)
        .map_or(100, |(_, v)| v.max(1))
}

/// Fields of a `/proc/.../stat` line after the parenthesised command
/// name (field 3 of the man page comes first).
fn stat_fields(line: &str) -> Option<Vec<&str>> {
    let close = line.rfind(')')?;
    Some(line[close + 1..].split_whitespace().collect())
}

/// utime + stime of a stat line, in ticks.
fn stat_cpu_ticks(line: &str) -> Option<u64> {
    let f = stat_fields(line)?;
    // Fields 14 and 15 of the man page; index 0 here is field 3.
    Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
}

/// CPU time of the whole process (all threads, user + system).
pub fn process_cpu() -> Duration {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|l| stat_cpu_ticks(&l))
        .unwrap_or(0);
    Duration::from_secs_f64(ticks as f64 / clock_ticks() as f64)
}

/// One live thread of this process.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ThreadCpu {
    /// Thread name.
    pub name: String,
    /// User + system CPU time so far.
    pub cpu: Duration,
    /// The CPU it last ran on.
    pub last_cpu: u32,
    /// Times the scheduler took the CPU away while it could still run.
    pub preempted: u64,
}

/// CPU time, last processor and preemptions of every live thread.
pub fn thread_cpu() -> Vec<ThreadCpu> {
    let tck = clock_ticks() as f64;
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for e in dir.flatten() {
        let p = e.path();
        let name = std::fs::read_to_string(p.join("comm")).unwrap_or_default();
        let Ok(line) = std::fs::read_to_string(p.join("stat")) else {
            continue;
        };
        let cpu = stat_cpu_ticks(&line).unwrap_or(0);
        // Field 39 ("processor"): the CPU the thread last ran on.
        let last = stat_fields(&line)
            .and_then(|f| f.get(36).and_then(|v| v.parse().ok()))
            .unwrap_or(0);
        let preempted = std::fs::read_to_string(p.join("status"))
            .ok()
            .and_then(|st| {
                st.lines()
                    .find_map(|l| l.strip_prefix("nonvoluntary_ctxt_switches:"))
                    .and_then(|v| v.trim().parse().ok())
            })
            .unwrap_or(0);
        out.push(ThreadCpu {
            name: name.trim().to_string(),
            cpu: Duration::from_secs_f64(cpu as f64 / tck),
            last_cpu: last,
            preempted,
        });
    }
    out.sort();
    out
}

/// The commit the checkout was made from, if it is a git work tree;
/// `"unknown"` otherwise.
pub fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&git.join(r)) {
        return sha.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Ticks the hypervisor has taken from this machine's CPUs since boot
/// (the `steal` column of `/proc/stat`; 0 where it is not reported).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// CPUs this process may run on.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_skips_spaces_in_the_command_name() {
        let line = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 111 222 13 14 15 16 17 18 19 20 21 22 \
                    23 24 25 26 27 28 29 30 31 32 33 34 35 3 37 38";
        assert_eq!(stat_cpu_ticks(line), Some(333));
        assert_eq!(stat_fields(line).unwrap()[36], "3");
    }

    #[test]
    fn process_cpu_grows_with_work() {
        let before = process_cpu();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu() > before, "{x}");
        assert!(clock_ticks() >= 1);
    }
}
