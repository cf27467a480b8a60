//! The box manifest printed with every result: what ran, on which box,
//! from which revision, and how the workload's working set compares with
//! the box's caches.

use crate::{json_number, Config, Workload};

/// Bytes of one DSC agent state.
const STATE_BYTES: usize = std::mem::size_of::<dsc_core::DscState>();

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// `/proc` has no such line.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size in bytes of CPU 0's unified or data cache of `level`, from sysfs.
fn cache_bytes(level: u32) -> Option<u64> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    std::fs::read_dir(base).ok()?.flatten().find_map(|entry| {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let lvl: u32 = read("level")?.trim().parse().ok()?;
        let kind = read("type")?;
        if lvl != level || kind.trim() == "Instruction" {
            return None;
        }
        let size = read("size")?;
        let size = size.trim();
        let (digits, mult) = match size.strip_suffix('K') {
            Some(d) => (d, 1024),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (size, 1),
            },
        };
        digits.parse::<u64>().ok().map(|d| d * mult)
    })
}

/// The checked-out revision from `.git/HEAD` in the working directory,
/// following one symbolic ref (loose or packed); `unknown` outside a git
/// checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed.lines().find_map(|l| {
                    l.strip_suffix(reference)
                        .map(|hash| hash.trim().to_string())
                })
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc -V` of the toolchain on the path.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The workload's working set in bytes, with a note on what it is.
fn working_set(c: &Config) -> (u64, String) {
    match c.workload {
        Workload::GridCrash => (
            ((1usize << 14) * STATE_BYTES * c.threads) as u64,
            format!(
                "one 2^14-agent array of {STATE_BYTES} B states per worker thread ({})",
                c.threads
            ),
        ),
        Workload::CountSubstrates => (
            (401 * 8 * c.threads) as u64,
            "one 401-entry count vector per worker thread; batched runs hold 2 counts".into(),
        ),
    }
}

/// Escapes a string for a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The manifest as one JSON object.
pub fn manifest(c: &Config) -> String {
    let l2 = cache_bytes(2);
    let l3 = cache_bytes(3);
    let (ws, ws_note) = working_set(c);
    let ratio = |bytes: u64, cache: Option<u64>| {
        cache.map_or_else(|| "null".into(), |b| json_number(bytes as f64 / b as f64))
    };
    let opt = |v: Option<u64>| v.map_or_else(|| "null".into(), |b| b.to_string());
    // The traced run's layer ladder also steps a 2^20-agent array, the
    // L2-missing regime of paper-scale runs.
    let ladder = ((1usize << 20) * STATE_BYTES) as u64;
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"threads\": {}, \"available_parallelism\": {}, \"cpu_model\": {}, \
         \"l2_bytes\": {}, \"l3_bytes\": {}, \"git_revision\": {}, \"rustc\": {}, \
         \"working_set_bytes\": {}, \"working_set_over_l2\": {}, \"working_set_over_l3\": {}, \
         \"working_set\": {}, \"ladder_n20_bytes\": {}, \"ladder_n20_over_l2\": {}, \
         \"ladder_n20_over_l3\": {}}}",
        json_string(c.workload.name()),
        c.seed,
        json_number(c.seconds),
        c.trace,
        c.smoke,
        c.threads,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        json_string(&cpu_model()),
        opt(l2),
        opt(l3),
        json_string(&git_revision()),
        json_string(&rustc_version()),
        ws,
        ratio(ws, l2),
        ratio(ws, l3),
        json_string(&ws_note),
        ladder,
        ratio(ladder, l2),
        ratio(ladder, l3),
    )
}
