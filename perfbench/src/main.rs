//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--smoke]`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! untraced, per-layer metrics traced). Earlier lines carry the row
//! digests, the layer ladder's quartiles and the box manifest. Exits 1
//! when a correctness check failed and 2 on a malformed command line.

use perfbench::{run, Config, Workload};

const USAGE: &str = "usage: perfbench --workload <grid_crash|count_substrates> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        threads: Config::default_threads(),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(c) => c,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(&config);
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.result_line());
    if !report.correct() {
        eprintln!(
            "perfbench: {} of {} checked operations failed",
            report.failed, report.attempted
        );
        std::process::exit(1);
    }
}
