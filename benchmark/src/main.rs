//! Command line of the repo benchmark. See `README.md`.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints, as its last line, the JSON result
//! the driver reads. Without `--workload` every workload runs, each in a
//! child process; `--aa <n>` repeats that `n` times and compares the sets.

use spitfire_benchmark::{host, report, run_workload, spec, suite, RunArgs};

const USAGE: &str = "usage: spitfire-benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
[--trace <0|1> | --traced] [--scale <f>] [--json <path>] [--aa <n>]";

struct Cli {
    workload: Option<String>,
    args: RunArgs,
    json: Option<String>,
    aa: Option<usize>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        args: RunArgs {
            seed: 1,
            seconds: spec::RUN_SECONDS as f64,
            scale: 1.0,
            traced: false,
        },
        json: None,
        aa: None,
    };
    fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
        let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
        value
            .parse()
            .map_err(|_| format!("{flag}: cannot read {value:?}"))
    }
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => cli.workload = Some(argv.next().ok_or("--workload needs a name")?),
            "--seed" => cli.args.seed = number(&flag, argv.next())?,
            "--seconds" => cli.args.seconds = number(&flag, argv.next())?,
            "--scale" => cli.args.scale = number(&flag, argv.next())?,
            "--trace" => cli.args.traced = number::<u8>(&flag, argv.next())? != 0,
            "--traced" => cli.args.traced = true,
            "--json" => cli.json = Some(argv.next().ok_or("--json needs a path")?),
            "--aa" => cli.aa = Some(number(&flag, argv.next())?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let a = &cli.args;
    if !(a.seconds > 0.0 && a.seconds <= 600.0 && a.scale > 0.0 && a.scale <= 16.0) {
        return Err(format!(
            "--seconds must lie in (0, 600] and --scale in (0, 16]\n{USAGE}"
        ));
    }
    Ok(cli)
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    // A control process of `host::parallel_speedup`.
    if argv.peek().map(String::as_str) == Some("--control-child") {
        let cpu = argv.nth(1).and_then(|c| c.parse().ok());
        let done = cpu
            .ok_or("bad cpu".to_string())
            .and_then(host::control_child);
        std::process::exit(done.is_err() as i32);
    }
    let cli = match parse(argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let ok = match (&cli.workload, cli.aa) {
        (None, Some(sets)) => suite::run_aa(sets.max(2), &cli.args),
        (None, None) => suite::run_all(&cli.args, cli.json.as_deref()),
        (Some(workload), _) => run_one(workload, &cli),
    };
    std::process::exit(!ok as i32);
}

/// One workload in this process, pinned to one CPU before any thread exists.
fn run_one(workload: &str, cli: &Cli) -> bool {
    let pinned = host::pin();
    if let Err(e) = &pinned {
        println!(
            "warning: not pinned ({e}); server-kv is bimodal when unpinned, read it as unresolved"
        );
    }
    if let Ok(exe) = std::env::current_exe() {
        host::set_control_exe(exe);
    }
    let deviation = host::calibrate_device_model_when_quiet();
    println!(
        "calibration: the cheapest emulated DRAM delay is {:+.1} % off the model",
        100.0 * deviation
    );
    match run_workload(workload, cli.args) {
        Ok(out) => {
            let (line, correct) = report::print(workload, &cli.args, &pinned, &out);
            if let Some(path) = &cli.json {
                if let Err(e) = std::fs::write(path, format!("{line}\n")) {
                    eprintln!("write {path}: {e}");
                    return false;
                }
            }
            println!("{line}");
            correct
        }
        Err(e) => {
            // No result line: the run did not measure anything it can stand behind.
            eprintln!("benchmark: {workload} failed: {e}");
            false
        }
    }
}
