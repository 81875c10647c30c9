//! `ladder`: one benchmark for the serving stack.
//!
//! Four workloads drive the real stack from outside — `net::listen`,
//! loopback sockets, production defaults — and report ten end-to-end
//! metrics each; a traced run adds a per-layer rung table. README.md in
//! this directory is the manual: metric glossary, the window/median
//! protocol, how to read a trace, and what replaced which legacy cell.
//!
//! ```text
//! ladder all --seed S [--smoke] [--record FILE]   every workload, run + trace, as child processes
//! ladder run <workload> --seed S [--seconds N]    one untraced run, in this process
//! ladder trace <workload> --seed S                one traced run, in this process
//! ladder --workload W --seed S --seconds N --trace 0|1    the driver's contract (BENCHMARK.json)
//! ```

mod emit;
mod gen;
mod host;
mod load;
mod oracle;
mod run;
mod spec;
mod stack;
mod stats;
mod trace;

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use emit::{Measured, Obj, RunResult};
use host::Fingerprint;
use run::RunOptions;
use spec::{MetricSpec, Sizing, Workload, END_TO_END, PER_LAYER};

/// Re-runs of a workload whose attempt was void (so three attempts in
/// all, as long as they fit [`SUPERVISION_BUDGET`]).
const MAX_RETRIES: u64 = 2;
/// Everything one supervised workload may take, retries included: under
/// the 180 s the driver allows one run.
const SUPERVISION_BUDGET: Duration = Duration::from_secs(170);
/// Exit status of a child that ran to the end but whose result is not
/// correct — told apart from a crash so its report can still be shown.
const EXIT_INCORRECT: u8 = 3;

/// With less than this left of the budget, another attempt cannot finish.
const MIN_ATTEMPT: Duration = Duration::from_secs(30);

const USAGE: &str = "usage:
  ladder all --seed S [--smoke] [--seconds N] [--record FILE]
  ladder run <workload> --seed S [--seconds N] [--smoke]
  ladder trace <workload> --seed S [--smoke]
  ladder --workload <workload> --seed S --seconds N --trace 0|1
workloads: tcp_knn_hot tcp_knn_cold_open tcp_mixed_rw fleet_knn_hot";

/// What the command line asked for.
#[derive(Debug, PartialEq)]
enum Mode {
    /// Every workload, untraced and traced, each in a child process.
    All,
    /// One workload in this process.
    One { workload: Workload, traced: bool },
    /// One workload in a supervised child, result line last: the
    /// `BENCHMARK.json` contract.
    Driver { workload: Workload, traced: bool },
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: Option<u64>,
    smoke: bool,
    record: Option<String>,
    /// Set by a supervising parent: crashes of earlier attempts.
    crash_retries: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let (mut seed, mut seconds, mut workload, mut trace_flag) = (None, None, None, None);
    let (mut smoke, mut record, mut crash_retries) = (false, None, 0);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{name} needs a whole number, got {text:?}"))
        };
        match arg.as_str() {
            "--seed" => seed = Some(number("--seed", value("--seed")?)?),
            "--seconds" => seconds = Some(number("--seconds", value("--seconds")?)?),
            "--trace" => trace_flag = Some(number("--trace", value("--trace")?)? != 0),
            "--crash-retries" => crash_retries = number(arg, value("--crash-retries")?)?,
            "--workload" => workload = Some(value("--workload")?),
            "--record" => record = Some(value("--record")?),
            "--smoke" => smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => positional.push(word.to_string()),
        }
    }
    let named =
        |name: &str| Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"));
    let mode = match (positional.first().map(String::as_str), workload) {
        (None, Some(w)) => Mode::Driver {
            workload: named(&w)?,
            traced: trace_flag.ok_or("--workload needs --trace 0|1")?,
        },
        (Some("all"), None) if positional.len() == 1 => Mode::All,
        (Some(verb @ ("run" | "trace")), None) if positional.len() == 2 => Mode::One {
            workload: named(&positional[1])?,
            traced: verb == "trace",
        },
        _ => {
            return Err("expected `all`, `run <workload>`, `trace <workload>` or --workload".into())
        }
    };
    if seconds == Some(0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        mode,
        // A required argument on purpose: a number nobody chose cannot be
        // told apart from the held-out seed (README, "Seeds").
        seed: seed.ok_or("--seed is required")?,
        seconds,
        smoke,
        record,
        crash_retries,
    })
}

fn sizing_of(args: &Args) -> Sizing {
    if args.smoke {
        Sizing::smoke()
    } else {
        Sizing::full()
    }
}

/// One finished measurement, ready to print.
struct Report {
    result: RunResult,
    /// Human-readable lines: one per metric, then notes.
    lines: Vec<String>,
}

fn metric_line(spec: &MetricSpec, value: f64, extra: &str) -> String {
    let bound = spec.bound.map_or(String::new(), |b| format!("  bound {b}"));
    format!(
        "  {:<38} {:>14.4} {:<6} {} is better{bound}{extra}",
        spec.name,
        value,
        spec.unit,
        spec.better.as_str()
    )
}

fn run_report(opts: &RunOptions) -> Report {
    let reduced = run::run(opts);
    let mut lines = Vec::new();
    for spec in END_TO_END {
        let value = reduced.result.get(spec.name).unwrap_or(f64::NAN);
        let extra = reduced
            .details
            .iter()
            .find(|d| d.name == spec.name)
            .map_or(String::new(), |d| {
                format!(
                    "  [median of the better quarter; all {} quiet windows: Q1 {:.1} median {:.1} Q3 {:.1}, IQR {:.1} %]",
                    d.summary.windows,
                    d.summary.q1,
                    d.summary.median,
                    d.summary.q3,
                    d.summary.iqr_share() * 100.0
                )
            });
        lines.push(metric_line(spec, value, &extra));
    }
    lines.push(format!(
        "  host: {:.1} % of windows quiet, {:.2} % of CPU stolen",
        reduced.quiet_share * 100.0,
        reduced.steal_share * 100.0
    ));
    lines.push(format!(
        "  knn p99 over the pooled samples of the quarter of windows with the lowest p50: {:.1} us (per-layer client.knn_p99_us)",
        reduced.knn_p99_us
    ));
    if reduced.tail_quantile < 0.90 {
        lines.push(format!(
            "  note: some windows were too small for p90; lowest quantile reported {:.4}",
            reduced.tail_quantile
        ));
    }
    if let Some([qps, p50, p99]) = reduced.upsert {
        lines.push(format!(
            "  upsert stream: {qps:.1} 1/s, p50 {p50:.1} us, p99 {p99:.1} us (per-layer client.upsert_* in a traced run)"
        ));
    }
    lines.extend(
        reduced
            .notes
            .iter()
            .take(12)
            .map(|n| format!("  failure: {n}")),
    );
    Report {
        result: reduced.result,
        lines,
    }
}

fn trace_report(opts: &RunOptions, crash_retries: u64) -> Report {
    let traced = trace::trace(opts, crash_retries);
    let mut lines = traced.table;
    for spec in PER_LAYER {
        let value = traced.result.get(spec.name).unwrap_or(f64::NAN);
        lines.push(metric_line(spec, value, ""));
    }
    lines.push(format!("  spans: {}", traced.span_file.display()));
    lines.extend(traced.notes.iter().map(|n| format!("  failure: {n}")));
    Report {
        result: traced.result,
        lines,
    }
}

/// Runs one workload in this process and prints its report; the result
/// line is the last line of standard output.
fn run_here(args: &Args, workload: Workload, traced: bool) -> RunResult {
    let sizing = sizing_of(args);
    let opts = RunOptions {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(sizing.seconds),
        sizing,
    };
    let fingerprint = Fingerprint::take();
    println!(
        "ladder {} {} seed={} seconds={} rows={} smoke={}",
        if traced { "trace" } else { "run" },
        workload.name(),
        opts.seed,
        opts.seconds,
        sizing.rows,
        args.smoke
    );
    println!("host {}", fingerprint.to_json());
    let report = if traced {
        trace_report(&opts, args.crash_retries)
    } else {
        run_report(&opts)
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.result.to_json());
    report.result
}

/// How one attempt at a child process ended.
enum Attempt {
    /// Exit code 0: a correct result; its standard output.
    Completed(String),
    /// Ran to the end, but something was wrong (a failed request, a late
    /// generator): its standard output, and the exit status.
    Incorrect(String),
    /// Killed by a signal, hung, or died some other way; a description.
    Crashed(String),
}

/// A supervised workload: the output of its last attempt that produced
/// any (a correct one if there was one), and how many attempts were void
/// before it.
struct Supervised {
    stdout: Option<String>,
    retries: u64,
}

/// Runs `attempt` until one completes correctly, at most
/// `1 + MAX_RETRIES` times and within [`SUPERVISION_BUDGET`].
///
/// A void attempt is one in which the program under test crashed, hung,
/// or answered wrongly: on this codebase all three happen sporadically
/// (README, "Crashes"), so one bad attempt says nothing about the commit
/// — but the same failure three times in a row does, and is then what
/// gets reported. Each attempt is told how many were void before it, so
/// the one that completes reports `client.crash_retries` itself, and how
/// long it may take.
fn supervise(mut attempt: impl FnMut(u64, Duration) -> Attempt) -> Supervised {
    let began = Instant::now();
    let mut last_output = None;
    let mut voids = 0;
    loop {
        let left = SUPERVISION_BUDGET.saturating_sub(began.elapsed());
        let how = match attempt(voids, left) {
            Attempt::Completed(stdout) => {
                return Supervised {
                    stdout: Some(stdout),
                    retries: voids,
                }
            }
            Attempt::Incorrect(stdout) => {
                last_output = Some(stdout);
                "ran to the end, result not correct".to_string()
            }
            Attempt::Crashed(how) => how,
        };
        eprintln!("ladder: attempt {} void: {how}", voids + 1);
        let out_of_time = began.elapsed() + MIN_ATTEMPT > SUPERVISION_BUDGET;
        if voids == MAX_RETRIES || out_of_time {
            return Supervised {
                stdout: last_output,
                retries: voids,
            };
        }
        voids += 1;
    }
}

/// Spawns this executable on one workload and waits for it, at most
/// `deadline`.
fn spawn_child(
    args: &Args,
    workload: Workload,
    traced: bool,
    voids: u64,
    deadline: Duration,
) -> Attempt {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return Attempt::Crashed(format!("cannot find own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.arg(if traced { "trace" } else { "run" })
        .arg(workload.name())
        .args(["--seed", &args.seed.to_string()])
        .args(["--crash-retries", &voids.to_string()]);
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let spawned = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => return Attempt::Crashed(format!("spawn failed: {e}")),
    };
    // Drain the pipe on the side so a talkative child never blocks on it.
    let mut pipe = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = pipe.read_to_string(&mut text);
        text
    });
    let began = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if began.elapsed() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("hung: killed after {:.0?}", began.elapsed()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => break Err(format!("wait failed: {e}")),
        }
    };
    let stdout = reader.join().unwrap_or_default();
    match status {
        Err(how) => Attempt::Crashed(how),
        Ok(status) if status.success() => Attempt::Completed(stdout),
        Ok(status) if status.code() == Some(i32::from(EXIT_INCORRECT)) => {
            Attempt::Incorrect(stdout)
        }
        Ok(status) => {
            use std::os::unix::process::ExitStatusExt;
            Attempt::Crashed(match status.signal() {
                Some(signal) => format!("killed by signal {signal}"),
                None => format!("exit status {status}"),
            })
        }
    }
}

/// How long one attempt may run before it counts as hung: twice what a
/// healthy one takes (set-ups and teardown around `seconds` of
/// measurement; a traced run's rungs take about as long again).
fn attempt_deadline(args: &Args, traced: bool) -> Duration {
    let sizing = sizing_of(args);
    let seconds = args.seconds.unwrap_or(sizing.seconds);
    let measured = if traced {
        sizing.trace_phase_seconds + 25
    } else {
        seconds + 10
    };
    Duration::from_secs(2 * measured)
}

fn last_line_result(stdout: &str) -> Result<RunResult, String> {
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    RunResult::from_json(line)
}

/// One supervised workload, as `drive` and `all` run it.
fn supervised_child(args: &Args, workload: Workload, traced: bool) -> Supervised {
    let deadline = attempt_deadline(args, traced);
    supervise(|voids, left| spawn_child(args, workload, traced, voids, deadline.min(left)))
}

/// The driver's contract: the workload runs in a supervised child; its
/// output is relayed, result line last.
fn drive(args: &Args, workload: Workload, traced: bool) -> ExitCode {
    let supervised = supervised_child(args, workload, traced);
    match supervised.stdout {
        Some(stdout) if last_line_result(&stdout).is_ok() => {
            print!("{stdout}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "ladder: {} produced no result in {} attempts",
                workload.name(),
                supervised.retries + 1
            );
            ExitCode::FAILURE
        }
    }
}

/// The result standing in for a workload that never completed: every
/// request failed, nothing else is known.
fn never_completed(declared: &[MetricSpec]) -> RunResult {
    RunResult {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: declared
            .iter()
            .filter(|m| m.name == "ok_share")
            .map(|m| Measured {
                name: m.name.to_string(),
                value: 0.0,
                unit: m.unit.to_string(),
            })
            .collect(),
    }
}

/// `ladder all`: every workload untraced then traced, each in its own
/// process; prints every metric by name; fails when any check did.
fn all(args: &Args) -> ExitCode {
    let fingerprint = Fingerprint::take();
    println!("ladder all seed={} smoke={}", args.seed, args.smoke);
    println!("host {}", fingerprint.to_json());
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        println!("workload {}: {}", workload.name(), workload.why());
        for (traced, declared) in [(false, END_TO_END), (true, PER_LAYER)] {
            let supervised = supervised_child(args, workload, traced);
            let stdout = supervised.stdout.as_deref();
            let result = match stdout.map(last_line_result) {
                Some(Ok(result)) => {
                    // Relay the child's report minus its result line.
                    let report = stdout.and_then(|s| s.trim_end().rsplit_once('\n'));
                    if let Some((report, _result_line)) = report {
                        println!("{report}");
                    }
                    result
                }
                Some(Err(why)) => {
                    println!("ladder: {} printed no result line: {why}", workload.name());
                    never_completed(declared)
                }
                None => {
                    println!(
                        "ladder: {} never completed ({} attempts died); reported with ok_share = 0",
                        workload.name(),
                        supervised.retries + 1
                    );
                    never_completed(declared)
                }
            };
            if supervised.retries > 0 {
                println!("  crash retries: {}", supervised.retries);
            }
            let missing = result.missing(declared);
            if !result.correct || !missing.is_empty() {
                ok = false;
                println!(
                    "  FAILED: {} {}: correct={} failed={}/{} missing={missing:?}",
                    workload.name(),
                    if traced { "trace" } else { "run" },
                    result.correct,
                    result.failed,
                    result.attempted
                );
            }
            if args.smoke {
                if let Err(why) = smoke_checks(&result, workload, traced) {
                    ok = false;
                    println!("  FAILED smoke check: {}: {why}", workload.name());
                }
            }
            rows.push(
                Obj::new()
                    .str("workload", workload.name())
                    .bool("traced", traced)
                    .raw("result", &result.to_json())
                    .finish(),
            );
        }
    }
    if let Some(path) = &args.record {
        if let Err(why) = record(path, args, &fingerprint, &rows) {
            println!("ladder: not recorded: {why}");
            ok = false;
        }
    }
    println!(
        "ladder all: {}",
        if ok { "every check passed" } else { "FAILED" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Appends this run's numbers as one JSON line to `path` — refused from
/// a dirty or unknown tree, so a recorded baseline always names the code
/// that produced it. (`BENCHMARK.json` itself holds declarations only.)
fn record(path: &str, args: &Args, fp: &Fingerprint, rows: &[String]) -> Result<(), String> {
    if !fp.is_clean_commit() {
        return Err(format!(
            "commit is {:?}; baselines are only recorded from a clean checkout",
            fp.commit
        ));
    }
    let line = Obj::new()
        .raw("host", &fp.to_json())
        .num("seed", args.seed as f64)
        .bool("smoke", args.smoke)
        .raw("results", &format!("[{}]", rows.join(",")))
        .finish();
    use std::io::Write;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("{path}: {e}"))
}

/// What `--smoke` asserts beyond "every check passed".
fn smoke_checks(result: &RunResult, workload: Workload, traced: bool) -> Result<(), String> {
    let get = |name: &str| result.get(name).ok_or_else(|| format!("{name} missing"));
    if !traced {
        if get("ok_share")? != 1.0 {
            return Err(format!(
                "ok_share {} (failed_share must be 0)",
                get("ok_share")?
            ));
        }
        if get("recall_at_10")? < 0.95 {
            return Err(format!("recall_at_10 {} below 0.95", get("recall_at_10")?));
        }
        return Ok(());
    }
    // Each rung of the replayed request contains the one below it, so
    // medians must not invert.
    let ladder = if workload.is_cold() {
        [
            "serve.net.rtt_knn_us",
            "serve.proto.handle_knn_us",
            "serve.server.embed_miss_us",
            "core.model.forward_b1_us",
        ]
    } else {
        [
            "serve.net.rtt_knn_us",
            "serve.proto.handle_knn_us",
            "serve.server.knn_hot_us",
            "serve.router.search_us",
        ]
    };
    for pair in ladder.windows(2) {
        let (outer, inner) = (get(pair[0])?, get(pair[1])?);
        if outer < inner {
            return Err(format!("{} {outer} < {} {inner}", pair[0], pair[1]));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("ladder: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::All => all(&args),
        Mode::Driver { workload, traced } => drive(&args, workload, traced),
        Mode::One { workload, traced } => {
            // The program under test runs on threads of this process. A
            // panic on any of them is that program crashing: die with it
            // (SIGABRT) instead of limping on with a worker short, so the
            // supervising parent sees a crash, counts it and retries.
            let default_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                default_hook(info);
                std::process::abort();
            }));
            if run_here(&args, workload, traced).correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_INCORRECT)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn command_lines_parse() {
        let driver = parse_args(&argv(&[
            "--workload",
            "tcp_mixed_rw",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            driver.mode,
            Mode::Driver {
                workload: Workload::TcpMixedRw,
                traced: true
            }
        );
        assert_eq!((driver.seed, driver.seconds), (7, Some(15)));
        let one = parse_args(&argv(&["trace", "fleet_knn_hot", "--seed", "3", "--smoke"])).unwrap();
        assert_eq!(
            one.mode,
            Mode::One {
                workload: Workload::FleetKnnHot,
                traced: true
            }
        );
        assert!(one.smoke);
        assert_eq!(
            parse_args(&argv(&["all", "--seed", "1"])).unwrap().mode,
            Mode::All
        );
    }

    #[test]
    fn seed_is_required_and_nonsense_is_refused() {
        assert!(parse_args(&argv(&["all"])).unwrap_err().contains("--seed"));
        assert!(parse_args(&argv(&["run", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&argv(&["run", "--seed", "1"])).is_err());
        assert!(parse_args(&argv(&["all", "--seed", "x"])).is_err());
        assert!(parse_args(&argv(&["all", "--seed", "1", "--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["all", "--seed", "1", "--bogus"])).is_err());
        assert!(parse_args(&argv(&["--workload", "tcp_knn_hot", "--seed", "1"])).is_err());
    }

    #[test]
    fn a_void_attempt_is_retried_twice_and_counted() {
        let mut told = Vec::new();
        let survived = supervise(|voids, left| {
            assert!(left <= SUPERVISION_BUDGET);
            told.push(voids);
            match voids {
                0 => Attempt::Crashed("killed by signal 11".into()),
                1 => Attempt::Incorrect("wrong answer".into()),
                _ => Attempt::Completed("done".into()),
            }
        });
        assert_eq!(survived.stdout.as_deref(), Some("done"));
        assert_eq!(survived.retries, 2);
        assert_eq!(told, [0, 1, 2]);

        // Never correct: three attempts, and the last report that exists
        // is what is shown — a failure that repeats is real.
        let mut attempts = 0;
        let dead = supervise(|_, _| {
            attempts += 1;
            if attempts == 2 {
                Attempt::Incorrect("failed 1 of 9".into())
            } else {
                Attempt::Crashed("exit status 101".into())
            }
        });
        assert_eq!((dead.retries, attempts), (2, 3));
        assert_eq!(dead.stdout.as_deref(), Some("failed 1 of 9"));
        let gone = supervise(|_, _| Attempt::Crashed("hung".into()));
        assert_eq!((gone.stdout, gone.retries), (None, 2));
    }

    #[test]
    fn a_workload_that_never_completes_is_reported_not_omitted() {
        let stand_in = never_completed(END_TO_END);
        assert!(!stand_in.correct);
        assert_eq!(stand_in.get("ok_share"), Some(0.0));
        assert_eq!(stand_in.missing(END_TO_END).len(), END_TO_END.len() - 1);
        assert!(RunResult::from_json(&stand_in.to_json()).is_ok());
    }

    #[test]
    fn baselines_are_refused_from_a_dirty_tree() {
        let args = parse_args(&argv(&["all", "--seed", "1"])).unwrap();
        let mut fp = Fingerprint {
            cpu_model: "x".into(),
            nproc: 2,
            trajcl_threads: "unset".into(),
            dispatch: "scalar",
            forced_scalar: false,
            commit: "abc1234-dirty".into(),
            calib_mops: 1.0,
        };
        let path = std::env::temp_dir().join(format!("ladder-record-{}.jsonl", std::process::id()));
        let path_str = path.to_str().unwrap();
        assert!(record(path_str, &args, &fp, &[])
            .unwrap_err()
            .contains("clean"));
        assert!(!path.exists());
        fp.commit = "unknown".into();
        assert!(record(path_str, &args, &fp, &[]).is_err());
        fp.commit = "abc1234".into();
        record(path_str, &args, &fp, &["{\"workload\":\"w\"}".to_string()]).unwrap();
        let line = std::fs::read_to_string(&path).unwrap();
        assert!(trajcl_serve::json::parse(line.trim()).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    /// `ladder all --smoke` in one process: every workload untraced and
    /// traced at smoke size, with the smoke assertions. The binary runs
    /// each in a supervised child; here an attempt that panics or ends
    /// incorrect is retried like a void child would be (README,
    /// "Crashes": the pool bug bites in-process too) — a SIGSEGV still
    /// takes the test binary down.
    #[test]
    fn smoke_all_workloads_run_and_trace() {
        let args = parse_args(&argv(&["all", "--seed", "1", "--smoke"])).unwrap();
        for workload in Workload::ALL {
            for (traced, declared) in [(false, END_TO_END), (true, PER_LAYER)] {
                let attempt = || {
                    std::panic::catch_unwind(|| run_here(&args, workload, traced))
                        .ok()
                        .filter(|result| result.correct)
                };
                let result = (0..=MAX_RETRIES)
                    .find_map(|_| attempt())
                    .unwrap_or_else(|| panic!("{} traced={traced}: void", workload.name()));
                assert_eq!(result.missing(declared), Vec::<&str>::new());
                smoke_checks(&result, workload, traced)
                    .unwrap_or_else(|why| panic!("{} traced={traced}: {why}", workload.name()));
            }
        }
    }
}
