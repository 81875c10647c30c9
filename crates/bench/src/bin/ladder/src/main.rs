//! `ladder`: one benchmark for the serving stack.
//!
//! Four workloads drive the real stack from outside — `net::listen`,
//! loopback sockets, production defaults — and report nine end-to-end
//! metrics each; a traced run adds a per-layer rung table. README.md
//! beside this package's manifest is the manual: metric glossary, the
//! window protocol, how to read a trace, and what replaced which legacy
//! cell.
//!
//! ```text
//! ladder run <workload> --seed S [--seconds N]    one untraced run, in this process
//! ladder trace <workload> --seed S                one traced run, in this process
//! ladder --workload W --seed S --seconds N --trace 0|1    the same, supervised (BENCHMARK.json)
//! ladder all --seed S [--smoke]                   every workload, supervised, run + trace
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

use emit::{Measured, RunResult};
use host::Fingerprint;
use run::RunOptions;
use spec::{MetricSpec, Sizing, Workload, END_TO_END, PER_LAYER};

/// Re-runs of a workload whose attempt died (so three attempts in all,
/// as long as they fit [`SUPERVISION_BUDGET`]).
const MAX_RETRIES: usize = 2;
/// Everything one supervised workload may take, retries included: under
/// the 180 s the driver allows one run.
const SUPERVISION_BUDGET: Duration = Duration::from_secs(170);
/// An attempt still running after this long is hung. A healthy one takes
/// 30 s on the reference sandbox, traced or not; the limit leaves a host
/// three times slower its result, and a second attempt its 70 s. A limit
/// near the healthy duration is no limit: on a slower host it kills every
/// attempt of a healthy program (README, "Supervision").
const HANG_AFTER: Duration = Duration::from_secs(100);
/// Exit status of a child that ran to the end but whose result is not
/// correct — told apart from a crash: it is final, its report is shown.
const EXIT_INCORRECT: u8 = 3;
/// With less than this left of the budget, another attempt cannot finish.
const MIN_ATTEMPT: Duration = Duration::from_secs(35);
/// Lanes of `trajcl_tensor::pool` under the benchmark: the calling thread
/// alone. With more, `Latch::complete_one` can touch a latch its waiter
/// has already freed, and no workload is then free of failed operations
/// (README, "The pool runs one lane").
const POOL_LANES: &str = "1";
/// The per-layer metric the supervisor owns: a child cannot know how many
/// attempts died before it.
const CRASH_RETRIES: &str = "client.crash_retries";

const USAGE: &str = "usage:
  ladder run <workload> --seed S [--seconds N] [--smoke]
  ladder trace <workload> --seed S [--smoke]
  ladder --workload <workload> --seed S --seconds N --trace 0|1
  ladder all --seed S [--smoke] [--seconds N]
workloads: tcp_knn_hot tcp_knn_cold_open tcp_mixed_rw fleet_knn_hot";

/// What the command line asked for.
#[derive(Debug, PartialEq)]
enum Mode {
    /// One workload in this process (`run`, `trace`).
    Here { workload: Workload, traced: bool },
    /// One workload in a supervised child, result line last: the
    /// `BENCHMARK.json` contract.
    Supervised { workload: Workload, traced: bool },
    /// Every workload, untraced and traced, each supervised.
    All,
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: Option<u64>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let (mut seed, mut seconds, mut workload, mut trace_flag) = (None, None, None, None);
    let mut smoke = false;
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
            "--workload" => workload = Some(value("--workload")?),
            "--smoke" => smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => positional.push(word.to_string()),
        }
    }
    let named =
        |name: &str| Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"));
    let mode = match (positional.first().map(String::as_str), workload) {
        (None, Some(w)) => Mode::Supervised {
            workload: named(&w)?,
            traced: trace_flag.ok_or("--workload needs --trace 0|1")?,
        },
        (Some("all"), None) if positional.len() == 1 => Mode::All,
        (Some(verb @ ("run" | "trace")), None) if positional.len() == 2 => Mode::Here {
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
                    "  [per window, {} quiet windows: Q1 {:.1} median {:.1} Q3 {:.1}, IQR {:.1} %; better quarter {:.1}]",
                    d.summary.windows,
                    d.summary.q1,
                    d.summary.median,
                    d.summary.q3,
                    d.summary.iqr_share() * 100.0,
                    d.better_quarter
                )
            });
        lines.push(metric_line(spec, value, &extra));
    }
    lines.push(format!(
        "  kNN latency samples in quiet windows: {}; p90 {:.1} us, p99 {:.1} us (per-layer client.knn_p90_us, client.knn_p99_us)",
        reduced.knn_samples, reduced.knn_p90_us, reduced.knn_p99_us
    ));
    lines.push(format!(
        "  host: {:.1} % of windows quiet, {:.2} % of CPU stolen; generator: {:.2} % of open-loop sends late",
        reduced.quiet_share * 100.0,
        reduced.steal_share * 100.0,
        reduced.late_share * 100.0
    ));
    let pace = |slowdown: f64| format!("{slowdown:.2}");
    lines.push(format!(
        "  host pace (yardstick slowdown per round): spans [{}], set-ups [{}]; every time above is the measured one / its round's slowdown",
        reduced
            .slowdowns
            .iter()
            .map(|(_, span)| pace(*span))
            .collect::<Vec<_>>()
            .join(" "),
        reduced
            .slowdowns
            .iter()
            .map(|(setup, _)| setup.map_or("-".to_string(), pace))
            .collect::<Vec<_>>()
            .join(" "),
    ));
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
            .map(|n| format!("  note: {n}")),
    );
    Report {
        result: reduced.result,
        lines,
    }
}

fn trace_report(opts: &RunOptions) -> Report {
    let traced = trace::trace(opts);
    let mut lines = traced.table;
    for spec in PER_LAYER {
        let value = traced.result.get(spec.name).unwrap_or(f64::NAN);
        lines.push(metric_line(spec, value, ""));
    }
    lines.push(format!("  spans: {}", traced.span_file.display()));
    lines.extend(traced.notes.iter().map(|n| format!("  note: {n}")));
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
    println!(
        "ladder {} {} seed={} seconds={} rows={} smoke={}",
        if traced { "trace" } else { "run" },
        workload.name(),
        opts.seed,
        opts.seconds,
        sizing.rows,
        args.smoke
    );
    println!("host {}", Fingerprint::take().to_json());
    let report = if traced {
        trace_report(&opts)
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
    /// Ran to the end and printed its report — correct or not, that is
    /// the measurement: its standard output.
    Finished(String),
    /// Killed by a signal, hung, or died some other way: how.
    Died(String),
}

/// A supervised workload.
struct Supervised {
    /// Output of the attempt that ran to the end, if one did.
    stdout: Option<String>,
    /// How each attempt before it died.
    died: Vec<String>,
}

/// Runs `attempt` until one runs to the end, at most `1 + MAX_RETRIES`
/// times and within [`SUPERVISION_BUDGET`].
///
/// Only an attempt that *died* — the program under test took the process
/// down, or hung it — is re-run, and every death is kept for the report
/// (README, "Supervision"). An attempt that ran to the end is final even when
/// its answers were wrong or requests failed: that is a result, and
/// re-running it until it passes would report the best of three.
fn supervise(mut attempt: impl FnMut(Duration) -> Attempt) -> Supervised {
    let began = Instant::now();
    let mut died = Vec::new();
    loop {
        let left = SUPERVISION_BUDGET.saturating_sub(began.elapsed());
        match attempt(left) {
            Attempt::Finished(stdout) => {
                return Supervised {
                    stdout: Some(stdout),
                    died,
                }
            }
            Attempt::Died(how) => {
                eprintln!("ladder: attempt {} died: {how}", died.len() + 1);
                died.push(how);
            }
        }
        let out_of_time = began.elapsed() + MIN_ATTEMPT > SUPERVISION_BUDGET;
        if died.len() > MAX_RETRIES || out_of_time {
            return Supervised { stdout: None, died };
        }
    }
}

/// Spawns this executable on one workload (`run` or `trace`) and waits
/// for it, at most `deadline`.
fn spawn_child(args: &Args, workload: Workload, traced: bool, deadline: Duration) -> Attempt {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return Attempt::Died(format!("cannot find own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.arg(if traced { "trace" } else { "run" })
        .arg(workload.name())
        .args(["--seed", &args.seed.to_string()]);
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
        Err(e) => return Attempt::Died(format!("spawn failed: {e}")),
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
        Err(how) => Attempt::Died(how),
        Ok(status) if status.success() || status.code() == Some(i32::from(EXIT_INCORRECT)) => {
            Attempt::Finished(stdout)
        }
        Ok(status) => {
            use std::os::unix::process::ExitStatusExt;
            Attempt::Died(match status.signal() {
                Some(signal) => format!("killed by signal {signal}"),
                None => format!("exit status {status}"),
            })
        }
    }
}

/// What a supervised workload has to show: the report of the attempt that
/// ran to the end (with the deaths before it) and its result line, or —
/// when every attempt died — the deaths alone.
struct Shown {
    report: String,
    result: Option<(RunResult, String)>,
}

/// Sets the supervisor's own metric in a traced child's result line (the
/// child, which cannot know, prints 0).
fn with_crash_retries(line: &str, retries: usize) -> String {
    let unset = format!("\"{CRASH_RETRIES}\":{{\"value\":0,");
    let set = format!("\"{CRASH_RETRIES}\":{{\"value\":{retries},");
    line.replacen(&unset, &set, 1)
}

fn show(supervised: Supervised) -> Shown {
    let mut report = String::new();
    let mut result = None;
    if let Some(stdout) = &supervised.stdout {
        let (body, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout));
        let line = with_crash_retries(line, supervised.died.len());
        match RunResult::from_json(&line) {
            Ok(parsed) => {
                report.push_str(body);
                report.push('\n');
                result = Some((parsed, line));
            }
            Err(why) => report.push_str(&format!("  no result line: {why}\n")),
        }
    }
    // Printed for untraced runs too, whose result line has no room for it.
    report.push_str(&format!(
        "  {CRASH_RETRIES}: {}{}\n",
        supervised.died.len(),
        supervised
            .died
            .iter()
            .map(|how| format!(" [{how}]"))
            .collect::<String>()
    ));
    Shown { report, result }
}

/// One workload in a supervised child: what `--workload` prints and what
/// `all` loops over.
fn supervised(args: &Args, workload: Workload, traced: bool) -> Shown {
    show(supervise(|left| {
        spawn_child(args, workload, traced, HANG_AFTER.min(left))
    }))
}

/// The driver's contract: the report, result line last.
fn drive(args: &Args, workload: Workload, traced: bool) -> ExitCode {
    let shown = supervised(args, workload, traced);
    print!("{}", shown.report);
    match shown.result {
        Some((_, line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("ladder: {} produced no result", workload.name());
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

/// `ladder all`: every workload untraced then traced, each supervised;
/// prints every metric by name; fails when any check did.
fn all(args: &Args) -> ExitCode {
    println!("ladder all seed={} smoke={}", args.seed, args.smoke);
    println!("host {}", Fingerprint::take().to_json());
    let mut ok = true;
    for workload in Workload::ALL {
        println!("workload {}: {}", workload.name(), workload.why());
        for (traced, declared) in [(false, END_TO_END), (true, PER_LAYER)] {
            let shown = supervised(args, workload, traced);
            print!("{}", shown.report);
            let result = shown.result.map_or_else(
                || {
                    println!(
                        "  {} never completed; reported with ok_share = 0",
                        workload.name()
                    );
                    never_completed(declared)
                },
                |(result, _)| result,
            );
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
    // Medians of layers timed one after the other, not nested: a rung
    // that adds a microsecond or two to the one below it (`Server::knn`
    // over `ShardRouter::search`) can read a little under it.
    for pair in ladder.windows(2) {
        let (outer, inner) = (get(pair[0])?, get(pair[1])?);
        if outer * 1.1 < inner {
            return Err(format!("{} {outer} < {} {inner}", pair[0], pair[1]));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // Before any thread exists and before the pool is first used: the
    // pool reads its width once. Children inherit it.
    std::env::set_var("TRAJCL_THREADS", POOL_LANES);
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
        Mode::Supervised { workload, traced } => drive(&args, workload, traced),
        Mode::Here { workload, traced } => {
            // The program under test runs on threads of this process. A
            // panic on any of them is that program crashing: die with it
            // (SIGABRT) instead of limping on with a worker short, so a
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
            Mode::Supervised {
                workload: Workload::TcpMixedRw,
                traced: true
            }
        );
        assert_eq!((driver.seed, driver.seconds), (7, Some(15)));
        let one = parse_args(&argv(&["trace", "fleet_knn_hot", "--seed", "3", "--smoke"])).unwrap();
        assert_eq!(
            one.mode,
            Mode::Here {
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
    fn a_dead_attempt_is_retried_twice_and_a_finished_one_never() {
        let mut attempts = 0;
        let survived = supervise(|left| {
            assert!(left <= SUPERVISION_BUDGET);
            attempts += 1;
            match attempts {
                1 => Attempt::Died("killed by signal 11".into()),
                2 => Attempt::Died("hung: killed after 50s".into()),
                _ => Attempt::Finished("done".into()),
            }
        });
        assert_eq!(survived.stdout.as_deref(), Some("done"));
        assert_eq!(
            survived.died,
            ["killed by signal 11", "hung: killed after 50s"]
        );

        // An attempt that ran to the end is the measurement, whatever it
        // says: wrong answers are reported, not re-rolled.
        let mut attempts = 0;
        let wrong = supervise(|_| {
            attempts += 1;
            Attempt::Finished("{\"correct\":false}".into())
        });
        assert_eq!(attempts, 1);
        assert_eq!(wrong.stdout.as_deref(), Some("{\"correct\":false}"));
        assert!(wrong.died.is_empty());

        // Dead three times over: nothing to show but the deaths.
        let gone = supervise(|_| Attempt::Died("exit status 101".into()));
        assert_eq!((gone.stdout, gone.died.len()), (None, 3));
    }

    #[test]
    fn the_supervisor_reports_deaths_in_the_report_and_the_traced_result() {
        let traced = RunResult {
            correct: true,
            attempted: 9,
            failed: 0,
            metrics: vec![
                Measured {
                    name: CRASH_RETRIES.into(),
                    value: 0.0,
                    unit: "count".into(),
                },
                Measured {
                    name: "host.calib_mops".into(),
                    value: 512.25,
                    unit: "1/us".into(),
                },
            ],
        };
        let stdout = format!("ladder trace w\n  a rung\n{}\n", traced.to_json());
        let shown = show(Supervised {
            stdout: Some(stdout.clone()),
            died: vec!["killed by signal 6".into(), "hung".into()],
        });
        let (result, line) = shown.result.expect("a result");
        assert_eq!(result.get(CRASH_RETRIES), Some(2.0));
        assert_eq!(result.get("host.calib_mops"), Some(512.25));
        assert!(line.contains("\"client.crash_retries\":{\"value\":2,"));
        assert!(shown.report.starts_with("ladder trace w\n  a rung\n"));
        assert!(shown
            .report
            .contains("client.crash_retries: 2 [killed by signal 6] [hung]"));

        // No death, nothing to patch: the line passes through untouched.
        let calm = show(Supervised {
            stdout: Some(stdout),
            died: Vec::new(),
        });
        assert_eq!(calm.result.expect("a result").1, traced.to_json());
        assert!(calm.report.ends_with("client.crash_retries: 0\n"));

        // Every attempt died: deaths only.
        let gone = show(Supervised {
            stdout: None,
            died: vec!["killed by signal 11".into(); 3],
        });
        assert!(gone.result.is_none());
        assert!(gone.report.contains("client.crash_retries: 3"));
        // A child that ended without a result line has no result either.
        let mute = show(Supervised {
            stdout: Some("panic text\n".into()),
            died: Vec::new(),
        });
        assert!(mute.result.is_none());
        assert!(mute.report.contains("no result line"));
    }

    #[test]
    fn a_workload_that_never_completes_is_reported_not_omitted() {
        let stand_in = never_completed(END_TO_END);
        assert!(!stand_in.correct);
        assert_eq!(stand_in.get("ok_share"), Some(0.0));
        assert_eq!(stand_in.missing(END_TO_END).len(), END_TO_END.len() - 1);
        assert!(RunResult::from_json(&stand_in.to_json()).is_ok());
    }
}
