//! `exp` regenerates the paper's tables and figures (§V), one subcommand
//! per artifact plus `all`:
//!
//! ```text
//! exp <artifact|all> [--train N] [--db N] [--queries N] [--pool N] [--profiles all]
//! ```
//!
//! Each artifact prints its table and writes `results/<name>.json` (Fig. 1
//! also its SVGs). Every artifact reads one shared [`Zoo`]: an environment
//! per (profile, dim) and the models of each profile's recipe, each built
//! once per run. A run ends by printing what it built, and exits non-zero
//! when any artifact was not written.

mod figs;
mod tables;

use std::io;
use std::process::ExitCode;
use std::time::Instant;
use trajcl_bench::harness::{Args, Zoo};

/// Prints one artifact and writes its files.
type Report = fn(&mut Zoo) -> io::Result<()>;

/// Every artifact, in the order `exp all` builds them.
const REPORTS: [(&str, Report); 19] = [
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("table5", tables::table5),
    ("table6", tables::table6),
    ("table7", tables::table7),
    ("table8", tables::table8),
    ("table9", tables::table9),
    ("table10", tables::table10),
    ("fig1", figs::fig1),
    ("fig5", figs::fig5),
    ("fig6", figs::fig6),
    ("fig7", figs::fig7),
    ("fig8", figs::fig8),
    ("fig9", figs::fig9),
    ("fig10", figs::fig10),
    ("fig11", figs::fig11),
    ("fig12", figs::fig12),
];

const USAGE: &str =
    "usage: exp <artifact|all> [--train N] [--db N] [--queries N] [--pool N] [--profiles all]
artifacts: table1 ... table10, fig1, fig5 ... fig12 (see the trajcl-bench crate docs)";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let chosen: Vec<&(&str, Report)> = REPORTS
        .iter()
        .filter(|(name, _)| args.command == "all" || *name == args.command)
        .collect();
    if chosen.is_empty() {
        eprintln!("error: unknown artifact {}\n{USAGE}", args.command);
        return ExitCode::from(2);
    }

    let mut zoo = Zoo::new(args.scale, args.all_profiles);
    let mut failed = Vec::new();
    for (name, report) in chosen {
        let t0 = Instant::now();
        if let Err(e) = report(&mut zoo) {
            eprintln!("error: {name} not written: {e}");
            failed.push(*name);
        }
        eprintln!("exp: {name} took {:.1} s", t0.elapsed().as_secs_f64());
    }
    let built = zoo.counts;
    println!(
        "exp: built {} envs, ran {} train_all and {} TrajCL-only trainings",
        built.envs, built.zoos, built.trajcl
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: artifacts not written: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
