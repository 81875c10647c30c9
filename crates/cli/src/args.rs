//! Tiny dependency-free argument parser for the `trajcl` CLI.

use std::collections::BTreeMap;

/// Parsed command line: subcommand + `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` pairs.
    pub options: BTreeMap<String, String>,
}

/// Recognised subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParsedCommand {
    /// Generate a synthetic dataset.
    Generate,
    /// Print dataset statistics.
    Stats,
    /// Train a TrajCL model.
    Train,
    /// Embed trajectories with a trained model.
    Embed,
    /// kNN query against a trajectory database.
    Query,
    /// Stream trajectories into a running server over the wire protocol.
    Upsert,
    /// Fine-tune into a heuristic-measure estimator and evaluate it.
    Approx,
    /// Run the concurrent query server over stdin/stdout frames.
    Serve,
    /// Run the decoder fuzzer.
    Audit,
    /// Print usage.
    Help,
}

/// Options that are boolean flags: `--json` takes no value.
const BOOL_FLAGS: &[&str] = &["json", "fuzz", "fuzz-quick", "fail-closed"];

impl Args {
    /// Parses an argv-style list (excluding the program name).
    ///
    /// Returns `Err` with a message on malformed input (option without a
    /// value, unknown leading option, ...). Options listed in
    /// `BOOL_FLAGS` take no value and parse as `"true"`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut it = argv.iter();
        let command = match it.next() {
            Some(c) if !c.starts_with("--") => c.clone(),
            Some(c) => return Err(format!("expected a subcommand, got option {c}")),
            None => "help".to_string(),
        };
        let mut options = BTreeMap::new();
        let rest: Vec<&String> = it.collect();
        let mut i = 0;
        while i < rest.len() {
            let key = rest[i];
            if !key.starts_with("--") {
                return Err(format!("expected --option, got {key}"));
            }
            // Flags like `-k 5` are normalised by the caller to `--k 5`.
            let name = key.trim_start_matches('-').to_string();
            if BOOL_FLAGS.contains(&name.as_str()) {
                options.insert(name, "true".to_string());
                i += 1;
                continue;
            }
            let value = rest
                .get(i + 1)
                .ok_or_else(|| format!("option {key} needs a value"))?;
            options.insert(name, (*value).clone());
            i += 2;
        }
        Ok(Args { command, options })
    }

    /// Whether a boolean flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        matches!(
            self.options.get(key).map(String::as_str),
            Some("true") | Some("1")
        )
    }

    /// The subcommand as an enum.
    pub fn command(&self) -> Result<ParsedCommand, String> {
        match self.command.as_str() {
            "generate" => Ok(ParsedCommand::Generate),
            "stats" => Ok(ParsedCommand::Stats),
            "train" => Ok(ParsedCommand::Train),
            "embed" => Ok(ParsedCommand::Embed),
            "query" => Ok(ParsedCommand::Query),
            "upsert" => Ok(ParsedCommand::Upsert),
            "approx" => Ok(ParsedCommand::Approx),
            "serve" => Ok(ParsedCommand::Serve),
            "audit" => Ok(ParsedCommand::Audit),
            "help" | "-h" | "--help" => Ok(ParsedCommand::Help),
            other => Err(format!("unknown command {other:?}; try `trajcl help`")),
        }
    }

    /// Required string option.
    pub fn req(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Optional string option with default.
    pub fn opt<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(|s| s.as_str()).unwrap_or(default)
    }

    /// Optional numeric option with default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key} has invalid value {v:?}")),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
trajcl — contrastive trajectory similarity learning (TrajCL, ICDE 2023)

USAGE:
  trajcl generate --profile <porto|chengdu|xian|germany> --count N --out FILE [--seed N]
  trajcl stats    --input FILE
  trajcl train    --input FILE --out MODEL [--dim N] [--epochs N] [--batch N] [--seed N]
  trajcl embed    --model MODEL --input FILE --out CSV
  trajcl query    --model MODEL --db FILE --query IDX [--k N] [--index NLIST]
                  [--quantize sq8|pq[:M]] [--rescore-factor N] [--json]
  trajcl query    --connect ADDR --db FILE --query IDX [--k N] [--json]
  trajcl upsert   --connect ADDR --input FILE [--start-id N] [--json]
  trajcl approx   --model MODEL --input FILE --measure <hausdorff|frechet|edr|edwp|dtw>
                  [--pairs N] [--epochs N] [--json]
  trajcl serve    --model MODEL --db FILE [--listen ADDR] [--shards N]
                  [--index NLIST] [--wal DIR]
                  [--quantize sq8|pq[:M]] [--rescore-factor N]
                  [--workers N] [--cache N] [--idle-timeout-ms N]
  trajcl serve    --fleet ADDR1,ADDR2,... [--listen ADDR] [--fail-closed]
                  [--op-deadline-ms N] [--retries N] [--probe-ms N]
                  [--workers N] [--idle-timeout-ms N]
  trajcl audit    [--fuzz | --fuzz-quick] [--cases N] [--repro-dir DIR]

FILES:
  *.traj   one trajectory per line: `x,y x,y ...` (meters)
  *.tcl    persisted engine (TCE1): encoder weights + featurizer (grid +
           cell table) + query settings (nprobe, batch size, index
           description); how it is served is `serve`'s flags alone

All commands run through the unified trajcl-engine API; `--json` emits one
machine-readable JSON object per line instead of the human-readable report.
A command rejects any option it does not list above.

`--quantize sq8` stores indexed vectors as int8 codes (4x smaller) and
quantizes the query too, scanning codes with one portable integer
kernel, the same on every CPU (TRAJCL_FORCE_SCALAR=1 pins only the
encoder's f32 kernels to their portable copy); `--quantize pq[:M]`
stores M 4-bit product-quantized codes per vector, two per byte
(default M=8). `--quantize` needs `--index NLIST` (it describes the IVF
index). `query` and `serve` read these three flags the same way and
build the same served index, so `query` answers what a one-shard
`serve` with the same flags answers.
Quantized hits are rescored: the top `--rescore-factor` x k candidates
are re-ranked against the engine's exact f32 embeddings, so database
rows keep exact distances (ids upserted through a server keep
quantized, error-bounded ones).

`serve` speaks length-prefixed JSON frames (`LEN\\n{...}\\n`): ops ping,
embed, knn, distance, upsert, remove, compact, stats (PROTOCOL.md at
the repo root is the normative wire spec). By default frames flow over
stdin/stdout (logs go to stderr; stdout carries only frames). With
`--listen HOST:PORT` (or `--listen unix:PATH`) the server instead
accepts any number of TCP / unix-socket connections and runs until
stdin closes. `--shards N` partitions the mutable index into N
hash-on-id shards so writes on different shards never contend
(default 1). Responses may arrive out of order; pass a numeric
\"req\" field to match them up.
`--workers N` caps the forward passes running at once (each cache miss
runs its own on the thread that read its request) and the pipelined
requests each connection runs at once (a lock-step connection is
answered on one thread); `--cache N` sets the embedding-cache entries
(0 disables it).
`--idle-timeout-ms N` reaps sessions quiet for N ms (0 disables).
`--wal DIR` makes writes durable: every upsert/remove/compact is
appended to a per-shard write-ahead log under DIR and fsync'd before it
is acknowledged; on restart with the same DIR the server recovers the
last checkpoint plus the log tail, so no acknowledged write is ever
lost (DESIGN.md §15; the README shows a recovery transcript).

`serve --fleet` runs the front-end router instead: no model or db — it
scatters the same wire protocol across the listed downstream shard
servers (each a `serve --listen` process), routing writes by id hash
and merging knn exactly. Shards are health-tracked (up/degraded/down,
background ping probes); downstream calls carry deadlines and
`--retries N` retries with backoff. Reads from a degraded fleet answer
with \"partial\":true plus shards_ok/shards_total, or error in-band
under `--fail-closed`. `--op-deadline-ms` bounds each downstream
call's total budget; `--probe-ms` sets the prober cadence. See
DESIGN.md §14 and the README operator's guide.

`query --connect` and `upsert --connect` are thin clients for a
listening server: they speak the same frames over the same address
syntax, so nothing needs a local model file.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let a = Args::parse(&argv("train --input d.traj --epochs 4")).unwrap();
        assert_eq!(a.command().unwrap(), ParsedCommand::Train);
        assert_eq!(a.req("input").unwrap(), "d.traj");
        assert_eq!(a.num::<usize>("epochs", 1).unwrap(), 4);
        assert_eq!(a.num::<usize>("batch", 32).unwrap(), 32);
    }

    #[test]
    fn empty_argv_is_help() {
        let a = Args::parse(&[]).unwrap();
        assert_eq!(a.command().unwrap(), ParsedCommand::Help);
    }

    #[test]
    fn rejects_missing_values_and_unknown_commands() {
        assert!(Args::parse(&argv("train --input")).is_err());
        assert!(Args::parse(&argv("--input x")).is_err());
        let a = Args::parse(&argv("frobnicate")).unwrap();
        assert!(a.command().is_err());
    }

    #[test]
    fn req_reports_missing_option() {
        let a = Args::parse(&argv("stats")).unwrap();
        assert!(a.req("input").unwrap_err().contains("--input"));
    }

    #[test]
    fn num_rejects_garbage() {
        let a = Args::parse(&argv("train --epochs banana")).unwrap();
        assert!(a.num::<usize>("epochs", 1).is_err());
    }

    #[test]
    fn json_flag_takes_no_value() {
        let a = Args::parse(&argv("query --json --k 3")).unwrap();
        assert!(a.flag("json"));
        assert_eq!(a.num::<usize>("k", 5).unwrap(), 3);
        let a = Args::parse(&argv("query --k 3 --json")).unwrap();
        assert!(a.flag("json"));
        let a = Args::parse(&argv("query --k 3")).unwrap();
        assert!(!a.flag("json"));
    }
}
