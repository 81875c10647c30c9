//! Subcommand implementations for the `trajcl` CLI.
//!
//! Every command drives the unified [`trajcl_engine::Engine`] API and
//! propagates the typed [`EngineError`] — no stringly-typed plumbing.

use crate::args::{Args, ParsedCommand, USAGE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write as _;
use std::path::Path;
use trajcl_core::{FinetuneConfig, FinetuneScope, TrajClConfig};
use trajcl_data::{hit_ratio, load_trajectory_file, save_trajectory_file, Dataset, DatasetProfile};
use trajcl_engine::{Engine, EngineError, Quantization};
use trajcl_geo::Trajectory;
use trajcl_measures::{pairwise_distances, HeuristicMeasure};
use trajcl_nn::PairRegression;
use trajcl_serve::proto::traj_json;
use trajcl_serve::{ServeConfig, Server};

/// Runs a parsed command; returns the process exit code. (`Send` because
/// `serve` fans request handling out across threads that share `out`.)
pub fn run(args: &Args, out: &mut (impl std::io::Write + Send)) -> i32 {
    match execute(args, out) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            1
        }
    }
}

fn execute(args: &Args, out: &mut (impl std::io::Write + Send)) -> Result<(), EngineError> {
    match args.command().map_err(EngineError::InvalidInput)? {
        ParsedCommand::Help => {
            only(args, "help", &[])?;
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        ParsedCommand::Generate => generate(args, out),
        ParsedCommand::Stats => stats(args, out),
        ParsedCommand::Train => train_cmd(args, out),
        ParsedCommand::Embed => embed(args, out),
        ParsedCommand::Query => query(args, out),
        ParsedCommand::Upsert => upsert_remote(args, out),
        ParsedCommand::Approx => approx(args, out),
        ParsedCommand::Serve => serve(args, out),
        ParsedCommand::Audit => audit_cmd(args, out),
    }
}

/// `trajcl audit`: the decoder fuzzer.
///
/// `--fuzz-quick` (100k cases/target, also the default) and `--fuzz`
/// (400k cases/target) set the depth, and `--cases N` overrides it.
/// Reproducers for fuzz failures land in `--repro-dir` (default
/// `target/audit-repros`).
fn audit_cmd(args: &Args, out: &mut impl std::io::Write) -> Result<(), EngineError> {
    only(args, "audit", &["fuzz fuzz-quick cases repro-dir"])?;
    let default_cases = if args.flag("fuzz") { 400_000 } else { 100_000 };
    let report = trajcl_audit::fuzz::run_all(&trajcl_audit::FuzzOptions {
        cases_per_target: num(args, "cases", default_cases)?,
        repro_dir: Some(args.opt("repro-dir", "target/audit-repros").into()),
    });
    for t in &report.targets {
        writeln!(
            out,
            "fuzz {}: {} cases ({} accepted, {} rejected), {} panic(s)",
            t.name, t.cases, t.accepted, t.rejected, t.panics
        )?;
        for path in &t.repro_paths {
            writeln!(out, "  reproducer: {}", path.display())?;
        }
    }
    if !report.passed() {
        return Err(invalid(format!(
            "audit failed: {} fuzz panic(s)",
            report.total_panics()
        )));
    }
    writeln!(out, "audit: PASS")?;
    Ok(())
}

fn invalid(msg: impl Into<String>) -> EngineError {
    EngineError::InvalidInput(msg.into())
}

fn req<'a>(args: &'a Args, key: &str) -> Result<&'a str, EngineError> {
    args.req(key).map_err(invalid)
}

fn num<T: std::str::FromStr>(args: &Args, key: &str, default: T) -> Result<T, EngineError> {
    args.num(key, default).map_err(invalid)
}

/// Rejects every option `command` does not read, so a typo (`--shard 4`)
/// or a retired flag fails instead of being silently ignored. `known` is
/// exactly what the command's code reads, as space-separated names.
fn only(args: &Args, command: &str, known: &[&str]) -> Result<(), EngineError> {
    let read = |k: &String| known.iter().flat_map(|g| g.split(' ')).any(|o| o == k);
    match args.options.keys().find(|k| !read(k)) {
        Some(k) => Err(invalid(format!(
            "unknown option --{k} for {command} (see trajcl help)"
        ))),
        None => Ok(()),
    }
}

fn parse_profile(name: &str) -> Result<DatasetProfile, EngineError> {
    match name.to_lowercase().as_str() {
        "porto" => Ok(DatasetProfile::Porto),
        "chengdu" => Ok(DatasetProfile::Chengdu),
        "xian" | "xi'an" => Ok(DatasetProfile::Xian),
        "germany" => Ok(DatasetProfile::Germany),
        other => Err(invalid(format!("unknown profile {other:?}"))),
    }
}

fn parse_measure(name: &str) -> Result<HeuristicMeasure, EngineError> {
    match name.to_lowercase().as_str() {
        "hausdorff" => Ok(HeuristicMeasure::Hausdorff),
        "frechet" => Ok(HeuristicMeasure::Frechet),
        "edr" => Ok(HeuristicMeasure::Edr(100.0)),
        "edwp" => Ok(HeuristicMeasure::Edwp),
        "dtw" => Ok(HeuristicMeasure::Dtw),
        other => Err(invalid(format!("unknown measure {other:?}"))),
    }
}

/// Loads a persisted engine (the `TCE1` file `trajcl train` writes).
fn load_engine(path: &str) -> Result<Engine, EngineError> {
    Engine::from_bytes(&std::fs::read(path)?)
}

fn generate(args: &Args, out: &mut impl std::io::Write) -> Result<(), EngineError> {
    only(args, "generate", &["profile count seed out"])?;
    let profile = parse_profile(req(args, "profile")?)?;
    let count: usize = num(args, "count", 1000)?;
    let seed: u64 = num(args, "seed", 0)?;
    let path = req(args, "out")?;
    let dataset = Dataset::generate(profile, count, seed);
    save_trajectory_file(Path::new(path), &dataset.trajectories)?;
    let s = dataset.stats();
    writeln!(
        out,
        "wrote {} trajectories to {path} (avg {:.0} pts, avg {:.2} km)",
        s.count, s.avg_points, s.avg_length_km
    )?;
    Ok(())
}

fn stats(args: &Args, out: &mut impl std::io::Write) -> Result<(), EngineError> {
    only(args, "stats", &["input"])?;
    let trajs = load_trajectory_file(Path::new(req(args, "input")?))?;
    if trajs.is_empty() {
        return Err(EngineError::EmptyBatch);
    }
    let n = trajs.len();
    let pts: usize = trajs.iter().map(|t| t.len()).sum();
    let max_pts = trajs.iter().map(|t| t.len()).max().unwrap_or(0);
    let total_km: f64 = trajs.iter().map(|t| t.length() / 1000.0).sum();
    let max_km = trajs
        .iter()
        .map(|t| t.length() / 1000.0)
        .fold(0.0, f64::max);
    writeln!(out, "#trajectories            {n}")?;
    writeln!(out, "avg points / trajectory  {:.1}", pts as f64 / n as f64)?;
    writeln!(out, "max points / trajectory  {max_pts}")?;
    writeln!(out, "avg length (km)          {:.2}", total_km / n as f64)?;
    writeln!(out, "max length (km)          {max_km:.2}")?;
    Ok(())
}

/// Builds a dataset wrapper around loaded trajectories so the featurizer
/// helper can be reused.
fn dataset_from(trajs: Vec<Trajectory>) -> Dataset {
    let mut region = trajs[0].bbox();
    for t in &trajs[1..] {
        region = region.union(&t.bbox());
    }
    Dataset {
        profile: DatasetProfile::Porto,
        trajectories: trajs,
        region,
    }
}

fn train_cmd(args: &Args, out: &mut impl std::io::Write) -> Result<(), EngineError> {
    only(args, "train", &["input out dim epochs batch seed"])?;
    let trajs = load_trajectory_file(Path::new(req(args, "input")?))?;
    if trajs.len() < 8 {
        return Err(EngineError::TooFewTrajectories {
            needed: 8,
            got: trajs.len(),
        });
    }
    let seed: u64 = num(args, "seed", 0)?;
    let mut cfg = TrajClConfig::scaled_default();
    cfg.dim = num(args, "dim", 32)?;
    cfg.ffn_hidden = cfg.dim * 2;
    cfg.proj_dim = (cfg.dim / 2).max(8);
    cfg.max_epochs = num(args, "epochs", 3)?;
    cfg.batch_size = num(args, "batch", 32)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let dataset = dataset_from(trajs);
    writeln!(
        out,
        "building featurizer (grid + node2vec) and training TrajCL (dim={}, epochs<={})...",
        cfg.dim, cfg.max_epochs
    )?;
    let engine = Engine::builder()
        .train_trajcl(&dataset, &cfg, &mut rng)?
        .batch_size(cfg.batch_size)
        .build()?;
    let report = engine
        .train_report()
        .expect("builder-trained engine has a report");
    writeln!(
        out,
        "trained {} epochs in {:.1}s (final loss {:.4})",
        report.epochs_run,
        report.seconds,
        report.epoch_losses.last().copied().unwrap_or(f32::NAN)
    )?;
    let path = req(args, "out")?;
    engine.save(Path::new(path))?;
    writeln!(out, "saved engine to {path}")?;
    Ok(())
}

fn embed(args: &Args, out: &mut impl std::io::Write) -> Result<(), EngineError> {
    only(args, "embed", &["model input out"])?;
    let engine = load_engine(req(args, "model")?)?;
    let trajs = load_trajectory_file(Path::new(req(args, "input")?))?;
    let emb = engine.embed_all(&trajs)?;
    let path = req(args, "out")?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in 0..emb.shape().rows() {
        // `{v}` is the shortest text that parses back to the same f32.
        let row: Vec<String> = emb.row(r).iter().map(|v| format!("{v}")).collect();
        writeln!(file, "{}", row.join(","))?;
    }
    file.flush()?;
    writeln!(
        out,
        "wrote {} x {} embeddings to {path}",
        trajs.len(),
        engine.dim()
    )?;
    Ok(())
}

/// One kNN hit as a JSON line (schema: rank, index, distance, points, km).
fn json_hit_line(rank: usize, id: u64, dist: f64, points: usize, km: f64) -> String {
    format!(
        "{{\"rank\":{rank},\"index\":{id},\"distance\":{dist:.6},\"points\":{points},\"km\":{km:.3}}}"
    )
}

/// The approx summary as a JSON line (schema: measure, k, hr, queries,
/// database).
fn json_approx_line(measure: &str, k: usize, hr: f64, queries: usize, database: usize) -> String {
    format!(
        "{{\"measure\":\"{measure}\",\"k\":{k},\"hr\":{hr:.4},\"queries\":{queries},\"database\":{database}}}"
    )
}

/// The options [`index_flags`] reads.
const INDEX_FLAGS: &str = "model db index quantize rescore-factor";

/// The `--model` engine over the `--db` trajectories that `query` and
/// `serve` build their server from, its index description overridden by
/// `--index NLIST`, `--quantize` (`sq8` | `pq[:M]` | `none`) and
/// `--rescore-factor N`. A `--quantize` value is checked before any file
/// is opened. Without `--index` (or cells in the engine file), quantized
/// storage lives in a one-list IVF, so the scan stays exhaustive.
fn index_flags(args: &Args) -> Result<Engine, EngineError> {
    let quantization = args
        .options
        .get("quantize")
        .map(|v| v.parse::<Quantization>())
        .transpose()
        .map_err(invalid)?;
    let engine = load_engine(req(args, "model")?)?;
    let mut opts = *engine.index_options();
    if args.options.contains_key("index") {
        opts.nlist = Some(num::<usize>(args, "index", 16)?.max(1));
    }
    if let Some(quantization) = quantization {
        opts.quantization = quantization;
    }
    opts.rescore_factor = num(args, "rescore-factor", opts.rescore_factor)?;
    let db = load_trajectory_file(Path::new(req(args, "db")?))?;
    engine.with_index_options(opts).with_database(db)
}

/// `trajcl query`: database row `--query`'s `k` nearest other rows, from
/// the index a one-shard `serve` with the same flags would answer from.
fn query(args: &Args, out: &mut impl std::io::Write) -> Result<(), EngineError> {
    if args.options.contains_key("connect") {
        return query_remote(args, out);
    }
    only(args, "query", &[INDEX_FLAGS, "query k json"])?;
    let engine = index_flags(args)?;
    let qi: usize = num(args, "query", 0)?;
    let k: usize = num(args, "k", 5)?;
    let Some(traj) = engine.database().get(qi).cloned() else {
        let len = engine.database().len();
        return Err(EngineError::QueryOutOfRange { index: qi, len });
    };
    let cfg = ServeConfig {
        cache_cap: 0,
        ..ServeConfig::default()
    };
    let server = Server::new(std::sync::Arc::new(engine), cfg)?;
    // The query row is indexed too: one more hit, then drop it.
    let hits: Vec<(u64, f64)> = server
        .knn(&traj, k + 1)?
        .into_iter()
        .filter(|&(id, _)| id != qi as u64)
        .take(k)
        .collect();
    let db = server.engine().database();
    if !args.flag("json") {
        writeln!(out, "top-{k} similar to trajectory {qi}:")?;
    }
    for (rank, (id, dist)) in (1..).zip(hits) {
        let t = &db[id as usize];
        let (points, km) = (t.len(), t.length() / 1000.0);
        if args.flag("json") {
            writeln!(out, "{}", json_hit_line(rank, id, dist, points, km))?;
        } else {
            writeln!(
                out,
                "  #{rank} idx={id} L1={dist:.4} ({points} pts, {km:.2} km)"
            )?;
        }
    }
    Ok(())
}

/// Parses a response frame, turning the in-band `{"ok":false,...}` error
/// convention into an [`EngineError`].
fn parse_response(reply: &str) -> Result<trajcl_serve::json::Json, EngineError> {
    let v = trajcl_serve::json::parse(reply)
        .map_err(|e| invalid(format!("malformed response from server: {e}")))?;
    if v.get("ok") == Some(&trajcl_serve::json::Json::Bool(true)) {
        return Ok(v);
    }
    let msg = v
        .get("error")
        .and_then(|e| e.as_str())
        .unwrap_or("request failed");
    Err(invalid(format!("server error: {msg}")))
}

/// `trajcl query --connect ADDR`: the kNN runs on a listening server
/// over the wire protocol (`PROTOCOL.md`) — no local model needed; the
/// `--db` file only supplies the query trajectory.
fn query_remote(args: &Args, out: &mut impl std::io::Write) -> Result<(), EngineError> {
    only(args, "query --connect", &["connect db query k json"])?;
    let addr = req(args, "connect")?;
    let db = load_trajectory_file(Path::new(req(args, "db")?))?;
    let qi: usize = num(args, "query", 0)?;
    let traj = db.get(qi).ok_or_else(|| {
        invalid(format!(
            "--query {qi} out of range ({} trajectories in the file)",
            db.len()
        ))
    })?;
    let k: usize = num(args, "k", 5)?;
    let mut client = trajcl_serve::Client::connect(addr)?;
    let reply = client.call(&format!(
        "{{\"op\":\"knn\",\"traj\":{},\"k\":{k}}}",
        traj_json(traj)
    ))?;
    let v = parse_response(&reply)?;
    let hits = v
        .get("hits")
        .and_then(|h| h.as_arr())
        .ok_or_else(|| invalid("knn response carries no \"hits\""))?;
    // Fleet front-ends mark degraded answers (PROTOCOL.md §7); surface
    // the marker instead of letting a narrower answer pass as full.
    let partial = v.get("partial") == Some(&trajcl_serve::json::Json::Bool(true));
    let shards_ok = v.get("shards_ok").and_then(|x| x.as_u64());
    let shards_total = v.get("shards_total").and_then(|x| x.as_u64());
    if !args.flag("json") {
        let note = match (partial, shards_ok, shards_total) {
            (true, Some(ok), Some(total)) => {
                format!("; PARTIAL: {ok}/{total} shards answered")
            }
            _ => String::new(),
        };
        writeln!(
            out,
            "top-{k} similar to trajectory {qi} (served by {addr}{note}):"
        )?;
    }
    for h in hits {
        let rank = h.get("rank").and_then(|x| x.as_u64());
        let id = h.get("index").and_then(|x| x.as_u64());
        let dist = h.get("distance").and_then(|x| x.as_f64());
        let (Some(rank), Some(id), Some(dist)) = (rank, id, dist) else {
            return Err(invalid("malformed hit row in knn response"));
        };
        if args.flag("json") {
            writeln!(
                out,
                "{{\"rank\":{rank},\"index\":{id},\"distance\":{dist:.6}}}"
            )?;
        } else {
            writeln!(out, "  #{rank} idx={id} L1={dist:.4}")?;
        }
    }
    // In --json mode a degraded answer appends one trailer object, so
    // line-oriented consumers can't mistake a partial answer for full.
    if args.flag("json") && partial {
        if let (Some(ok), Some(total)) = (shards_ok, shards_total) {
            writeln!(
                out,
                "{{\"partial\":true,\"shards_ok\":{ok},\"shards_total\":{total}}}"
            )?;
        }
    }
    Ok(())
}

/// `trajcl upsert --connect ADDR`: streams every trajectory in `--input`
/// into a listening server as upsert frames with ids `--start-id..`,
/// awaiting each ack (writes are acknowledged, never fire-and-forget).
fn upsert_remote(args: &Args, out: &mut impl std::io::Write) -> Result<(), EngineError> {
    only(args, "upsert", &["connect input start-id json"])?;
    let addr = req(args, "connect")?;
    let trajs = load_trajectory_file(Path::new(req(args, "input")?))?;
    let start: u64 = num(args, "start-id", 0)?;
    let mut client = trajcl_serve::Client::connect(addr)?;
    let mut replaced = 0usize;
    for (i, t) in trajs.iter().enumerate() {
        let reply = client.call(&format!(
            "{{\"op\":\"upsert\",\"id\":{},\"traj\":{}}}",
            start + i as u64,
            traj_json(t)
        ))?;
        let v = parse_response(&reply)?;
        if v.get("replaced") == Some(&trajcl_serve::json::Json::Bool(true)) {
            replaced += 1;
        }
    }
    if args.flag("json") {
        writeln!(
            out,
            "{{\"upserted\":{},\"replaced\":{replaced},\"start_id\":{start}}}",
            trajs.len()
        )?;
    } else {
        writeln!(
            out,
            "upserted {} trajectories as ids {start}..{} ({replaced} replaced)",
            trajs.len(),
            start + trajs.len() as u64
        )?;
    }
    Ok(())
}

/// The `--idle-timeout-ms` option: `0` disables reaping, absent keeps
/// `default`.
fn idle_timeout_opt(
    args: &Args,
    default: Option<std::time::Duration>,
) -> Result<Option<std::time::Duration>, EngineError> {
    if !args.options.contains_key("idle-timeout-ms") {
        return Ok(default);
    }
    let ms: u64 = num(args, "idle-timeout-ms", 0)?;
    Ok((ms > 0).then(|| std::time::Duration::from_millis(ms)))
}

/// Builds the serving runtime `trajcl serve` runs from CLI options;
/// returns it with the handler-thread count.
fn build_server(args: &Args) -> Result<(Server, usize), EngineError> {
    let serve_flags = "listen shards wal workers cache idle-timeout-ms";
    only(args, "serve", &[INDEX_FLAGS, serve_flags])?;
    let engine = index_flags(args)?;
    let mut cfg = ServeConfig::default();
    cfg.workers = num(args, "workers", cfg.workers)?;
    cfg.cache_cap = num(args, "cache", cfg.cache_cap)?;
    if args.options.contains_key("shards") {
        cfg.shards = Some(num::<usize>(args, "shards", 1)?.max(1));
    }
    cfg.session.idle_timeout = idle_timeout_opt(args, cfg.session.idle_timeout)?;
    // Asking for --wal means asking for the ack-implies-durable
    // contract: WalConfig::new is full fsync durability.
    cfg.wal = args.options.get("wal").map(trajcl_serve::WalConfig::new);
    let handlers = cfg.workers.max(1);
    Ok((Server::new(std::sync::Arc::new(engine), cfg)?, handlers))
}

/// Builds the serving runtime from CLI options, then serves protocol
/// frames (see [`serve_frames`]). With `--fleet` the process is instead
/// the front-end router over downstream shard servers — no model or
/// database of its own.
fn serve(args: &Args, out: &mut (impl std::io::Write + Send)) -> Result<(), EngineError> {
    if args.options.contains_key("fleet") {
        return serve_fleet(args, out);
    }
    let (server, handlers) = build_server(args)?;
    if let Some(rec) = server.wal_recovery() {
        eprintln!(
            "trajcl serve: WAL recovery replayed {} checkpoint row(s) + {} log op(s), \
             discarded {} torn byte(s)",
            rec.checkpoint_rows, rec.replayed_ops, rec.truncated_bytes
        );
    }
    let stats = server.stats();
    let what = format!(
        "{} vectors indexed across {} shard(s), {handlers} workers",
        stats.index_len, stats.shards
    );
    let server = std::sync::Arc::new(server);
    let session = server.session_options();
    serve_frames(args, out, &server, handlers, session, &what)?;
    server.shutdown();
    Ok(())
}

/// `trajcl serve --fleet A,B,...`: the front-end router. Dials the
/// downstream shard servers, health-tracks them, and serves the same
/// wire protocol — scattering reads, routing writes by id hash, and
/// degrading to `"partial":true` answers when shards are down (or
/// erroring under `--fail-closed`). See DESIGN.md §14.
fn serve_fleet(args: &Args, out: &mut (impl std::io::Write + Send)) -> Result<(), EngineError> {
    let fleet_flags = "fleet listen fail-closed op-deadline-ms retries probe-ms";
    only(
        args,
        "serve --fleet",
        &[fleet_flags, "workers idle-timeout-ms"],
    )?;
    let addrs: Vec<String> = req(args, "fleet")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let mut cfg = trajcl_serve::FleetConfig {
        fail_closed: args.flag("fail-closed"),
        ..trajcl_serve::FleetConfig::default()
    };
    let deadline_ms = num(args, "op-deadline-ms", cfg.op_deadline.as_millis() as u64)?;
    cfg.op_deadline = std::time::Duration::from_millis(deadline_ms);
    cfg.retries = num(args, "retries", cfg.retries)?;
    let probe_ms = num(args, "probe-ms", cfg.probe_interval.as_millis() as u64)?;
    cfg.probe_interval = std::time::Duration::from_millis(probe_ms.max(1));
    let fleet = std::sync::Arc::new(trajcl_serve::Fleet::connect(&addrs, cfg)?);
    let up = fleet
        .health()
        .iter()
        .filter(|h| **h == trajcl_serve::ShardHealth::Up)
        .count();
    let handlers = num(args, "workers", 4usize)?.max(1);
    let session = trajcl_serve::SessionOptions {
        idle_timeout: idle_timeout_opt(args, trajcl_serve::SessionOptions::default().idle_timeout)?,
        ..trajcl_serve::SessionOptions::default()
    };
    let what = format!(
        "fleet front-end over {} shard(s) ({up} up)",
        fleet.shards_total()
    );
    serve_frames(args, out, &fleet, handlers, session, &what)?;
    fleet.shutdown();
    Ok(())
}

/// Serves protocol frames from `handler` (a shard server or a fleet
/// front-end — both announce themselves as `what`): on a TCP /
/// unix-socket listener with `--listen`, which runs until stdin closes
/// (Ctrl-D interactively, or the parent process closing the pipe /
/// sending SIGTERM); otherwise between stdin and `out` until
/// end-of-stream — [`trajcl_serve::net::pump_frames`] over standard
/// streams, exactly the loop every connection runs.
fn serve_frames<H: trajcl_serve::FrameHandler + 'static>(
    args: &Args,
    out: &mut (impl std::io::Write + Send),
    handler: &std::sync::Arc<H>,
    handlers: usize,
    session: trajcl_serve::SessionOptions,
    what: &str,
) -> Result<(), EngineError> {
    let stdin = std::io::stdin();
    let Some(addr) = args.options.get("listen") else {
        eprintln!("trajcl serve: {what}; reading frames from stdin");
        let mut input = std::io::BufReader::new(stdin); // `StdinLock` is not `Send`
        trajcl_serve::net::pump_frames(&**handler, &mut input, out, handlers)?;
        return Ok(());
    };
    let net = trajcl_serve::listen_with(std::sync::Arc::clone(handler), addr, handlers, session)?;
    eprintln!("trajcl serve: {what}; listening on {}", net.local_addr());
    std::io::copy(&mut stdin.lock(), &mut std::io::sink())?;
    net.shutdown();
    Ok(())
}

fn approx(args: &Args, out: &mut impl std::io::Write) -> Result<(), EngineError> {
    only(args, "approx", &["model input measure pairs epochs json"])?;
    let engine = load_engine(req(args, "model")?)?;
    let trajs = load_trajectory_file(Path::new(req(args, "input")?))?;
    if trajs.len() < 20 {
        return Err(EngineError::TooFewTrajectories {
            needed: 20,
            got: trajs.len(),
        });
    }
    let measure = parse_measure(req(args, "measure")?)?;
    let json = args.flag("json");
    let mut rng = StdRng::seed_from_u64(1);
    let split = trajs.len() * 7 / 10;
    if !json {
        writeln!(
            out,
            "fine-tuning towards {} on {split} trajectories...",
            measure.name()
        )?;
    }
    let cfg = FinetuneConfig {
        scope: FinetuneScope::LastLayer,
        train: PairRegression {
            pairs_per_epoch: num(args, "pairs", 128)?,
            batch_pairs: 16,
            epochs: num(args, "epochs", 2)?,
            lr: 2e-3,
        },
    };
    let estimator = engine.approximate_measure(measure, &trajs[..split], &cfg, &mut rng)?;
    // Evaluate HR@5 on the held-out tail.
    let eval = &trajs[split..];
    let nq = (eval.len() / 4).max(2);
    let (queries, database) = eval.split_at(nq);
    let true_d = pairwise_distances(queries, database, measure);
    let qe = estimator.embed_all(queries)?;
    let de = estimator.embed_all(database)?;
    let pred = trajcl_core::l1_distances(&qe, &de);
    let mut hr = 0.0;
    let dbn = database.len();
    for q in 0..nq {
        hr += hit_ratio(
            &true_d[q * dbn..(q + 1) * dbn],
            &pred[q * dbn..(q + 1) * dbn],
            5,
        );
    }
    let hr = hr / nq as f64;
    if json {
        writeln!(out, "{}", json_approx_line(measure.name(), 5, hr, nq, dbn))?;
    } else {
        writeln!(out, "HR@5 approximating {}: {hr:.3}", measure.name())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_of(line: &str) -> Args {
        let argv: Vec<String> = line.split_whitespace().map(|s| s.to_string()).collect();
        Args::parse(&argv).unwrap()
    }

    fn run_cmd(line: &str) -> (i32, String) {
        let mut out = Vec::new();
        let code = run(&args_of(line), &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("trajcl_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Pedestrian JSON-object check: one `{...}` per line with the given
    /// keys, no nesting (the CLI promises flat objects).
    fn assert_json_lines(text: &str, keys: &[&str]) {
        assert!(!text.trim().is_empty(), "no JSON lines emitted");
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not an object: {line}"
            );
            for key in keys {
                assert!(
                    line.contains(&format!("\"{key}\":")),
                    "missing key {key}: {line}"
                );
            }
        }
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_cmd("help");
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let (code, out) = run_cmd("bogus --x 1");
        assert_eq!(code, 1);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn options_a_command_does_not_read_are_rejected() {
        // Retired serving and index knobs, a retired quantization
        // spelling and a typo of `--epochs` fail before any file is
        // opened, naming what was wrong.
        let unknown = |option: &str, command: &str| {
            format!("unknown option {option} for {command} (see trajcl help)")
        };
        for (line, want) in [
            (
                "serve --model m.tcl --db d.traj --max-batch 64",
                unknown("--max-batch", "serve"),
            ),
            (
                "train --input d.traj --out m.tcl --epoch 3",
                unknown("--epoch", "train"),
            ),
            (
                "serve --fleet 127.0.0.1:1 --cache 8",
                unknown("--cache", "serve --fleet"),
            ),
            (
                "query --model m.tcl --db d.traj --query 0 --index 4 --scan symmetric",
                unknown("--scan", "query"),
            ),
            (
                "query --model m.tcl --db d.traj --query 0 --index 4 --quantize pq4",
                "unknown quantization \"pq4\" (try sq8, pq or pq:M)".to_string(),
            ),
        ] {
            let (code, out) = run_cmd(line);
            assert_eq!(code, 1, "{line}: {out}");
            assert!(out.contains(&want), "{line}: {out}");
        }
    }

    #[test]
    fn fleet_with_no_reachable_shard_errors_fast() {
        // Both "shards" refuse connections (port 1 is never listening);
        // startup must fail within the connect deadline instead of
        // hanging, and without demanding --model/--db.
        let start = std::time::Instant::now();
        let (code, out) =
            run_cmd("serve --fleet 127.0.0.1:1,127.0.0.1:1 --fail-closed --retries 0");
        assert_eq!(code, 1, "{out}");
        assert!(out.starts_with("error:"), "{out}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "startup failure took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn fleet_with_empty_address_list_errors() {
        let (code, out) = run_cmd("serve --fleet , --retries 0");
        assert_eq!(code, 1);
        assert!(out.contains("at least one shard"), "{out}");
    }

    #[test]
    fn generate_then_stats() {
        let path = tmp("gen.traj");
        let (code, out) = run_cmd(&format!(
            "generate --profile porto --count 30 --out {}",
            path.display()
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("wrote 30 trajectories"));
        let (code, out) = run_cmd(&format!("stats --input {}", path.display()));
        assert_eq!(code, 0);
        assert!(out.contains("#trajectories            30"));
    }

    #[test]
    fn full_train_embed_query_pipeline() {
        let data = tmp("pipeline.traj");
        let model = tmp("pipeline.tcl");
        let emb = tmp("pipeline.csv");
        let (code, out) = run_cmd(&format!(
            "generate --profile porto --count 40 --out {}",
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&format!(
            "train --input {} --out {} --dim 16 --epochs 1 --batch 8",
            data.display(),
            model.display()
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("saved engine"));
        let (code, out) = run_cmd(&format!(
            "embed --model {} --input {} --out {}",
            model.display(),
            data.display(),
            emb.display()
        ));
        assert_eq!(code, 0, "{out}");
        let lines = std::fs::read_to_string(&emb).unwrap();
        assert_eq!(lines.lines().count(), 40);
        // Every CSV value parses back to the bits the engine embeds.
        let want = load_engine(model.to_str().unwrap())
            .unwrap()
            .embed_all(&load_trajectory_file(&data).unwrap())
            .unwrap();
        for (r, line) in lines.lines().enumerate() {
            let got: Vec<u32> = line
                .split(',')
                .map(|v| v.parse::<f32>().unwrap().to_bits())
                .collect();
            let bits: Vec<u32> = want.row(r).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, bits, "row {r}");
        }
        let (code, out) = run_cmd(&format!(
            "query --model {} --db {} --query 0 --k 3",
            model.display(),
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("top-3 similar"));

        // The same query through the IVF index route, as JSON lines.
        let (code, out) = run_cmd(&format!(
            "query --model {} --db {} --query 0 --k 3 --index 4 --json",
            model.display(),
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        assert_json_lines(&out, &["rank", "index", "distance", "points", "km"]);
        assert_eq!(out.lines().count(), 3);

        // And through SQ8-quantized storage with exact rescoring.
        let (code, out) = run_cmd(&format!(
            "query --model {} --db {} --query 0 --k 3 --index 4 --quantize sq8 --rescore-factor 8 --json",
            model.display(),
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        assert_json_lines(&out, &["rank", "index", "distance", "points", "km"]);
        assert_eq!(out.lines().count(), 3);

        // And through PQ product-quantized storage (4 subspaces over the
        // 16-d embeddings, exact rescoring against the cached table).
        let (code, out) = run_cmd(&format!(
            "query --model {} --db {} --query 0 --k 3 --index 4 --quantize pq:4 --rescore-factor 8 --json",
            model.display(),
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        assert_json_lines(&out, &["rank", "index", "distance", "points", "km"]);
        assert_eq!(out.lines().count(), 3);

        // Unknown quantization is rejected with a parse error.
        let (code, out) = run_cmd(&format!(
            "query --model {} --db {} --query 0 --quantize pq9",
            model.display(),
            data.display()
        ));
        assert_eq!(code, 1);
        assert!(out.contains("unknown quantization"));

        // A malformed PQ subspace count is rejected too.
        let (code, out) = run_cmd(&format!(
            "query --model {} --db {} --query 0 --index 4 --quantize pq:zero",
            model.display(),
            data.display()
        ));
        assert_eq!(code, 1);
        assert!(out.contains("subspace"));

        // The query row never answers itself, and a row past the end of
        // the file is an error.
        let (code, out) = run_cmd(&format!(
            "query --model {} --db {} --query 7 --k 39 --json",
            model.display(),
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        assert_eq!(out.lines().count(), 39);
        assert!(!out.contains("\"index\":7,"), "{out}");
        let (code, out) = run_cmd(&format!(
            "query --model {} --db {} --query 40",
            model.display(),
            data.display()
        ));
        assert_eq!(code, 1);
        assert!(out.contains("query index 40 out of range (40 trajectories)"));

        // --quantize without --index quantizes a one-list IVF.
        let (code, out) = run_cmd(&format!(
            "query --model {} --db {} --query 0 --k 4 --quantize sq8 --json",
            model.display(),
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        assert_json_lines(&out, &["rank", "index", "distance", "points", "km"]);
        assert_eq!(out.lines().count(), 4);
    }

    #[test]
    fn train_rejects_tiny_input() {
        let data = tmp("tiny.traj");
        std::fs::write(&data, "1,2 3,4\n").unwrap();
        let (code, out) = run_cmd(&format!("train --input {} --out /dev/null", data.display()));
        assert_eq!(code, 1);
        assert!(out.contains("at least 8"));
    }

    #[test]
    fn json_line_schemas_are_stable() {
        let hit = json_hit_line(1, 42, 0.25, 17, 1.234);
        assert_eq!(
            hit,
            "{\"rank\":1,\"index\":42,\"distance\":0.250000,\"points\":17,\"km\":1.234}"
        );
        let approx = json_approx_line("Hausdorff", 5, 0.75, 4, 9);
        assert_eq!(
            approx,
            "{\"measure\":\"Hausdorff\",\"k\":5,\"hr\":0.7500,\"queries\":4,\"database\":9}"
        );
        assert_json_lines(&hit, &["rank", "index", "distance", "points", "km"]);
        assert_json_lines(&approx, &["measure", "k", "hr", "queries", "database"]);
    }

    #[test]
    fn pumped_session_answers_frames() {
        use trajcl_serve::proto::{read_frame, write_frame};

        let data = tmp("serve.traj");
        let model = tmp("serve.tcl");
        let (code, out) = run_cmd(&format!(
            "generate --profile porto --count 24 --out {}",
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&format!(
            "train --input {} --out {} --dim 16 --epochs 1 --batch 8",
            data.display(),
            model.display()
        ));
        assert_eq!(code, 0, "{out}");

        let engine = load_engine(&model.display().to_string())
            .unwrap()
            .with_database(trajcl_data::load_trajectory_file(std::path::Path::new(&data)).unwrap())
            .unwrap();
        let server = Server::new(std::sync::Arc::new(engine), ServeConfig::default()).unwrap();

        // A pipelined session: knn, upsert, remove, stats, one bad frame.
        let mut input = Vec::new();
        let q = "{\"req\":1,\"op\":\"knn\",\"traj\":[[0,0],[500,300],[900,900]],\"k\":3}";
        write_frame(&mut input, q).unwrap();
        write_frame(
            &mut input,
            "{\"req\":2,\"op\":\"upsert\",\"id\":1000,\"traj\":[[1,1],[2,2]]}",
        )
        .unwrap();
        write_frame(&mut input, "{\"req\":3,\"op\":\"remove\",\"id\":1000}").unwrap();
        write_frame(&mut input, "{\"req\":4,\"op\":\"stats\"}").unwrap();
        write_frame(&mut input, "{\"req\":5,\"op\":\"frobnicate\"}").unwrap();
        let mut output = Vec::new();
        // One handler: the upsert/remove pair on id 1000 is order-dependent
        // (a pipelined client would await the upsert ack before removing).
        trajcl_serve::net::pump_frames(
            &server,
            &mut std::io::BufReader::new(&input[..]),
            &mut output,
            1,
        )
        .unwrap();
        server.shutdown();

        let mut reader = &output[..];
        let mut responses = Vec::new();
        while let Some(frame) = read_frame(&mut reader).unwrap() {
            responses.push(frame);
        }
        assert_eq!(responses.len(), 5);
        let find = |req: usize| {
            responses
                .iter()
                .find(|r| r.contains(&format!("\"req\":{req},")))
                .unwrap_or_else(|| panic!("no response for req {req}"))
        };
        assert!(find(1).contains("\"ok\":true") && find(1).contains("\"hits\":["));
        assert!(find(2).contains("\"replaced\":false"));
        assert!(find(3).contains("\"removed\":true"));
        assert!(find(4).contains("\"size\":24"));
        assert!(find(5).contains("\"ok\":false"));

        // `serve` reads the index flags through the helper `query` uses:
        // the description reaches the engine and every shard, rescore
        // factor included.
        let (server, _) = build_server(&args_of(&format!(
            "serve --model {} --db {} --index 4 --quantize sq8 --rescore-factor 8 --shards 2",
            model.display(),
            data.display()
        )))
        .unwrap();
        for s in 0..2 {
            let opts = server.index().shard(s).options();
            assert_eq!(opts.rescore_factor, 8);
            assert_eq!(opts.quantization, Quantization::Sq8);
            assert_eq!(opts.nlist, Some(4));
        }
        assert_eq!(server.engine().index_options().nlist, Some(4));
        server.shutdown();
        // `--quantize` without `--index` reaches every shard too.
        let (server, _) = build_server(&args_of(&format!(
            "serve --model {} --db {} --quantize sq8",
            model.display(),
            data.display()
        )))
        .unwrap();
        let opts = server.index().shard(0).options();
        assert_eq!(opts.quantization, Quantization::Sq8);
        assert_eq!(opts.nlist, None);
        server.shutdown();
    }

    #[test]
    fn pumped_session_recovers_from_wal_across_restart() {
        use trajcl_serve::proto::{read_frame, write_frame};

        let data = tmp("walserve.traj");
        let model = tmp("walserve.tcl");
        let wal_dir = tmp("walserve.wal");
        let _ = std::fs::remove_dir_all(&wal_dir);
        let (code, out) = run_cmd(&format!(
            "generate --profile porto --count 24 --out {}",
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&format!(
            "train --input {} --out {} --dim 16 --epochs 1 --batch 8",
            data.display(),
            model.display()
        ));
        assert_eq!(code, 0, "{out}");

        let build = || {
            load_engine(&model.display().to_string())
                .unwrap()
                .with_database(
                    trajcl_data::load_trajectory_file(std::path::Path::new(&data)).unwrap(),
                )
                .unwrap()
        };
        let wal_cfg = || ServeConfig {
            wal: Some(trajcl_serve::WalConfig::new(&wal_dir)),
            ..ServeConfig::default()
        };

        // First life: upsert over the wire (the ack implies the record
        // is fsync-durable), then die without compacting — the write
        // exists only in the log.
        {
            let server = Server::new(std::sync::Arc::new(build()), wal_cfg()).unwrap();
            assert!(server.wal_recovery().is_some());
            let mut input = Vec::new();
            write_frame(
                &mut input,
                "{\"req\":1,\"op\":\"upsert\",\"id\":1000,\"traj\":[[1,1],[2,2]]}",
            )
            .unwrap();
            write_frame(&mut input, "{\"req\":2,\"op\":\"stats\"}").unwrap();
            let mut output = Vec::new();
            trajcl_serve::net::pump_frames(
                &server,
                &mut std::io::BufReader::new(&input[..]),
                &mut output,
                1,
            )
            .unwrap();
            server.shutdown();
            let text = String::from_utf8(output).unwrap();
            assert!(text.contains("\"replaced\":false"), "{text}");
            assert!(!text.contains("\"wal_log_bytes\":0,"), "{text}");
        }

        // Second life, same WAL dir: recovery must replay the upsert.
        let server = Server::new(std::sync::Arc::new(build()), wal_cfg()).unwrap();
        let rec = server.wal_recovery().expect("wal recovery ran");
        assert_eq!(rec.replayed_ops, 1, "the logged upsert replays");
        let mut input = Vec::new();
        write_frame(&mut input, "{\"req\":1,\"op\":\"stats\"}").unwrap();
        write_frame(&mut input, "{\"req\":2,\"op\":\"remove\",\"id\":1000}").unwrap();
        let mut output = Vec::new();
        trajcl_serve::net::pump_frames(
            &server,
            &mut std::io::BufReader::new(&input[..]),
            &mut output,
            1,
        )
        .unwrap();
        server.shutdown();
        let mut reader = &output[..];
        let mut responses = Vec::new();
        while let Some(frame) = read_frame(&mut reader).unwrap() {
            responses.push(frame);
        }
        let find = |req: usize| {
            responses
                .iter()
                .find(|r| r.contains(&format!("\"req\":{req},")))
                .unwrap_or_else(|| panic!("no response for req {req}"))
        };
        // 24 seeded + the recovered upsert.
        assert!(find(1).contains("\"size\":25"), "{}", find(1));
        assert!(find(2).contains("\"removed\":true"), "{}", find(2));
        let _ = std::fs::remove_dir_all(&wal_dir);
    }

    #[test]
    fn query_and_upsert_connect_to_a_listening_server() {
        let data = tmp("client.traj");
        let model = tmp("client.tcl");
        let (code, out) = run_cmd(&format!(
            "generate --profile porto --count 24 --out {}",
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&format!(
            "train --input {} --out {} --dim 16 --epochs 1 --batch 8",
            data.display(),
            model.display()
        ));
        assert_eq!(code, 0, "{out}");

        // A sharded server on a free TCP port, exactly as `trajcl serve
        // --listen 127.0.0.1:0 --shards 2` builds one.
        let engine = load_engine(&model.display().to_string())
            .unwrap()
            .with_database(trajcl_data::load_trajectory_file(std::path::Path::new(&data)).unwrap())
            .unwrap();
        let cfg = ServeConfig {
            shards: Some(2),
            ..ServeConfig::default()
        };
        let server = std::sync::Arc::new(Server::new(std::sync::Arc::new(engine), cfg).unwrap());
        let net =
            trajcl_serve::net::listen(std::sync::Arc::clone(&server), "127.0.0.1:0", 1).unwrap();
        let addr = net.local_addr().to_string();

        // kNN through the wire: same JSON line shape as the local query.
        let (code, out) = run_cmd(&format!(
            "query --connect {addr} --db {} --query 0 --k 3 --json",
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        assert_json_lines(&out, &["rank", "index", "distance"]);
        assert_eq!(out.lines().count(), 3);

        // Stream the whole file back in as ids 1000.. and replace one.
        let (code, out) = run_cmd(&format!(
            "upsert --connect {addr} --input {} --start-id 1000",
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("upserted 24 trajectories as ids 1000..1024 (0 replaced)"));
        let (code, out) = run_cmd(&format!(
            "upsert --connect {addr} --input {} --start-id 1000 --json",
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("{\"upserted\":24,\"replaced\":24,\"start_id\":1000}"));

        // An out-of-range query index fails client-side with a clear message.
        let (code, out) = run_cmd(&format!(
            "query --connect {addr} --db {} --query 99",
            data.display()
        ));
        assert_eq!(code, 1);
        assert!(out.contains("out of range"));

        net.shutdown();
        server.shutdown();
    }

    #[test]
    fn query_connect_prints_an_id_past_2_pow_53_exactly() {
        let data = tmp("bigid.traj");
        let model = tmp("bigid.tcl");
        let (code, out) = run_cmd(&format!(
            "generate --profile porto --count 12 --out {}",
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&format!(
            "train --input {} --out {} --dim 16 --epochs 1 --batch 8",
            data.display(),
            model.display()
        ));
        assert_eq!(code, 0, "{out}");
        let engine = load_engine(&model.display().to_string())
            .unwrap()
            .with_database(trajcl_data::load_trajectory_file(std::path::Path::new(&data)).unwrap())
            .unwrap();
        let server = std::sync::Arc::new(
            Server::new(std::sync::Arc::new(engine), ServeConfig::default()).unwrap(),
        );
        let net =
            trajcl_serve::net::listen(std::sync::Arc::clone(&server), "127.0.0.1:0", 1).unwrap();
        let addr = net.local_addr().to_string();

        // Row 0 again as id 2^53 + 1, the first integer an f64 rounds: the
        // query for row 0 ties it with row 0 at distance 0.
        let big = (1u64 << 53) + 1;
        let (code, out) = run_cmd(&format!(
            "upsert --connect {addr} --input {} --start-id {big}",
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&format!(
            "query --connect {addr} --db {} --query 0 --k 2 --json",
            data.display()
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains(&format!("\"index\":{big},")), "{out}");

        net.shutdown();
        server.shutdown();
    }

    #[test]
    fn measure_parsing() {
        assert!(parse_measure("hausdorff").is_ok());
        assert!(parse_measure("EDWP").is_ok());
        assert!(parse_measure("cosine").is_err());
        assert!(parse_profile("germany").is_ok());
        assert!(parse_profile("mars").is_err());
    }
}
