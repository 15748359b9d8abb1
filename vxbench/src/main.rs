//! `vxbench` — the repository's benchmark: one seeded harness, six named
//! workloads, end-to-end and per-layer metrics (`README.md` beside this
//! crate has the tables and how to read them).
//!
//! ```text
//! vxbench --workload NAME --seed N --seconds S --trace 0|1     the form BENCHMARK.json runs
//! vxbench run (--workload NAME | --all) --seed N [--seconds S | --ops N]
//!             [--trace] [--smoke] [--out FILE]
//! vxbench list
//! vxbench agree A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! A run has two sides. This process is the generator: it makes the
//! inputs from the seed, checks the workload's queries against the
//! differential oracle, and afterwards checks what was left on disk. The
//! measured side is a fresh child (`vxbench exec`, which for
//! `serve.mixed` starts `vx serve` in turn) that receives only the
//! generated files.

mod exec;
mod gen;
mod serve;
mod spec;
mod trace;
mod util;

use exec::{err, ExecArgs, Limit, Res};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use util::{as_f64, num, obj, text};
use vx_core::json::{self, Json};

/// Set-ups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark's directory sits in the repository root")
}

/// `--name value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, name: &str) -> Res<Option<String>> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Res<Option<T>> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad {name} value `{v}`")),
        }
    }

    fn flag(&mut self, name: &str) -> bool {
        let found = self.0.iter().position(|a| a == name);
        found.map(|at| self.0.remove(at)).is_some()
    }

    fn done(self) -> Res<Vec<String>> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown flag `{unknown}`")),
            None => Ok(self.0),
        }
    }
}

/// Removes every `VX_*` variable, so that this process and its children
/// measure the default configuration; returns the names dropped.
fn strip_env() -> Vec<String> {
    let dropped: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("VX_"))
        .collect();
    for name in &dropped {
        std::env::remove_var(name);
    }
    dropped
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// What every output records about the run's circumstances.
fn meta(seed: u64, smoke: bool, dropped: &[String]) -> Json {
    let unknown = || "unknown".to_string();
    obj(vec![
        ("seed", num(seed as f64)),
        ("smoke", Json::Bool(smoke)),
        (
            "commit",
            text(&command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "rustc",
            text(&command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "flush_policy",
            text(
                "WAL fdatasync per append batch; compaction fsyncs the generation and the manifest",
            ),
        ),
        ("setup_rounds", num(SETUP_ROUNDS as f64)),
        (
            "dropped_env",
            Json::Array(dropped.iter().map(|name| text(name)).collect()),
        ),
    ])
}

/// The directory this executable was built into (`…/release`).
fn exe_dir() -> Res<PathBuf> {
    let exe = std::env::current_exe().map_err(err("current_exe"))?;
    Ok(exe
        .parent()
        .expect("an executable sits in a directory")
        .to_path_buf())
}

/// The sibling `vx` binary, built from the checkout into the same target
/// directory with the same profile when `build` is set.
fn sibling_vx(build: bool) -> Res<PathBuf> {
    let dir = exe_dir()?;
    if build {
        let target = dir
            .parent()
            .ok_or("executable is not inside a target directory")?;
        let mut cargo = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
        cargo
            .args(["build", "--quiet", "--bin", "vx", "--target-dir"])
            .arg(target);
        if dir.file_name().is_some_and(|name| name == "release") {
            cargo.arg("--release");
        }
        let status = cargo
            .current_dir(repo_root())
            .stdout(Stdio::null())
            .status()
            .map_err(err("running cargo"))?;
        if !status.success() {
            return Err(format!("building `vx` in {} failed", repo_root().display()));
        }
    }
    Ok(dir.join("vx"))
}

struct RunConfig {
    seed: u64,
    limit: Limit,
    trace: bool,
    smoke: bool,
    /// Where the traced child writes its spans.
    trace_out: Option<PathBuf>,
}

/// One workload's results, as they go into `--out` and the last line.
struct Outcome {
    attempted: u64,
    failed: u64,
    n: u64,
    end_to_end: Vec<(String, f64)>,
    per_layer: Vec<(String, f64)>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("n", num(self.n as f64)),
            ("metrics", util::metrics_json(&self.end_to_end, unit_of)),
        ];
        if !self.per_layer.is_empty() {
            fields.push(("per_layer", util::metrics_json(&self.per_layer, unit_of)));
        }
        obj(fields)
    }

    /// The one JSON object the driver reads: end-to-end metrics of an
    /// untraced run, per-layer metrics of a traced one.
    fn last_line(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        util::to_line(&obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", util::metrics_json(metrics, unit_of)),
        ]))
    }
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .chain(&spec::PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn limit_args(flag: &str, limit: Limit) -> [String; 2] {
    match limit {
        Limit::Seconds(s) => [format!("--{flag}seconds"), s.to_string()],
        Limit::Ops(n) => [format!("--{flag}ops"), n.to_string()],
    }
}

/// What one set-up round came to; `result` is the child's result line if
/// the round went on to measure.
struct Round {
    setup_s: f64,
    generate_ms: f64,
    oracle: (u64, u64),
    result: Option<Json>,
}

/// One set-up round: generate, check against the oracle, start the
/// measured child and wait for its `READY`.
fn round(workload: &str, config: &RunConfig, dir: &Path, vx: &Path, measure: bool) -> Res<Round> {
    let started = Instant::now();
    gen::generate(workload, config.seed, config.smoke, dir)?;
    let generate_ms = started.elapsed().as_secs_f64() * 1e3;
    let oracle = gen::oracle_check(workload, config.seed, config.smoke)?;

    let mut command = Command::new(std::env::current_exe().map_err(err("current_exe"))?);
    command
        .args(["exec", "--workload", workload, "--dir"])
        .arg(dir)
        .arg("--vx")
        .arg(vx);
    if measure {
        let (untraced, traced) = match (config.trace, config.limit) {
            (false, limit) => (limit, None),
            // A traced run splits its time: the untraced half is what the
            // traced half's overhead is measured against.
            (true, Limit::Seconds(s)) => (Limit::Seconds(s / 2.0), Some(Limit::Seconds(s / 2.0))),
            (true, Limit::Ops(n)) => (Limit::Ops(n), Some(Limit::Ops((n / 4).max(1)))),
        };
        command.args(limit_args("", untraced));
        if let Some(traced) = traced {
            command.args(limit_args("traced-", traced));
        }
        if let Some(path) = &config.trace_out {
            command.arg("--trace-out").arg(path);
        }
    } else {
        command.arg("--setup-only");
    }
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(err("starting the measured child"))?;
    let mut lines = BufReader::new(child.stdout.take().expect("piped")).lines();
    let ready = lines
        .next()
        .is_some_and(|line| line.is_ok_and(|l| l == "READY"));
    let setup_s = started.elapsed().as_secs_f64();
    let last = lines.map_while(Result::ok).last();
    let status = child
        .wait()
        .map_err(err("waiting for the measured child"))?;
    if !ready || !status.success() {
        return Err(format!("the measured child failed ({status})"));
    }
    let result = match (measure, last) {
        (false, _) => None,
        (true, Some(line)) => Some(json::parse(&line).map_err(err("child result"))?),
        (true, None) => return Err("the measured child printed no result".into()),
    };
    Ok(Round {
        setup_s,
        generate_ms,
        oracle,
        result,
    })
}

fn run_workload(workload: &str, config: &RunConfig, vx: &Path) -> Res<Outcome> {
    let scratch = exe_dir()?.join("vxbench-scratch").join(format!(
        "{workload}-{}-{}",
        config.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = run_in(workload, config, vx, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn run_in(workload: &str, config: &RunConfig, vx: &Path, scratch: &Path) -> Res<Outcome> {
    // Every round sets up in the same directory, over the files of the
    // round before. Rewriting a store's files costs the same each time;
    // creating them afresh and deleting them costs anything between a
    // fifth and twice as much on the sandbox's ext4, depending on how many
    // files were deleted in the last half minute (a TB ingest's write
    // phase read 25, 105, 200 and 250 ms in four successive probes, 135 ms
    // every time when rewriting). The median of five is a rewriting round.
    let dir = scratch;
    let mut setups = Vec::new();
    let mut generates = Vec::new();
    let mut last = None;
    for r in 0..SETUP_ROUNDS {
        let round = round(workload, config, dir, vx, r + 1 == SETUP_ROUNDS)?;
        setups.push(round.setup_s);
        generates.push(round.generate_ms);
        last = Some(round);
    }
    let round = last.expect("the last round measures");
    let result = round.result.expect("the measuring round has a result");
    let count = |name: &str| result.get(name).and_then(Json::as_u64).unwrap_or(0);
    let appended = count("appended");
    let outputs = gen::check_outputs(workload, config.seed, config.smoke, dir, appended)?;

    let mut end_to_end = vec![("setup_s".to_string(), util::median(&setups))];
    let values = |key: &str| -> Vec<(String, f64)> {
        result
            .get(key)
            .map(util::fields)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(name, value)| Some((name.clone(), as_f64(value)?)))
            .collect()
    };
    end_to_end.extend(values("metrics"));
    let mut per_layer = Vec::new();
    if config.trace {
        let mut layers = values("layers");
        layers.push(("data.generate_ms".to_string(), util::median(&generates)));
        // Every per-layer metric by name, in the order of the list; a
        // layer the workload does not exercise reports 0.
        per_layer = spec::PER_LAYER
            .iter()
            .map(|m| {
                let value = layers
                    .iter()
                    .find(|(name, _)| name == m.name)
                    .map_or(0.0, |l| l.1);
                (m.name.to_string(), value)
            })
            .collect();
    }
    Ok(Outcome {
        attempted: count("attempted") + count("traced_attempted") + round.oracle.0 + outputs.0,
        failed: count("failed") + count("traced_failed") + round.oracle.1 + outputs.1,
        n: count("n"),
        end_to_end,
        per_layer,
    })
}

fn print_outcome(workload: &str, outcome: &Outcome) {
    println!(
        "{workload}: {} operations timed, {} of {} checks failed",
        outcome.n, outcome.failed, outcome.attempted
    );
    for (name, value) in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("  {name:<28} {value:>14.4} {}", unit_of(name));
    }
}

/// `run` and the driver's bare-flag form.
fn run(mut flags: Flags) -> Res<bool> {
    let dropped = strip_env();
    if !dropped.is_empty() {
        eprintln!(
            "vxbench: dropped from the environment: {}",
            dropped.join(" ")
        );
    }
    let seed: u64 = flags.parsed("--seed")?.ok_or("--seed is required")?;
    let smoke = flags.flag("--smoke");
    let all = flags.flag("--all");
    let workload = flags.value("--workload")?;
    let seconds: Option<f64> = flags.parsed("--seconds")?;
    let ops: Option<u64> = flags.parsed("--ops")?;
    // `--trace` alone, or `--trace 0|1` as the driver passes it.
    let trace = match flags.0.iter().position(|a| a == "--trace") {
        None => false,
        Some(at) => match flags.0.get(at + 1).map(String::as_str) {
            Some("0") | Some("1") => flags.parsed::<u8>("--trace")? == Some(1),
            _ => flags.flag("--trace"),
        },
    };
    let out: Option<PathBuf> = flags.value("--out")?.map(PathBuf::from);
    flags.done()?;
    let limit = match (seconds, ops, smoke) {
        (Some(_), Some(_), _) => return Err("--seconds and --ops exclude each other".into()),
        (Some(s), None, _) if s > 0.0 => Limit::Seconds(s),
        (Some(_), None, _) => return Err("--seconds must be positive".into()),
        (None, Some(n), _) if n > 0 => Limit::Ops(n),
        (None, Some(_), _) => return Err("--ops must be positive".into()),
        (None, None, true) => Limit::Ops(8),
        (None, None, false) => Limit::Seconds(8.0),
    };
    let names: Vec<&str> = match (&workload, all) {
        (Some(name), false) => {
            let known = spec::WORKLOADS.iter().find(|w| w.name == name);
            vec![
                known
                    .ok_or_else(|| format!("unknown workload `{name}` (see `vxbench list`)"))?
                    .name,
            ]
        }
        (None, true) => spec::WORKLOADS.iter().map(|w| w.name).collect(),
        _ => return Err("give one of --workload NAME and --all".into()),
    };
    // A smoke run takes the `vx` binary as it finds it; a real run builds
    // it from the checkout first, so that it measures this source.
    let vx = sibling_vx(!smoke)?;

    let mut results = Vec::new();
    let mut correct = true;
    for name in names {
        if name == "serve.mixed" && !vx.exists() {
            println!(
                "serve.mixed: skipped, no `vx` binary beside {}",
                exe_dir()?.display()
            );
            continue;
        }
        let config = RunConfig {
            seed,
            limit,
            trace,
            smoke,
            trace_out: out.as_ref().filter(|_| trace).map(|out| {
                let mut path = out.clone().into_os_string();
                path.push(format!(".{name}.trace.json"));
                PathBuf::from(path)
            }),
        };
        let outcome = run_workload(name, &config, &vx)?;
        print_outcome(name, &outcome);
        correct &= outcome.failed == 0;
        results.push((name, outcome));
    }
    if let Some(out) = &out {
        let doc = obj(vec![
            ("bench", text("vxbench")),
            ("meta", meta(seed, smoke, &dropped)),
            (
                "workloads",
                Json::Object(
                    results
                        .iter()
                        .map(|(name, o)| (name.to_string(), o.to_json()))
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(out, json::to_string_pretty(&doc))
            .map_err(err(&out.display().to_string()))?;
    }
    for (_, outcome) in &results {
        println!("{}", outcome.last_line(trace));
    }
    Ok(correct)
}

fn list() {
    println!("workloads:");
    for w in &spec::WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    for (title, metrics) in [
        ("end-to-end", &spec::END_TO_END[..]),
        ("per-layer", &spec::PER_LAYER[..]),
    ] {
        println!("{title} metrics:");
        for m in metrics {
            println!(
                "  {:<28} {:<6} {} is better",
                m.name,
                m.unit,
                m.better.as_str()
            );
        }
    }
}

/// `agree A.json B.json`: every end-to-end metric of every workload in
/// both outputs must differ by no more than its bound in
/// `BENCHMARK.json`. Returns whether they agree.
fn agree(mut flags: Flags) -> Res<bool> {
    let spec_path = flags
        .value("--spec")?
        .map_or_else(|| repo_root().join("BENCHMARK.json"), PathBuf::from);
    let files = flags.done()?;
    let [a, b] = files.as_slice() else {
        return Err("usage: vxbench agree A.json B.json [--spec BENCHMARK.json]".into());
    };
    let load = |path: &Path| -> Res<Json> {
        let text = std::fs::read_to_string(path).map_err(err(&path.display().to_string()))?;
        json::parse(&text).map_err(err(&path.display().to_string()))
    };
    let spec = load(&spec_path)?;
    let (a, b) = (load(Path::new(a))?, load(Path::new(b))?);
    let value = |doc: &Json, workload: &str, metric: &str| {
        doc.get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(metric)?
            .get("value")
            .and_then(as_f64)
    };
    let mut agreed = true;
    let workloads = a.get("workloads").map(util::fields).unwrap_or(&[]);
    if workloads.is_empty() {
        return Err("the first file holds no workloads".into());
    }
    for (workload, _) in workloads {
        for metric in spec
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .ok_or("spec: metric without a name")?;
            let bound = metric
                .get("bound")
                .and_then(as_f64)
                .ok_or("spec: metric without a bound")?;
            let (Some(x), Some(y)) = (value(&a, workload, name), value(&b, workload, name)) else {
                println!("MISSING  {name} x {workload}");
                agreed = false;
                continue;
            };
            let apart = (y - x).abs() / x.abs();
            let verdict = if apart <= bound {
                "ok      "
            } else {
                "DIFFERS "
            };
            agreed &= apart <= bound;
            println!(
                "{verdict} {name} x {workload}: {x:.4} vs {y:.4}, {:.1} % apart, bound {:.0} %",
                apart * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(agreed)
}

fn exec_args(mut flags: Flags) -> Res<ExecArgs> {
    let limit = |flags: &mut Flags, prefix: &str| -> Res<Option<Limit>> {
        let seconds: Option<f64> = flags.parsed(&format!("--{prefix}seconds"))?;
        let ops: Option<u64> = flags.parsed(&format!("--{prefix}ops"))?;
        Ok(seconds.map(Limit::Seconds).or(ops.map(Limit::Ops)))
    };
    let args = ExecArgs {
        workload: flags
            .value("--workload")?
            .ok_or("exec: --workload is required")?,
        dir: flags
            .value("--dir")?
            .ok_or("exec: --dir is required")?
            .into(),
        vx: flags.value("--vx")?.ok_or("exec: --vx is required")?.into(),
        setup_only: flags.flag("--setup-only"),
        limit: limit(&mut flags, "")?.unwrap_or(Limit::Ops(1)),
        traced: limit(&mut flags, "traced-")?,
        trace_out: flags.value("--trace-out")?.map(PathBuf::from),
    };
    flags.done()?;
    Ok(args)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        // The driver appends its flags straight to the command.
        Some(first) if first.starts_with("--") => "run".to_string(),
        Some(_) => args.remove(0),
        None => "help".to_string(),
    };
    let flags = Flags(args);
    let outcome = match command.as_str() {
        "run" => run(flags),
        "exec" => exec_args(flags)
            .and_then(|args| exec::exec(&args))
            .map(|()| true),
        "agree" => agree(flags),
        "list" => {
            list();
            Ok(true)
        }
        _ => {
            eprintln!(
                "usage: vxbench run (--workload NAME | --all) --seed N [--seconds S | --ops N] [--trace] [--smoke] [--out FILE]\n       vxbench list\n       vxbench agree A.json B.json [--spec BENCHMARK.json]"
            );
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("vxbench: {message}");
            ExitCode::from(1)
        }
    }
}
