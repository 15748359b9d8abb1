//! `serve.mixed`: the real `vx serve` binary as a child process, driven in
//! a closed loop by keep-alive clients that each follow a generated
//! request schedule.
//!
//! Closed loop because each caller waits for its reply before it sends
//! the next request and the server hands a worker to each connection: two
//! clients on two workers is the most load the server takes without
//! queueing connections. The memory reported is the server's.

use crate::exec::{self, err, ExecArgs, Layers, Limit, Phase, Res};
use crate::spec::{self, SERVE_CLIENTS};
use crate::trace::Tracer;
use crate::util::{self, as_f64, Fingerprint};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use vx_core::json::{self, Json};

/// One keep-alive connection.
struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Res<Client> {
        let stream = TcpStream::connect(addr).map_err(err("connect"))?;
        // A request is two writes (head, body); without this every one
        // would wait out the delayed-ACK timer instead of the server.
        stream.set_nodelay(true).map_err(err("nodelay"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(err("timeout"))?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// One exchange: `(status, body)`.
    fn request(&mut self, method: &str, path: &str, body: &str) -> Res<(u16, String)> {
        let what = format!("{method} {path}");
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nhost: vx\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body.as_bytes());
        self.reader
            .get_mut()
            .write_all(&message)
            .map_err(err(&what))?;

        let mut line = String::new();
        self.reader.read_line(&mut line).map_err(err(&what))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{what}: bad status line {line:?}"))?;
        let mut length = None;
        loop {
            line.clear();
            self.reader.read_line(&mut line).map_err(err(&what))?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| format!("{what}: no content-length"))?;
        let mut bytes = vec![0; length];
        self.reader.read_exact(&mut bytes).map_err(err(&what))?;
        String::from_utf8(bytes)
            .map(|body| (status, body))
            .map_err(err(&what))
    }
}

/// What a scheduled request's answer is held against.
enum Expect {
    /// Status 200 is all (`/stats`, `/metrics`).
    Status,
    /// The answer the server gave to the same body during warm-up.
    WarmUp,
    /// An answer the generator worked out from the DOM on its own.
    Exactly(Fingerprint),
}

struct Request {
    method: String,
    path: String,
    expect: Expect,
    body: String,
}

/// Reads one client's schedule: `method \t path \t expect \t body` per
/// line, `expect` being `-`, `warm` or `cardinality:fnv`.
fn read_schedule(path: &Path) -> Res<Vec<Request>> {
    let name = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(err(&name))?;
    text.lines()
        .map(|line| {
            let mut parts = line.splitn(4, '\t');
            let mut next = || parts.next().ok_or_else(|| format!("{name}: short line"));
            let (method, path, expect, body) = (next()?, next()?, next()?, next()?);
            let expect = match expect {
                "-" => Expect::Status,
                "warm" => Expect::WarmUp,
                exact => {
                    let parsed = exact.split_once(':').and_then(|(c, f)| {
                        Some(Fingerprint {
                            cardinality: c.parse().ok()?,
                            fnv: u64::from_str_radix(f, 16).ok()?,
                        })
                    });
                    Expect::Exactly(parsed.ok_or_else(|| format!("{name}: bad expect `{exact}`"))?)
                }
            };
            Ok(Request {
                method: method.to_string(),
                path: path.to_string(),
                expect,
                body: body.to_string(),
            })
        })
        .collect()
}

/// The fingerprint of a `/query` answer: its `values`, or its `xml`.
fn answer_fingerprint(answer: &Json) -> Option<Fingerprint> {
    if let Some(xml) = answer.get("xml").and_then(Json::as_str) {
        return Some(Fingerprint::of_xml(xml));
    }
    let values: Vec<&str> = answer
        .get("values")?
        .as_array()?
        .iter()
        .map(Json::as_str)
        .collect::<Option<_>>()?;
    Some(Fingerprint::of_values(&values))
}

/// A running `vx serve`.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn start(vx: &Path, stores: &[std::path::PathBuf]) -> Res<Server> {
        let mut child = Command::new(vx)
            .arg("serve")
            .args(stores)
            .args([
                "--threads",
                &SERVE_CLIENTS.to_string(),
                "--addr",
                "127.0.0.1:0",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(err(&vx.display().to_string()))?;
        // The readiness line carries the resolved address:
        // `vx serve: listening on http://127.0.0.1:PORT (…)`.
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("vx serve did not announce an address: {line:?}"))
            }
        }
    }

    fn stats(&self) -> Res<Json> {
        let (status, body) = Client::connect(self.addr)?.request("GET", "/stats", "")?;
        if status != 200 {
            return Err(format!("/stats answered {status}"));
        }
        json::parse(&body).map_err(err("/stats"))
    }

    /// Asks the server to drain, then waits for the process to end.
    fn stop(mut self) -> Res<()> {
        let asked = Client::connect(self.addr).and_then(|mut c| c.request("POST", "/shutdown", ""));
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(err("waiting for vx serve"))?;
        match asked {
            Ok((200, _)) if status.success() => Ok(()),
            Ok((code, _)) => Err(format!(
                "shutdown answered {code}, vx serve exited with {status}"
            )),
            Err(e) => Err(e),
        }
    }
}

/// The server-side numbers a phase is bracketed by.
struct ServerCounters {
    query_count: f64,
    query_sum_us: f64,
    hits: f64,
    misses: f64,
    errors: f64,
}

impl ServerCounters {
    fn read(stats: &Json) -> Res<ServerCounters> {
        let server = stats.get("server").ok_or("/stats: no `server`")?;
        let field = |name: &str| {
            server
                .get(name)
                .and_then(as_f64)
                .ok_or_else(|| format!("/stats: no `server.{name}`"))
        };
        let query = server
            .get("endpoints")
            .and_then(|e| e.get("query"))
            .ok_or("/stats: no query endpoint")?;
        let count = query.get("count").and_then(as_f64).unwrap_or(0.0);
        let mean_us = query.get("mean_us").and_then(as_f64).unwrap_or(0.0);
        Ok(ServerCounters {
            query_count: count,
            query_sum_us: count * mean_us,
            hits: field("query_cache_hits")?,
            misses: field("query_cache_misses")?,
            errors: field("errors")?,
        })
    }
}

/// What one client thread brings back.
struct ClientRun {
    latencies_ms: Vec<f64>,
    query_ms: f64,
    queries: u64,
    failed: u64,
    wall_s: f64,
    tracer: Tracer,
}

struct Load<'a> {
    addr: SocketAddr,
    schedules: &'a [Vec<Request>],
    warm: &'a HashMap<String, Fingerprint>,
}

impl Load<'_> {
    /// One client's closed loop over its schedule, starting at entry
    /// `from`.
    fn client(
        &self,
        c: usize,
        from: u64,
        limit: Limit,
        epoch: Instant,
        traced: bool,
    ) -> Res<ClientRun> {
        let schedule = &self.schedules[c];
        let mut client = Client::connect(self.addr)?;
        let mut run = ClientRun {
            latencies_ms: Vec::new(),
            query_ms: 0.0,
            queries: 0,
            failed: 0,
            wall_s: 0.0,
            tracer: Tracer::with_epoch(traced, epoch),
        };
        let started = Instant::now();
        for i in from.. {
            let more = match limit {
                Limit::Seconds(s) => started.elapsed().as_secs_f64() < s,
                Limit::Ops(n) => i - from < n,
            };
            if !more {
                break;
            }
            let request = &schedule[i as usize % schedule.len()];
            let is_query = request.path == "/query";
            let profiled;
            let body = if traced && is_query {
                // Tracing on: the server adds its per-step profile.
                profiled = format!(
                    "{}, \"profile\": true}}",
                    request.body.trim_end_matches('}')
                );
                &profiled
            } else {
                &request.body
            };
            run.tracer.begin_op(i * SERVE_CLIENTS as u64 + c as u64);
            let start = Instant::now();
            let mut answer_json = None;
            let (status, answer) = run.tracer.span("op", |t| {
                let (status, answer) = client.request(&request.method, &request.path, body)?;
                if t.on() && is_query && status == 200 {
                    let parsed = json::parse(&answer).map_err(err("answer"))?;
                    record_profile(t, &parsed);
                    answer_json = Some(parsed);
                }
                Ok::<_, String>((status, answer))
            })?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            run.latencies_ms.push(ms);
            if is_query {
                run.query_ms += ms;
                run.queries += 1;
            }
            let ok = status == 200
                && match &request.expect {
                    Expect::Status => true,
                    expect => {
                        let parsed = match answer_json {
                            Some(parsed) => Some(parsed),
                            None => json::parse(&answer).ok(),
                        };
                        let got = parsed.as_ref().and_then(answer_fingerprint);
                        let want = match expect {
                            Expect::Exactly(print) => Some(print),
                            _ => self.warm.get(&request.body),
                        };
                        got.is_some() && got.as_ref() == want
                    }
                };
            if !ok {
                run.failed += 1;
            }
        }
        run.wall_s = started.elapsed().as_secs_f64();
        Ok(run)
    }

    /// All clients at once; their samples merged.
    fn phase(&self, from: u64, limit: Limit, traced: bool) -> Res<(Phase, Tracer, f64)> {
        let per_client = match limit {
            Limit::Ops(n) => Limit::Ops(n.div_ceil(SERVE_CLIENTS as u64)),
            seconds => seconds,
        };
        let epoch = Instant::now();
        let runs: Vec<Res<ClientRun>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SERVE_CLIENTS)
                .map(|c| scope.spawn(move || self.client(c, from, per_client, epoch, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let mut phase = Phase::default();
        let mut tracer = Tracer::with_epoch(traced, epoch);
        let (mut query_ms, mut queries) = (0.0, 0);
        for run in runs {
            let run = run?;
            phase.attempted += run.latencies_ms.len() as u64;
            phase.failed += run.failed;
            phase.latencies_ms.extend(run.latencies_ms);
            phase.wall_s = phase.wall_s.max(run.wall_s);
            query_ms += run.query_ms;
            queries += run.queries;
            tracer.absorb(run.tracer);
        }
        Ok((phase, tracer, query_ms / (queries.max(1)) as f64))
    }
}

/// The `profile` object of a traced answer, as spans and counts.
fn record_profile(t: &mut Tracer, answer: &Json) {
    let Some(profile) = answer.get("profile") else {
        return;
    };
    let steps = profile.get("steps").and_then(Json::as_array).unwrap_or(&[]);
    t.reported(steps.iter().filter_map(|step| {
        let name = exec::step_layer(step.get("step")?.as_str()?);
        let secs = step.get("secs").and_then(as_f64)?;
        Some((name, secs))
    }));
    for (name, value) in profile.get("counters").map(util::fields).unwrap_or(&[]) {
        t.count(name, as_f64(value).unwrap_or(0.0));
    }
}

pub fn exec(args: &ExecArgs) -> Res<()> {
    let datasets = spec::datasets(&args.workload);
    let stores: Vec<_> = datasets
        .iter()
        .map(|ds| exec::store(&args.dir, ds))
        .collect();
    let setup = exec::build_stores(&args.dir, &args.workload)?;
    let schedules: Vec<Vec<Request>> = (0..SERVE_CLIENTS)
        .map(|c| read_schedule(&args.dir.join("inputs").join(format!("schedule-{c}.tsv"))))
        .collect::<Res<_>>()?;
    let server = Server::start(&args.vx, &stores)?;
    let measured = measure(args, &server, &schedules, setup);
    // The server is stopped whatever the measurement came to.
    let stopped = server.stop();
    let result = measured?;
    stopped?;
    if let Some(result) = result {
        println!("{}", util::to_line(&result));
    }
    Ok(())
}

fn measure(
    args: &ExecArgs,
    server: &Server,
    schedules: &[Vec<Request>],
    setup: Layers,
) -> Res<Option<Json>> {
    // Warm-up: every repeated body once, which compiles it into the
    // server's query cache and gives the reference its answers are held
    // against. The point lookups are not warmed: they are there to miss.
    let mut warm = HashMap::new();
    {
        let mut client = Client::connect(server.addr)?;
        for request in schedules.iter().flatten() {
            if matches!(request.expect, Expect::WarmUp) && !warm.contains_key(&request.body) {
                let (status, answer) =
                    client.request(&request.method, &request.path, &request.body)?;
                let print = json::parse(&answer)
                    .ok()
                    .as_ref()
                    .and_then(answer_fingerprint);
                match (status, print) {
                    (200, Some(print)) => warm.insert(request.body.clone(), print),
                    _ => return Err(format!("warm-up answered {status}: {answer}")),
                };
            }
        }
    }
    println!("READY");
    if args.setup_only {
        return Ok(None);
    }

    let load = Load {
        addr: server.addr,
        schedules,
        warm: &warm,
    };
    let (phase, _, _) = load.phase(0, args.limit, false)?;
    let rss = util::peak_rss_mb(&server.child.id().to_string())?;
    let ratio = exec::store_ratio(&args.dir, spec::datasets(&args.workload))?;
    let metrics = exec::end_to_end(&phase, rss, ratio);

    let mut traced_out = None;
    if let Some(limit) = args.traced {
        let before = ServerCounters::read(&server.stats()?)?;
        let from = phase.attempted.div_ceil(SERVE_CLIENTS as u64);
        let (traced, tracer, client_query_ms) = load.phase(from, limit, true)?;
        let after = ServerCounters::read(&server.stats()?)?;
        let ops = traced.latencies_ms.len() as f64;
        let mut layers = setup;
        exec::engine_layers(&tracer, ops, &mut layers);
        let served = after.query_count - before.query_count;
        let server_query_ms = (after.query_sum_us - before.query_sum_us) / served.max(1.0) / 1e3;
        layers.insert(
            "serve.overhead_ms",
            (client_query_ms - server_query_ms).max(0.0),
        );
        let lookups = (after.hits - before.hits) + (after.misses - before.misses);
        layers.insert(
            "serve.cache_hit_ratio",
            (after.hits - before.hits) / lookups.max(1.0),
        );
        layers.insert("serve.errors", after.errors - before.errors);
        exec::finish_trace(args, &tracer, &phase, &traced, &mut layers)?;
        traced_out = Some((traced, layers));
    }
    Ok(Some(exec::result_json(
        &phase,
        &metrics,
        traced_out.as_ref().map(|(p, l)| (p, l)),
        Vec::new(),
    )))
}
