//! `bench_serve` — closed-loop load harness for `vx serve`, emitted as
//! `BENCH_serve.json`.
//!
//! ```text
//! bench_serve [--xk N] [--tb N] [--ml N] [--ss N] [--clients C]
//!             [--requests R] [--threads T] [--out FILE]
//! ```
//!
//! The four bench corpora are ingested into on-disk stores, a real
//! [`xmlvec::serve::Server`] is started on a loopback port, and `C`
//! closed-loop client threads each issue `R` rounds of the 13-query
//! table3 workload over keep-alive connections (with `/stats`,
//! `/metrics` and `/healthz` probes mixed in). Latency is measured
//! twice: client-side wall time per request, and the server's own
//! per-endpoint histograms scraped from `/stats`. A sampler thread polls
//! `/stats` throughout the run recording the queue-depth and
//! slow-log-occupancy gauges, and the final `/metrics` answer is
//! validated against the Prometheus text exposition format before the
//! report is written.
//!
//! Scales default from `BenchScales::DEFAULT`, overridable by the
//! `VX_BENCH_XK`/`VX_BENCH_TB`/`VX_BENCH_ML`/`VX_BENCH_SS` environment
//! and then flags; `VX_BENCH_CLIENTS` and `VX_BENCH_REQUESTS` seed the
//! load-shape knobs the same way, so CI can run the whole harness at
//! tiny scale without touching flags.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xmlvec::bench::{build_corpus_store, BenchScales, DATASETS};
use xmlvec::core::json::{to_string_pretty, Json};
use xmlvec::obs::Histogram;
use xmlvec::serve::Server;

struct Config {
    scales: BenchScales,
    clients: usize,
    requests: usize,
    threads: usize,
    out: PathBuf,
}

fn env_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn parse_args() -> Config {
    let mut config = Config {
        scales: BenchScales::from_env(),
        clients: env_num("VX_BENCH_CLIENTS", 8),
        requests: env_num("VX_BENCH_REQUESTS", 25),
        threads: env_num("VX_BENCH_THREADS", 4),
        out: PathBuf::from("BENCH_serve.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("bench_serve: {flag} needs a value");
                exit(2);
            })
        };
        let parse_num = |flag: &str, v: String| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bench_serve: bad {flag} value `{v}`");
                exit(2);
            })
        };
        match flag.as_str() {
            "--xk" => config.scales.xk_items = parse_num("--xk", value("--xk")),
            "--tb" => config.scales.tb_sentences = parse_num("--tb", value("--tb")),
            "--ml" => config.scales.ml_citations = parse_num("--ml", value("--ml")),
            "--ss" => config.scales.ss_rows = parse_num("--ss", value("--ss")),
            "--clients" => config.clients = parse_num("--clients", value("--clients")),
            "--requests" => config.requests = parse_num("--requests", value("--requests")),
            "--threads" => config.threads = parse_num("--threads", value("--threads")),
            "--out" => config.out = PathBuf::from(value("--out")),
            other => {
                eprintln!("bench_serve: unknown flag `{other}`");
                eprintln!(
                    "usage: bench_serve [--xk N] [--tb N] [--ml N] [--ss N] [--clients C] \
                     [--requests R] [--threads T] [--out FILE]"
                );
                exit(2);
            }
        }
    }
    config.clients = config.clients.max(1);
    config.requests = config.requests.max(1);
    config.threads = config.threads.max(1);
    config
}

// ---------------------------------------------------------------------
// A minimal keep-alive HTTP/1.1 client
// ---------------------------------------------------------------------

/// One persistent connection; reconnects transparently if the server
/// side closed it (e.g. after a `connection: close` answer).
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        // One transparent retry: a keep-alive socket the server has
        // since closed surfaces as an error on the first write or read.
        for attempt in 0..2 {
            if self.stream.is_none() {
                let stream = TcpStream::connect(self.addr).unwrap_or_else(|e| {
                    eprintln!("bench_serve: connect {}: {e}", self.addr);
                    exit(1);
                });
                // Without this, the two-packet request (head + body)
                // collides with delayed ACKs and every query measures
                // the ~40ms Nagle stall instead of the server.
                let _ = stream.set_nodelay(true);
                self.stream = Some(stream);
            }
            match self.try_request(method, path, body) {
                Ok(answer) => return answer,
                Err(e) => {
                    self.stream = None;
                    if attempt == 1 {
                        eprintln!("bench_serve: {method} {path}: {e}");
                        exit(1);
                    }
                }
            }
        }
        unreachable!("request loop returns or exits");
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let stream = self.stream.as_mut().expect("connected");
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nhost: vx\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        stream.write_all(&request)?;
        stream.flush()?;
        read_response(stream)
    }
}

/// Reads exactly one response (headers + content-length body), leaving
/// the stream at the next keep-alive boundary.
fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut bytes = Vec::new();
    let mut buffer = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut buffer)?;
        if n == 0 {
            return Err(bad("connection closed mid-response"));
        }
        bytes.extend_from_slice(&buffer[..n]);
    };
    let headers = String::from_utf8_lossy(&bytes[..header_end]).into_owned();
    let status: u16 = headers
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let content_length: usize = headers
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| bad("missing content-length"))?;
    while bytes.len() < header_end + content_length {
        let n = stream.read(&mut buffer)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        bytes.extend_from_slice(&buffer[..n]);
    }
    let body =
        String::from_utf8_lossy(&bytes[header_end..header_end + content_length]).into_owned();
    Ok((status, body))
}

// ---------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------

struct ClientSide {
    query: Histogram,
    stats: Histogram,
    metrics: Histogram,
    healthz: Histogram,
}

/// Occupancy gauges sampled from `/stats` while the load loop runs.
struct LoadSamples {
    queue_depth: Vec<f64>,
    slowlog_entries: Vec<f64>,
}

fn sample_row(samples: &[f64]) -> Json {
    let max = samples.iter().copied().fold(0.0f64, f64::max);
    let mean = if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    };
    Json::Object(vec![
        ("samples".into(), Json::Num(samples.len() as f64)),
        ("mean".into(), Json::Num(mean)),
        ("max".into(), Json::Num(max)),
    ])
}

/// Runs the closed-loop load phase; returns the client-side histograms,
/// the final `/stats` document scraped from the server, and the sampled
/// queue-depth / slow-log occupancy gauges.
fn load_phase(config: &Config, addr: SocketAddr) -> (ClientSide, Json, LoadSamples) {
    let specs = xmlvec::data::workload();
    let bodies: Vec<String> = specs
        .iter()
        .map(|spec| {
            to_string_pretty(&Json::Object(vec![
                ("store".into(), Json::Str(spec.dataset.into())),
                ("query".into(), Json::Str(spec.xq.into())),
            ]))
        })
        .collect();

    // Warm-up: compile every workload query into the server's cache and
    // fail fast if any of them is rejected.
    let mut warm = Client::new(addr);
    for (spec, body) in specs.iter().zip(&bodies) {
        let (status, answer) = warm.request("POST", "/query", body);
        if status != 200 {
            eprintln!(
                "bench_serve: warm-up {} failed ({status}): {answer}",
                spec.name
            );
            exit(1);
        }
    }

    let side = ClientSide {
        query: Histogram::new(),
        stats: Histogram::new(),
        metrics: Histogram::new(),
        healthz: Histogram::new(),
    };
    // Sampler: polls `/stats` on its own connection while the clients
    // hammer `/query`, recording the queue-depth proxy and the slow-log
    // occupancy so the report shows how loaded the pool actually got.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::new(addr);
            let mut samples = LoadSamples {
                queue_depth: Vec::new(),
                slowlog_entries: Vec::new(),
            };
            while !stop.load(Ordering::Relaxed) {
                let (status, body) = client.request("GET", "/stats", "");
                if status == 200 {
                    if let Ok(stats) = xmlvec::core::json::parse(&body) {
                        if let Some(depth) = stats
                            .get("server")
                            .and_then(|s| s.get("queue_depth"))
                            .and_then(Json::as_u64)
                        {
                            samples.queue_depth.push(depth as f64);
                        }
                        if let Some(entries) = stats
                            .get("slowlog")
                            .and_then(|s| s.get("entries"))
                            .and_then(Json::as_u64)
                        {
                            samples.slowlog_entries.push(entries as f64);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            samples
        })
    };
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client_idx in 0..config.clients {
            let side = &side;
            let bodies = &bodies;
            scope.spawn(move || {
                let mut client = Client::new(addr);
                let mut timed = |hist: &Histogram, method: &str, path: &str, body: &str| {
                    let start = Instant::now();
                    let (status, answer) = client.request(method, path, body);
                    hist.record_secs(start.elapsed().as_secs_f64());
                    if status != 200 {
                        eprintln!("bench_serve: {method} {path} -> {status}: {answer}");
                        exit(1);
                    }
                };
                for round in 0..config.requests {
                    let body = &bodies[(client_idx + round) % bodies.len()];
                    timed(&side.query, "POST", "/query", body);
                    // Light observability traffic mixed into the loop:
                    // one probe every fourth round, rotating endpoints.
                    if round % 4 == 3 {
                        match (client_idx + round / 4) % 3 {
                            0 => timed(&side.stats, "GET", "/stats", ""),
                            1 => timed(&side.metrics, "GET", "/metrics", ""),
                            _ => timed(&side.healthz, "GET", "/healthz", ""),
                        }
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let samples = sampler.join().unwrap_or_else(|_| {
        eprintln!("bench_serve: sampler thread panicked");
        exit(1);
    });
    let total =
        side.query.count() + side.stats.count() + side.metrics.count() + side.healthz.count();
    println!(
        "load: {} clients x {} rounds -> {} requests in {elapsed:.2}s ({:.0} req/s)",
        config.clients,
        config.requests,
        total,
        total as f64 / elapsed
    );

    let (status, stats) = warm.request("GET", "/stats", "");
    if status != 200 {
        eprintln!("bench_serve: final /stats scrape failed ({status})");
        exit(1);
    }
    let scraped = xmlvec::core::json::parse(&stats).unwrap_or_else(|e| {
        eprintln!("bench_serve: /stats is not JSON: {e}");
        exit(1);
    });
    // The Prometheus endpoint must always serve a parseable exposition;
    // failing the bench here catches format regressions at full load.
    let (status, exposition) = warm.request("GET", "/metrics", "");
    if status != 200 {
        eprintln!("bench_serve: final /metrics scrape failed ({status})");
        exit(1);
    }
    match xmlvec::obs::prom::validate_exposition(&exposition) {
        Ok(series) => println!("metrics: {series} series, exposition format ok"),
        Err(e) => {
            eprintln!("bench_serve: /metrics exposition invalid: {e}");
            exit(1);
        }
    }
    (side, scraped, samples)
}

fn histogram_row(hist: &Histogram) -> Json {
    Json::Object(vec![
        ("count".into(), Json::Num(hist.count() as f64)),
        ("p50_us".into(), Json::Num(hist.p50_us() as f64)),
        ("p99_us".into(), Json::Num(hist.p99_us() as f64)),
        ("mean_us".into(), Json::Num(hist.mean_us().round())),
        ("max_us".into(), Json::Num(hist.max_us() as f64)),
    ])
}

fn main() {
    let config = parse_args();
    let scratch = std::env::temp_dir().join(format!("vx-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let mut store_rows = Vec::new();
    for dataset in DATASETS {
        let records = config.scales.records(dataset);
        let build =
            build_corpus_store(&scratch.join(dataset), dataset, records).unwrap_or_else(|e| {
                eprintln!("bench_serve: building {dataset}: {e}");
                exit(1);
            });
        println!(
            "built {dataset:>2}: {:>8} records, {:>9.2} MB in {:.2}s",
            records,
            build.input_bytes as f64 / 1e6,
            build.ingest_secs
        );
        store_rows.push(Json::Object(vec![
            ("dataset".into(), Json::Str(dataset.into())),
            ("records".into(), Json::Num(records as f64)),
            ("input_bytes".into(), Json::Num(build.input_bytes as f64)),
            ("ingest_secs".into(), Json::Num(build.ingest_secs)),
        ]));
    }

    let dirs: Vec<PathBuf> = DATASETS.iter().map(|d| scratch.join(d)).collect();
    let dir_refs: Vec<&Path> = dirs.iter().map(PathBuf::as_path).collect();
    let server = Server::bind(&dir_refs, "127.0.0.1:0", config.threads).unwrap_or_else(|e| {
        eprintln!("bench_serve: bind: {e}");
        exit(1);
    });
    let addr = server.local_addr();
    let worker = std::thread::spawn(move || server.run());
    println!(
        "serving {} stores on {addr} with {} worker threads",
        DATASETS.len(),
        config.threads
    );

    let (side, scraped_stats, samples) = load_phase(&config, addr);

    let mut stop = Client::new(addr);
    let (status, _) = stop.request("POST", "/shutdown", "");
    if status != 200 {
        eprintln!("bench_serve: shutdown answered {status}");
        exit(1);
    }
    match worker.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("bench_serve: server loop: {e}");
            exit(1);
        }
        Err(_) => {
            eprintln!("bench_serve: server thread panicked");
            exit(1);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let client_side = Json::Object(vec![
        ("query".into(), histogram_row(&side.query)),
        ("stats".into(), histogram_row(&side.stats)),
        ("metrics".into(), histogram_row(&side.metrics)),
        ("healthz".into(), histogram_row(&side.healthz)),
    ]);
    let report = Json::Object(vec![
        ("bench".into(), Json::Str("serve".into())),
        ("seed".into(), Json::Num(42.0)),
        (
            "default_scale".into(),
            Json::Bool(config.scales.is_default()),
        ),
        ("clients".into(), Json::Num(config.clients as f64)),
        (
            "requests_per_client".into(),
            Json::Num(config.requests as f64),
        ),
        ("server_threads".into(), Json::Num(config.threads as f64)),
        (
            "host_parallelism".into(),
            Json::Num(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64,
            ),
        ),
        ("stores".into(), Json::Array(store_rows)),
        ("client_latency".into(), client_side),
        ("server_stats".into(), scraped_stats),
        (
            "load_samples".into(),
            Json::Object(vec![
                ("queue_depth".into(), sample_row(&samples.queue_depth)),
                (
                    "slowlog_entries".into(),
                    sample_row(&samples.slowlog_entries),
                ),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(&config.out, to_string_pretty(&report)) {
        eprintln!("bench_serve: writing {}: {e}", config.out.display());
        exit(1);
    }
    println!("wrote {}", config.out.display());
}
