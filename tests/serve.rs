//! End-to-end tests for `vx serve`: a real server on a loopback port,
//! driven by raw TCP clients — concurrent queries against one shared
//! store, the structured error contract, metrics, and graceful
//! shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use xmlvec::core::json::{self, Json};
use xmlvec::serve::{ServeOptions, Server};

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vx-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    xmlvec::bench::build_corpus_store(&dir, "xk", 40).expect("tiny store builds");
    dir
}

/// Starts a server on an ephemeral port; returns its address and the
/// thread running the accept loop (joins cleanly after `/shutdown`).
fn start(dirs: Vec<PathBuf>, threads: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
    start_with(dirs, threads, &ServeOptions::default())
}

/// `start` with explicit [`ServeOptions`] — tests pin `slow_ms` here
/// instead of racing on the process-global `VX_SLOW_MS` variable.
fn start_with(
    dirs: Vec<PathBuf>,
    threads: usize,
    options: &ServeOptions,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let dir_refs: Vec<&Path> = dirs.iter().map(PathBuf::as_path).collect();
    let server =
        Server::bind_with(&dir_refs, "127.0.0.1:0", threads, options).expect("bind loopback");
    let addr = server.local_addr();
    let worker = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, worker)
}

/// A one-shot HTTP/1.1 exchange: returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: vx\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {response:?}"));
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

fn shutdown(addr: SocketAddr, worker: std::thread::JoinHandle<()>) {
    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    worker.join().expect("server thread exits after shutdown");
}

const QUERY: &str = r#"for $i in doc("xk")/site/regions/*/item return $i/name"#;

#[test]
fn concurrent_clients_get_identical_answers() {
    let dir = temp_store("concurrent");
    let (addr, worker) = start(vec![dir.clone()], 4);

    let body = format!("{{\"query\": {}}}", json_str(QUERY));
    let (status, first) = request(addr, "POST", "/query", &body);
    assert_eq!(status, 200, "first query failed: {first}");
    let parsed = json::parse(&first).expect("JSON answer");
    let count = parsed.get("count").and_then(Json::as_u64).expect("count");
    assert!(count > 0, "tiny store should have items");
    let expected_values = parsed.get("values").cloned().expect("values array");

    std::thread::scope(|scope| {
        for _ in 0..8 {
            let body = &body;
            let expected = &expected_values;
            scope.spawn(move || {
                for _ in 0..5 {
                    let (status, answer) = request(addr, "POST", "/query", body);
                    assert_eq!(status, 200, "concurrent query failed: {answer}");
                    let parsed = json::parse(&answer).expect("JSON answer");
                    assert_eq!(parsed.get("values"), Some(expected));
                }
            });
        }
    });

    // After the warm-up request, every one of the 40 concurrent
    // requests must have hit the compiled-query cache.
    let (status, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let parsed = json::parse(&stats).expect("stats JSON");
    let server = parsed.get("server").expect("server section");
    let hits = server
        .get("query_cache_hits")
        .and_then(Json::as_u64)
        .expect("cache hits");
    assert!(hits >= 40, "expected >=40 cache hits, saw {hits}");
    let query_count = server
        .get("endpoints")
        .and_then(|e| e.get("query"))
        .and_then(|q| q.get("count"))
        .and_then(Json::as_u64)
        .expect("query endpoint count");
    assert!(
        query_count >= 41,
        "histogram missed requests: {query_count}"
    );

    shutdown(addr, worker);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn error_contract_is_structured_json() {
    // Two stores: the storeless requests below exercise the by-name
    // document resolution path, where `doc("missing")` is reachable.
    let dir = temp_store("errors");
    let dir2 = temp_store("errors2");
    let (addr, worker) = start(vec![dir.clone(), dir2.clone()], 2);

    // Malformed JSON body → 400 bad_request, carrying a request id.
    let (status, body) = request(addr, "POST", "/query", "{not json");
    assert_eq!(status, 400);
    assert_eq!(error_kind(&body), "bad_request");
    assert!(
        !request_id(&body).is_empty(),
        "error body must carry request_id: {body}"
    );

    // Unparseable query → 400 bad_query.
    let (status, body) = request(addr, "POST", "/query", r#"{"query": "for $x in"}"#);
    assert_eq!(status, 400);
    assert_eq!(error_kind(&body), "bad_query");

    // Unknown store → 404 unknown_store.
    let (status, body) = request(
        addr,
        "POST",
        "/query",
        &format!("{{\"store\": \"nope\", \"query\": {}}}", json_str(QUERY)),
    );
    assert_eq!(status, 404);
    assert_eq!(error_kind(&body), "unknown_store");

    // Unknown document inside the query → 400 unknown_document.
    let (status, body) = request(
        addr,
        "POST",
        "/query",
        r#"{"query": "for $x in doc(\"missing\")/a return $x/b"}"#,
    );
    assert_eq!(status, 400);
    assert_eq!(error_kind(&body), "unknown_document");

    // Unknown endpoint → 404; wrong method on a known one → 405.
    // Both carry request ids like every other structured error.
    let (status, body) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    assert!(!request_id(&body).is_empty(), "404 body: {body}");
    let (status, body) = request(addr, "GET", "/query", "");
    assert_eq!(status, 405);
    assert!(!request_id(&body).is_empty(), "405 body: {body}");

    // Every structured error's request_id is distinct — ids are
    // allocated per request, not per connection or per kind.
    let mut ids = std::collections::HashSet::new();
    for _ in 0..4 {
        let (_, body) = request(addr, "POST", "/query", "{not json");
        assert!(ids.insert(request_id(&body)), "request_id reused: {body}");
    }

    // Healthz still fine after all those errors.
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let parsed = json::parse(&body).unwrap();
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));

    shutdown(addr, worker);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// A query nesting 4 000 qualifiers (about 16 KB) is refused at parse
/// time with a 4xx, and the server keeps answering: the parser recurses
/// per nesting level, so an uncapped query this deep would overflow a
/// worker's stack and abort the whole process.
#[test]
fn deeply_nested_query_is_refused_and_the_server_keeps_answering() {
    let dir = temp_store("nested");
    let (addr, worker) = start(vec![dir.clone()], 2);

    let deep = format!(
        "for $i in doc(\"xk\")/site/regions/*/item{}{} return $i/name",
        "[b".repeat(4_000),
        "]".repeat(4_000)
    );
    let (status, body) = request(
        addr,
        "POST",
        "/query",
        &format!("{{\"query\": {}}}", json_str(&deep)),
    );
    assert!((400..500).contains(&status), "{status}: {body}");
    assert_eq!(error_kind(&body), "bad_query");

    let (status, answer) = request(
        addr,
        "POST",
        "/query",
        &format!("{{\"query\": {}}}", json_str(QUERY)),
    );
    assert_eq!(status, 200, "query after the refused one: {answer}");

    shutdown(addr, worker);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_and_xml_output_and_keep_alive() {
    let dir = temp_store("stats");
    let (addr, worker) = start(vec![dir.clone()], 2);

    let (status, body) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let parsed = json::parse(&body).unwrap();
    let stores = parsed.get("stores").and_then(Json::as_array).unwrap();
    assert_eq!(stores.len(), 1);
    assert!(stores[0].get("vectors").and_then(Json::as_u64).unwrap() > 0);

    // XML output mode wraps the projection.
    let (status, body) = request(
        addr,
        "POST",
        "/query",
        &format!("{{\"query\": {}, \"out\": \"xml\"}}", json_str(QUERY)),
    );
    assert_eq!(status, 200);
    let parsed = json::parse(&body).unwrap();
    let xml = parsed.get("xml").and_then(Json::as_str).unwrap();
    assert!(xml.starts_with("<results>"), "xml answer: {xml}");

    // Two requests over one keep-alive connection; each response is
    // read to exactly its content-length so the second request starts
    // on a clean boundary.
    let mut stream = TcpStream::connect(addr).unwrap();
    for _ in 0..2 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: vx\r\n\r\n")
            .unwrap();
        let text = read_one_response(&mut stream);
        assert!(text.starts_with("HTTP/1.1 200"), "keep-alive reply: {text}");
    }
    drop(stream);

    shutdown(addr, worker);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads exactly one HTTP response (headers + content-length body) from
/// a keep-alive connection, leaving the stream at the next boundary.
fn read_one_response(stream: &mut TcpStream) -> String {
    let mut bytes = Vec::new();
    let mut buffer = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut buffer).expect("read headers");
        assert!(n > 0, "connection closed mid-response");
        bytes.extend_from_slice(&buffer[..n]);
    };
    let headers = String::from_utf8_lossy(&bytes[..header_end]).into_owned();
    let content_length: usize = headers
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("content-length header");
    while bytes.len() < header_end + content_length {
        let n = stream.read(&mut buffer).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        bytes.extend_from_slice(&buffer[..n]);
    }
    String::from_utf8_lossy(&bytes[..header_end + content_length]).into_owned()
}

fn error_kind(body: &str) -> String {
    json::parse(body)
        .ok()
        .and_then(|parsed| {
            parsed
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .map(str::to_string)
        })
        .unwrap_or_else(|| panic!("not an error body: {body}"))
}

fn request_id(body: &str) -> String {
    json::parse(body)
        .ok()
        .and_then(|parsed| {
            parsed
                .get("error")
                .and_then(|e| e.get("request_id"))
                .and_then(Json::as_str)
                .map(str::to_string)
        })
        .unwrap_or_else(|| panic!("no request_id in error body: {body}"))
}

/// Serializes a string as a JSON literal (the tests hand-build bodies).
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[test]
fn reload_picks_up_appends_and_compactions() {
    use xmlvec::core::{AppendOptions, Compaction, Store};

    let dir = std::env::temp_dir().join(format!("vx-serve-{}-reload", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = xmlvec::vectorize_str("<lib><book><title>T1</title></book></lib>").unwrap();
    Store::save(&dir, &base, Compaction::None).unwrap();
    let (addr, worker) = start(vec![dir.clone()], 2);

    let xq = r#"for $b in doc("store")/lib/book return $b/title"#;
    let body = format!(
        "{{\"store\": {}, \"query\": {}}}",
        json_str(name_of(&dir)),
        json_str(xq)
    );
    let values = |answer: &str| -> Vec<String> {
        json::parse(answer)
            .unwrap()
            .get("values")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect()
    };

    let (status, answer) = request(addr, "POST", "/query", &body);
    assert_eq!(status, 200, "pre-append query: {answer}");
    assert_eq!(values(&answer), ["T1"]);

    // Append behind the server's back: the running handle keeps serving
    // the old snapshot until a reload.
    Store::append_batch(
        &dir,
        &["<lib><book><title>T2</title></book></lib>".into()],
        &AppendOptions::default(),
    )
    .unwrap();
    let (_, answer) = request(addr, "POST", "/query", &body);
    assert_eq!(values(&answer), ["T1"], "no reload yet, snapshot serves");

    let (status, answer) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "reload failed: {answer}");
    let parsed = json::parse(&answer).unwrap();
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
    let stores = parsed.get("stores").and_then(Json::as_array).unwrap();
    assert_eq!(
        stores[0].get("wal_pending").and_then(Json::as_u64),
        Some(1),
        "reloaded handle should carry the WAL overlay"
    );

    // The append is visible; the compiled query survived the swap (the
    // second identical request must be a cache hit, checked below).
    let (_, answer) = request(addr, "POST", "/query", &body);
    assert_eq!(values(&answer), ["T1", "T2"]);

    // Compact on disk, reload again: same answers from generation 1.
    Store::compact(&dir, Compaction::None).unwrap();
    let (status, _) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200);
    let (_, answer) = request(addr, "POST", "/query", &body);
    assert_eq!(values(&answer), ["T1", "T2"]);
    let (_, stats) = request(addr, "GET", "/stats", "");
    let parsed = json::parse(&stats).unwrap();
    let store_stats = &parsed.get("stores").and_then(Json::as_array).unwrap()[0];
    assert_eq!(
        store_stats.get("generation").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        store_stats.get("wal_pending").and_then(Json::as_u64),
        Some(0)
    );

    let (_, stats) = request(addr, "GET", "/stats", "");
    let parsed = json::parse(&stats).unwrap();
    let server = parsed.get("server").expect("server section");
    assert_eq!(server.get("reloads").and_then(Json::as_u64), Some(2));
    assert!(
        server
            .get("query_cache_hits")
            .and_then(Json::as_u64)
            .unwrap()
            >= 3,
        "query cache must survive reloads"
    );

    shutdown(addr, worker);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store's serve name: its directory basename.
fn name_of(dir: &std::path::Path) -> &str {
    dir.file_name().unwrap().to_str().unwrap()
}

/// Sums the `"counters"` object of a profile (or the `/stats`
/// `"engine"` object — same shape) into a name → value map.
fn counter_map(counters: &Json) -> std::collections::BTreeMap<String, u64> {
    match counters {
        Json::Object(fields) => fields
            .iter()
            .map(|(name, value)| (name.clone(), value.as_u64().expect("integral counter")))
            .collect(),
        other => panic!("not a counter object: {other:?}"),
    }
}

/// Per-request isolation: two simultaneous queries get distinct trace
/// ids, and the per-request profiles' counters sum exactly to the
/// process totals reported by `/stats` — nothing leaks between
/// concurrent runs and nothing is double-counted.
#[test]
fn concurrent_traces_are_distinct_and_counters_sum_to_totals() {
    let dir = temp_store("traces");
    let (addr, worker) = start(vec![dir.clone()], 4);

    // Two different queries run simultaneously from two clients, each
    // asking for its profile; repeat a few rounds for more interleaving.
    const ROUNDS: usize = 3;
    let queries = [
        QUERY,
        r#"for $p in doc("xk")/site/people/person return $p/name"#,
    ];
    let answers: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .map(|xq| {
                let body = format!("{{\"query\": {}, \"profile\": true}}", json_str(xq));
                scope.spawn(move || {
                    (0..ROUNDS)
                        .map(|_| {
                            let (status, answer) = request(addr, "POST", "/query", &body);
                            assert_eq!(status, 200, "profiled query failed: {answer}");
                            answer
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut traces = std::collections::HashSet::new();
    let mut summed = std::collections::BTreeMap::new();
    for answer in answers.iter().flatten() {
        let parsed = json::parse(answer).expect("JSON answer");
        let trace = parsed
            .get("trace")
            .and_then(Json::as_str)
            .expect("trace id in answer")
            .to_string();
        assert_eq!(trace.len(), 16, "trace ids are 16 hex digits: {trace}");
        assert!(traces.insert(trace), "trace id reused across requests");
        let profile = parsed.get("profile").expect("profile requested");
        for (name, value) in counter_map(profile.get("counters").expect("counters")) {
            *summed.entry(name).or_insert(0) += value;
        }
    }

    // The process totals must be exactly the sum of the per-request
    // deltas — the server merges each profiled run's counters once.
    let (status, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let parsed = json::parse(&stats).unwrap();
    let totals = counter_map(parsed.get("engine").expect("engine totals"));
    // Counters that stayed 0 in every run may be absent from either
    // side's map; compare the non-zero entries both ways.
    for (name, value) in &totals {
        if *value > 0 {
            assert_eq!(
                summed.get(name),
                Some(value),
                "process total for {name} diverges from the per-request sum"
            );
        }
    }
    for (name, value) in &summed {
        if *value > 0 {
            assert_eq!(
                totals.get(name),
                Some(value),
                "per-request sum for {name} missing from process totals"
            );
        }
    }

    shutdown(addr, worker);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The slow-query flight recorder: with the threshold at 0 every query
/// is "slow", so `/debug/slow` must show the query with its rendered
/// plan (each join edge's access), profile, and the same trace id the
/// client saw.
#[test]
fn slow_queries_enter_the_flight_recorder_with_plan_and_profile() {
    let dir = temp_store("slowlog");
    let options = ServeOptions {
        slow_ms: 0,
        slow_log_capacity: 8,
        ..ServeOptions::default()
    };
    let (addr, worker) = start_with(vec![dir.clone()], 2, &options);

    let body = format!("{{\"query\": {}}}", json_str(QUERY));
    let (status, answer) = request(addr, "POST", "/query", &body);
    assert_eq!(status, 200, "query failed: {answer}");
    let trace = json::parse(&answer)
        .unwrap()
        .get("trace")
        .and_then(Json::as_str)
        .expect("trace id")
        .to_string();

    let (status, slow) = request(addr, "GET", "/debug/slow", "");
    assert_eq!(status, 200);
    let parsed = json::parse(&slow).unwrap();
    assert_eq!(parsed.get("threshold_ms").and_then(Json::as_u64), Some(0));
    assert_eq!(parsed.get("capacity").and_then(Json::as_u64), Some(8));
    let entries = parsed.get("entries").and_then(Json::as_array).unwrap();
    assert_eq!(entries.len(), 1, "one query, one slow entry: {slow}");
    let entry = &entries[0];
    assert_eq!(entry.get("trace").and_then(Json::as_str), Some(&*trace));
    assert_eq!(entry.get("query").and_then(Json::as_str), Some(QUERY));
    let plan = entry.get("plan").and_then(Json::as_str).expect("plan text");
    assert!(plan.contains("variables:"), "rendered plan: {plan}");
    let profile = entry.get("profile").expect("captured profile");
    assert!(
        !counter_map(profile.get("counters").expect("counters")).is_empty(),
        "profile counters present"
    );
    // The single-variable projection has no join edge.
    assert!(!plan.contains("joins:"), "no joins in {QUERY}: {plan}");

    // Ring bound: run more queries than the capacity holds, confirm the
    // recorder keeps the most recent `capacity` and counts the rest.
    for _ in 0..12 {
        let (status, _) = request(addr, "POST", "/query", &body);
        assert_eq!(status, 200);
    }
    let (_, slow) = request(addr, "GET", "/debug/slow", "");
    let parsed = json::parse(&slow).unwrap();
    assert_eq!(
        parsed
            .get("entries")
            .and_then(Json::as_array)
            .unwrap()
            .len(),
        8,
        "ring keeps exactly its capacity"
    );
    assert_eq!(parsed.get("recorded").and_then(Json::as_u64), Some(13));

    // A join query records its edge with the access the executor used.
    let join = r#"for $a in doc("xk")/site/people/person,
                      $b in doc("xk")/site/people/person
                  where $a/@id = $b/@id
                  return $a/name"#;
    let body = format!("{{\"query\": {}}}", json_str(join));
    let (status, answer) = request(addr, "POST", "/query", &body);
    assert_eq!(status, 200, "join query failed: {answer}");
    let (_, slow) = request(addr, "GET", "/debug/slow", "");
    let parsed = json::parse(&slow).unwrap();
    let entries = parsed.get("entries").and_then(Json::as_array).unwrap();
    let last = entries.last().expect("join entry recorded");
    let plan = last.get("plan").and_then(Json::as_str).expect("plan text");
    let edges: Vec<&str> = plan
        .lines()
        .filter(|l| l.starts_with("  $a/@id = $b/@id  access="))
        .collect();
    assert_eq!(edges.len(), 1, "one join edge: {plan}");
    assert!(
        ["access=persistent-index ", "access=query-sort "]
            .iter()
            .any(|access| edges[0].contains(access)),
        "edge renders a planner access: {plan}"
    );

    shutdown(addr, worker);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /metrics` serves a valid Prometheus text exposition whose
/// counters agree with the JSON `/stats` document.
#[test]
fn metrics_exposition_is_valid_and_consistent_with_stats() {
    let dir = temp_store("prom");
    let (addr, worker) = start(vec![dir.clone()], 2);

    let body = format!("{{\"query\": {}}}", json_str(QUERY));
    for _ in 0..3 {
        let (status, _) = request(addr, "POST", "/query", &body);
        assert_eq!(status, 200);
    }
    // One error, so the error counter is non-zero in the exposition.
    let (status, _) = request(addr, "POST", "/query", "{not json");
    assert_eq!(status, 400);

    let (status, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let series = xmlvec::obs::prom::validate_exposition(&text)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    assert!(
        series > 20,
        "expected a rich exposition, got {series} series"
    );

    for family in [
        "vx_serve_requests_total",
        "vx_serve_errors_total",
        "vx_serve_query_cache_hits_total",
        "vx_serve_request_seconds_bucket",
        "vx_engine_occ_rows_total",
        "vx_store_generation",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(family)),
            "missing family {family} in exposition:\n{text}"
        );
    }

    // Cross-check two counters against /stats, queried *after* the
    // exposition so the stats can only be >= the scraped values.
    let scraped_errors = prom_value(&text, "vx_serve_errors_total");
    let scraped_hits = prom_value(&text, "vx_serve_query_cache_hits_total");
    let (_, stats) = request(addr, "GET", "/stats", "");
    let parsed = json::parse(&stats).unwrap();
    let server = parsed.get("server").unwrap();
    assert_eq!(
        server.get("errors").and_then(Json::as_u64),
        Some(scraped_errors)
    );
    assert_eq!(
        server.get("query_cache_hits").and_then(Json::as_u64),
        Some(scraped_hits)
    );

    shutdown(addr, worker);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The value of an unlabelled counter series in a Prometheus text
/// exposition.
fn prom_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(name)?;
            let value = rest.split_whitespace().next()?;
            value.parse::<f64>().ok().map(|v| v as u64)
        })
        .unwrap_or_else(|| panic!("no series {name} in:\n{text}"))
}
