//! The names the benchmark is made of: workloads, metrics, scales and
//! query sets. `BENCHMARK.json` at the repository root carries the same
//! names (`tests/smoke.rs` keeps the two equal); everything here is a
//! constant so that two commits always measure the same thing.

/// One named workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "ingest.stream",
        why: "bulk write path: XML events, skeleton builder, spill pool and encoders; ML overflows the 64-frame spill pool, SS fits in it",
    },
    Workload {
        name: "append.reopen",
        why: "writes beside reads: fsync'd WAL append, open with tail replay, count query; every 8th cycle compacts, which is the p90",
    },
    Workload {
        name: "query.scan",
        why: "match-bound queries on warm handles: skeleton walk, cursors and structural index do the work, joins almost none",
    },
    Workload {
        name: "query.join",
        why: "two-variable queries on warm handles: planner, join-build, enumerate and output do the work, matching little",
    },
    Workload {
        name: "query.cold",
        why: "open, compile, run, drop per query (the vx query CLI shape): store open and resident memory dominate",
    },
    Workload {
        name: "serve.mixed",
        why: "vx serve, closed loop, 2 keep-alive clients: HTTP parse, query cache hits and misses, profiling and JSON serialisation",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// What a user of the system sees. Every workload reports every one; the
/// regression bounds live in `BENCHMARK.json`.
pub const END_TO_END: [Metric; 6] = [
    Metric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
    },
    Metric {
        name: "latency_ms_p50",
        unit: "ms",
        better: Better::Lower,
    },
    Metric {
        name: "latency_ms_p90",
        unit: "ms",
        better: Better::Lower,
    },
    Metric {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
    },
    Metric {
        name: "store_bytes_per_input_byte",
        unit: "ratio",
        better: Better::Lower,
    },
];

const fn ms(name: &'static str) -> Metric {
    Metric {
        name,
        unit: "ms",
        better: Better::Lower,
    }
}

const fn count(name: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit: "count",
        better,
    }
}

const fn ratio(name: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit: "ratio",
        better,
    }
}

/// Single-layer numbers, reported by a traced run. Times are the mean per
/// traced operation; counts are per traced operation too, so that they
/// repeat exactly for one seed. A layer a workload does not exercise
/// reports 0.
pub const PER_LAYER: [Metric; 47] = [
    // vx-data (the generator, outside the measured child)
    ms("data.generate_ms"),
    // vx-xml
    ms("xml.parse_ms"),
    count("xml.events", Better::Lower),
    // vx-ingest / vx-core ingest
    ms("ingest.pipeline_ms"),
    ms("ingest.write_ms"),
    count("ingest.elements", Better::Lower),
    count("ingest.values", Better::Lower),
    Metric {
        name: "ingest.mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
    },
    // vx-vector / vx-storage
    count("spill.pages", Better::Lower),
    count("pager.hits", Better::Higher),
    count("pager.misses", Better::Lower),
    count("pager.evictions", Better::Lower),
    count("vector.count", Better::Lower),
    Metric {
        name: "vector.bytes",
        unit: "B",
        better: Better::Lower,
    },
    ms("vector.decode_ms"),
    // vx-skeleton
    ms("skeleton.decode_ms"),
    ms("skeleton.index_load_ms"),
    ms("skeleton.path_index_ms"),
    count("skeleton.nodes", Better::Lower),
    // vx-core store
    ms("core.open_ms"),
    // vx-wal + vx-core append
    ms("wal.append_ms"),
    ratio("wal.bytes_per_user_byte", Better::Lower),
    ms("wal.replay_ms"),
    ms("core.compact_ms"),
    Metric {
        name: "compact.bytes_rewritten",
        unit: "B",
        better: Better::Lower,
    },
    // vx-xquery + vx-engine graph/plan
    ms("engine.compile_ms"),
    ms("engine.plan_ms"),
    // vx-engine reduce (from the public QueryProfile)
    ms("engine.match_ms"),
    ms("engine.group_ms"),
    ms("engine.join_build_ms"),
    ms("engine.enumerate_ms"),
    ms("engine.output_ms"),
    count("skeleton.visits", Better::Lower),
    count("struct.nodes.skipped", Better::Higher),
    count("cursor.values.passed", Better::Lower),
    count("cursor.values.skipped", Better::Higher),
    count("join.probe.hits", Better::Higher),
    count("join.probe.misses", Better::Lower),
    count("tuples.emitted", Better::Lower),
    count("values.emitted", Better::Lower),
    ratio("engine.visits_per_value", Better::Lower),
    ratio("cursor.pass_ratio", Better::Lower),
    ratio("join.tuples_per_probe", Better::Higher),
    // xmlvec::serve
    ms("serve.overhead_ms"),
    ratio("serve.cache_hit_ratio", Better::Higher),
    count("serve.errors", Better::Lower),
    // vx-obs: traced over untraced `latency_ms_p50` of the same run
    ratio("trace.overhead_ratio", Better::Lower),
];

/// The four corpora in paper order, keyed by the `doc("…")` names the
/// workload queries use.
pub const DATASETS: [&str; 4] = ["xk", "tb", "ml", "ss"];

/// Records per corpus: items, sentences, citations, rows.
#[derive(Clone, Copy, Debug)]
pub struct Scales {
    pub xk: usize,
    pub tb: usize,
    pub ml: usize,
    pub ss: usize,
}

impl Scales {
    pub fn records(&self, dataset: &str) -> usize {
        match dataset {
            "xk" => self.xk,
            "tb" => self.tb,
            "ml" => self.ml,
            "ss" => self.ss,
            other => panic!("unknown dataset `{other}`"),
        }
    }
}

/// A quarter of the committed `table3` scales: small enough that five
/// set-ups and a hundred operations fit in a run.
const QUARTER: Scales = Scales {
    xk: 500,
    tb: 2500,
    ml: 5000,
    ss: 5000,
};

/// `ingest.stream` takes ML at half the committed scale and SS at a
/// quarter: ML's 8 fat vectors need some 175 spill pages and overflow the
/// 64-frame spill pool, SS's 7 need some 35 and fit in it. XK and TB are
/// left out, see [`datasets`].
const INGEST: Scales = Scales {
    xk: 0,
    tb: 0,
    ml: 10_000,
    ss: 5_000,
};

/// The quadratic joins (TQ3, MQ2) set the pass time, so their corpora are
/// smaller; KQ* and SQ3 are linear and keep more records.
const JOIN: Scales = Scales {
    xk: 1000,
    tb: 800,
    ml: 2000,
    ss: 5000,
};

const SMOKE: Scales = Scales {
    xk: 40,
    tb: 40,
    ml: 120,
    ss: 120,
};

/// The scale the differential oracle (`naive_eval`, nested loops over a
/// DOM) checks every workload query at before anything is timed.
pub const ORACLE: Scales = Scales {
    xk: 100,
    tb: 60,
    ml: 250,
    ss: 250,
};

/// Citations in the `append.reopen` base store and in each appended
/// document. The store only grows, and with it the cost of a cycle: 5
/// citations a cycle keep the growth over a run's 150 cycles under a fifth.
pub const APPEND_BASE: usize = 4_000;
pub const APPEND_BATCH: usize = 5;
/// Distinct append batches generated per run; cycle `c` appends batch
/// `c % APPEND_BATCHES`, generated from `seed + 1 + c % APPEND_BATCHES`.
pub const APPEND_BATCHES: usize = 64;
/// Every this-many-th cycle also compacts inside the timed window.
pub const COMPACT_EVERY: usize = 8;

pub const SERVE_CLIENTS: usize = 2;
/// Requests generated per client; a client that exhausts its schedule
/// inside the run starts it again.
pub const SERVE_SCHEDULE: usize = 4000;

pub fn scales(workload: &str, smoke: bool) -> Scales {
    if smoke {
        return SMOKE;
    }
    match workload {
        "ingest.stream" => INGEST,
        "query.join" => JOIN,
        "append.reopen" => Scales {
            ml: APPEND_BASE,
            ..QUARTER
        },
        _ => QUARTER,
    }
}

/// The corpora a workload ingests.
///
/// A store is one file per vector (XK 110, TB some 940, ML 8, SS 7), and
/// creating a file on the sandbox's ext4 image (no journal, `discard`)
/// took anything between 0.02 and 0.4 ms from one minute to the next. So
/// XK and TB are built only where a query needs them, and `ingest.stream`
/// — where file creation would sit inside the timed window and was three
/// quarters of a pass with all four corpora — ingests the two corpora
/// with few, fat vectors. The query workloads' set-up still stream-ingests
/// XK and TB.
pub fn datasets(workload: &str) -> &'static [&'static str] {
    match workload {
        "append.reopen" => &["ml"],
        "ingest.stream" => &["ml", "ss"],
        "serve.mixed" => &["xk", "ml", "ss"],
        _ => &DATASETS,
    }
}

/// The count query `append.reopen` proves visibility with.
pub const COUNT_QUERY: &str =
    r#"for $c in doc("ml")/MedlineCitationSet/MedlineCitation return $c/PMID"#;

/// Workload-query names (from `vx_data::workload()`) per workload. The
/// serve set is the ten queries that answer in well under 100 ms; TQ* and
/// MQ2 take far longer and are covered by `query.join`.
pub fn query_names(workload: &str) -> &'static [&'static str] {
    match workload {
        "query.scan" => &["KQ1", "TQ1", "TQ2", "MQ1", "SQ1", "SQ2", "SQ4"],
        "query.join" => &["KQ2", "KQ3", "KQ4", "SQ3", "MQ2", "TQ3"],
        "query.cold" => &["KQ1", "KQ3", "MQ1", "SQ1", "SQ4", "TQ1"],
        "serve.mixed" => &[
            "KQ1", "KQ2", "KQ3", "KQ4", "MQ1", "SQ1", "SQ2", "SQ3", "SQ4",
        ],
        _ => &[],
    }
}

/// A workload query resolved from its paper name.
pub fn query(name: &str) -> vx_data::QuerySpec {
    vx_data::workload()
        .into_iter()
        .find(|q| q.name == name)
        .unwrap_or_else(|| panic!("no workload query named `{name}`"))
}

/// Generates one corpus from the run's seed.
pub fn corpus(dataset: &str, seed: u64, records: usize) -> vx_xml::Document {
    match dataset {
        "xk" => vx_data::xmark(seed, records),
        "tb" => vx_data::treebank(seed, records),
        "ml" => vx_data::medline(seed, records),
        "ss" => vx_data::skyserver(seed, records),
        other => panic!("unknown dataset `{other}`"),
    }
}
