//! Small shared pieces: order statistics, the FNV-64 output fingerprint,
//! JSON shorthands over `vx_core::json`, and `/proc` memory readings.

use std::path::Path;
use vx_core::json::{to_string_pretty, Json};
use vx_engine::{NaiveOutput, QueryOutput};

/// The `q`-quantile (0..=1) by linear interpolation between the two
/// nearest order statistics; `samples` need not be sorted.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// What one output is compared by: how many results, and a fingerprint
/// of their bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fingerprint {
    pub cardinality: u64,
    pub fnv: u64,
}

impl Fingerprint {
    /// Of a value sequence: each value followed by a newline.
    pub fn of_values<V: AsRef<[u8]>>(values: &[V]) -> Fingerprint {
        let mut fnv = Fnv::new();
        for value in values {
            fnv.feed(value.as_ref());
            fnv.feed(b"\n");
        }
        Fingerprint {
            cardinality: values.len() as u64,
            fnv: fnv.finish(),
        }
    }

    /// Of a serialized result document: one result, its bytes.
    pub fn of_xml(xml: &str) -> Fingerprint {
        let mut fnv = Fnv::new();
        fnv.feed(xml.as_bytes());
        Fingerprint {
            cardinality: 1,
            fnv: fnv.finish(),
        }
    }

    /// Of an engine output; a constructed document is reconstructed and
    /// serialized first, which is why callers do this outside the timed
    /// window.
    pub fn of_output(output: &QueryOutput) -> Result<Fingerprint, String> {
        match output {
            QueryOutput::Values(values) => Ok(Fingerprint::of_values(values)),
            QueryOutput::Document(_) => output
                .to_xml()
                .map(|xml| Fingerprint::of_xml(&xml))
                .map_err(|e| e.to_string()),
        }
    }

    /// Of the oracle's output, in the same canonical form.
    pub fn of_naive(output: &NaiveOutput) -> Fingerprint {
        match output {
            NaiveOutput::Values(values) => Fingerprint::of_values(values),
            NaiveOutput::Document(doc) => Fingerprint::of_xml(&vx_xml::write_document(
                doc,
                &vx_xml::WriteOptions::compact(),
            )),
        }
    }
}

/// Fingerprint of a store directory: every regular file's name and
/// bytes, in name order, recursing into generation directories.
pub fn fingerprint_dir(dir: &Path) -> std::io::Result<u64> {
    fn walk(dir: &Path, prefix: &str, fnv: &mut Fnv) -> std::io::Result<()> {
        let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let name = format!("{prefix}{}", entry.file_name().to_string_lossy());
            if entry.file_type()?.is_dir() {
                walk(&entry.path(), &format!("{name}/"), fnv)?;
            } else {
                fnv.feed(name.as_bytes());
                fnv.feed(&[0]);
                fnv.feed(&std::fs::read(entry.path())?);
            }
        }
        Ok(())
    }
    let mut fnv = Fnv::new();
    walk(dir, "", &mut fnv)?;
    Ok(fnv.finish())
}

/// `VmHWM` (peak resident set) of a process in MB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(value: f64) -> Json {
    Json::Num(value)
}

pub fn text(value: &str) -> Json {
    Json::Str(value.to_string())
}

pub fn as_f64(value: &Json) -> Option<f64> {
    match value {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

pub fn fields(value: &Json) -> &[(String, Json)] {
    match value {
        Json::Object(fields) => fields,
        _ => &[],
    }
}

/// One-line JSON. The pretty writer only ever breaks lines between
/// tokens (strings escape their newlines), so dropping each break with
/// its indentation leaves the same document.
pub fn to_line(value: &Json) -> String {
    to_string_pretty(value)
        .lines()
        .map(str::trim_start)
        .collect()
}

/// `{"name": {"value": v, "unit": u}, …}` — the shape metrics are
/// printed in.
pub fn metrics_json(metrics: &[(String, f64)], unit_of: impl Fn(&str) -> &'static str) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.clone(),
                    obj(vec![("value", num(*value)), ("unit", text(unit_of(name)))]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), 2.5);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn one_line_json_round_trips() {
        let value = obj(vec![
            ("a", text("x\ny")),
            ("b", Json::Array(vec![num(1.5), Json::Bool(true)])),
        ]);
        let line = to_line(&value);
        assert!(!line.contains('\n'));
        assert_eq!(vx_core::json::parse(&line).unwrap(), value);
    }
}
