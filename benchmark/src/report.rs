//! Output: the one-line result the driver reads, the detailed side file,
//! and the provenance block every committed number must carry.

use std::fmt::Write as _;

/// Just enough JSON to write results; nothing in the tree parses it.
#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            // `{}` prints the shortest digits that round-trip, i.e. all of
            // them. Non-finite values are refused before rendering.
            Json::Num(n) => write!(out, "{n}").unwrap(),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How it was obtained (sample count, percentile used, …); goes to the
    /// side file and the human-readable listing, not the result line.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Operations of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl std::ops::AddAssign for Ops {
    fn add_assign(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Refuse to report rather than report nonsense: no operations, a failed
/// operation's run still reports (with `correct: false`), but a NaN or
/// infinite metric never does.
pub fn check(ops: Ops, metrics: &[Metric]) -> Result<(), String> {
    if ops.attempted == 0 {
        return Err("0 operations attempted — nothing was measured".into());
    }
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!(
                "metric {} is {} — refusing to report",
                m.name, m.value
            ));
        }
    }
    Ok(())
}

/// The last line of standard output, in the driver's shape.
pub fn result_line(ops: Ops, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(ops.failed == 0)),
        ("attempted", Json::Num(ops.attempted as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// Where and how a number was produced.
pub fn provenance(workload: &str, seed: u64, seconds: f64, traced: bool) -> Json {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("measured_seconds", Json::Num(seconds)),
        ("traced", Json::Bool(traced)),
        ("commit", Json::Str(commit)),
        ("host", Json::Str(transport::real_hostname())),
        ("nproc", Json::Num(nproc as f64)),
        (
            "solver_simd_backend",
            Json::Str(solver::simd::backend().name().into()),
        ),
    ])
}

/// Metrics with their notes, for the side file.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Arr(
        metrics
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::Str(m.name.into())),
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                    ("note", Json::Str(m.note.clone())),
                ])
            })
            .collect(),
    )
}

/// Human-readable listing on standard error: every metric by name with
/// its unit.
pub fn print_listing(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        eprintln!(
            "  {:<36} {:>16.6} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_drivers_shape() {
        let line = result_line(
            Ops {
                attempted: 10,
                failed: 0,
            },
            &[Metric::new("lat_p50_ms", 1.25, "ms")],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"lat_p50_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
    }

    #[test]
    fn nan_and_empty_runs_are_errors_not_reports() {
        let ok = Ops {
            attempted: 1,
            failed: 0,
        };
        assert!(check(ok, &[Metric::new("x", 1.0, "ms")]).is_ok());
        assert!(check(ok, &[Metric::new("x", f64::NAN, "ms")]).is_err());
        assert!(check(Ops::default(), &[]).is_err());
    }
}
