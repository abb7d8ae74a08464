//! What one measuring process reports to the parent, one line per item:
//!
//! - `M <name> <value>` a metric,
//! - `A <n>` / `F <n>` operations attempted / failed,
//! - `E <text>` a failed correctness check,
//! - `I <key> <text>` context (configuration, sample counts).

use std::fmt::Write as _;

#[derive(Debug, Default)]
pub struct Out {
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub info: Vec<(String, String)>,
}

impl Out {
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn info(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.info.push((key.into(), value.into()));
    }

    /// Count one operation; a failed one also records why.
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.fail(e);
        }
    }

    /// Record a failed check that is not itself an operation (it still
    /// counts as a failed operation).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        // Keep the report short when a defect fails every operation.
        if self.errors.len() < 8 {
            self.errors.push(why.into().replace('\n', " "));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.info {
            let _ = writeln!(s, "I {k} {v}");
        }
        for (n, v) in &self.metrics {
            let _ = writeln!(s, "M {n} {v:?}");
        }
        let _ = writeln!(s, "A {}", self.attempted);
        let _ = writeln!(s, "F {}", self.failed);
        for e in &self.errors {
            let _ = writeln!(s, "E {e}");
        }
        s
    }

    pub fn parse(text: &str) -> Result<Out, String> {
        let mut out = Out::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = |s: &str| {
                s.parse::<f64>()
                    .map_err(|e| format!("bad number in `{line}`: {e}"))
            };
            match tag {
                "M" => {
                    let (n, v) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad metric line `{line}`"))?;
                    out.metric(n, num(v)?);
                }
                "A" => out.attempted += num(rest)? as u64,
                "F" => out.failed += num(rest)? as u64,
                "E" => out.errors.push(rest.to_string()),
                "I" => {
                    let (k, v) = rest.split_once(' ').unwrap_or((rest, ""));
                    out.info(k, v);
                }
                _ => {}
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let mut o = Out::default();
        o.metric("ops_per_s", 1234.5678901);
        o.info("tm_config", "engine=Threaded coalesce=on");
        o.op(Ok(()));
        o.op(Err("reply 3 != 4".into()));
        let back = Out::parse(&o.render()).unwrap();
        assert_eq!(back.get("ops_per_s"), Some(1234.5678901));
        assert_eq!((back.attempted, back.failed), (2, 1));
        assert_eq!(back.errors, vec!["reply 3 != 4".to_string()]);
        assert_eq!(back.info[0].1, "engine=Threaded coalesce=on");
    }
}
