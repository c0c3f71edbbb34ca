//! What one pass reports back to `run.py`: a single JSON line
//! with the pass's raw measurements and the digests its outputs are
//! checked by.

use flowsim::FlowRecord;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Flows per digest block: a mismatch is located to within this many
/// flows, which is what `error_frac` counts.
pub const BLOCK: usize = 64;

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// FNV-1a digests of per-flow record bits, one per block of [`BLOCK`]
/// flows. `finish_only` digests just the finish time (the decomposed
/// estimate); otherwise id, start, finish and bytes.
pub fn block_digests(records: &[FlowRecord], finish_only: bool) -> Vec<String> {
    records
        .chunks(BLOCK)
        .map(|chunk| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for r in chunk {
                if !finish_only {
                    fnv(&mut h, r.id);
                    fnv(&mut h, r.start.to_bits());
                    fnv(&mut h, r.bytes.to_bits());
                }
                fnv(&mut h, r.finish.map_or(u64::MAX, f64::to_bits));
            }
            format!("{h:016x}")
        })
        .collect()
}

/// Indices of the flows that never finished.
pub fn unfinished(records: &[FlowRecord]) -> Vec<usize> {
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.finish.is_none())
        .map(|(i, _)| i)
        .collect()
}

/// Flips the lowest bit of the first finished flow's finish time: the
/// self-test's deliberately wrong result.
pub fn perturb(records: &mut [FlowRecord]) {
    if let Some(r) = records.iter_mut().find(|r| r.finish.is_some()) {
        r.finish = r.finish.map(|f| f64::from_bits(f.to_bits() ^ 1));
    }
}

/// A JSON object under construction (keys in insertion order).
#[derive(Default)]
pub struct Obj(String);

impl Obj {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "{}:", quote(k));
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.0.push_str(&num(v));
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.0.push_str(&quote(v));
        self
    }

    pub fn raw(mut self, k: &str, json: String) -> Self {
        self.key(k);
        self.0.push_str(&json);
        self
    }

    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// A JSON number; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn array<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    let parts: Vec<String> = items.iter().map(f).collect();
    format!("[{}]", parts.join(","))
}

pub fn metrics(m: &BTreeMap<&'static str, f64>) -> String {
    m.iter()
        .fold(Obj::default(), |o, (k, v)| o.num(k, *v))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, finish: Option<f64>) -> FlowRecord {
        FlowRecord {
            id,
            start: 0.0,
            finish,
            bytes: 1e6,
        }
    }

    #[test]
    fn perturbation_changes_exactly_one_block() {
        let mut records: Vec<FlowRecord> = (0..200).map(|i| rec(i, Some(1.0 + i as f64))).collect();
        let before = block_digests(&records, true);
        perturb(&mut records);
        let after = block_digests(&records, true);
        assert_eq!(before.len(), 4);
        let differing = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert_eq!(differing, 1);
    }

    #[test]
    fn unfinished_flows_are_listed() {
        let records = vec![rec(0, Some(1.0)), rec(1, None), rec(2, Some(2.0))];
        assert_eq!(unfinished(&records), vec![1]);
    }

    #[test]
    fn json_is_escaped_and_ordered() {
        let s = Obj::default()
            .str("a", "x\"y\n")
            .num("b", 1.5)
            .num("c", f64::NAN)
            .finish();
        assert_eq!(s, r#"{"a":"x\"y\n","b":1.5,"c":null}"#);
    }
}
