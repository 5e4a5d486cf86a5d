//! An ordered counter registry for exporters.
//!
//! Exporters iterate the registry instead of hand-listing scalar
//! fields, so adding a counter to a report automatically adds it to
//! every summary format.

use std::fmt::Write as _;

use crate::json::Escaped;

/// A counter value: integers stay exact, derived ratios are floats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CounterValue {
    /// An exact integer counter (event counts, nanosecond totals).
    Int(u64),
    /// A derived floating-point metric (ratios, utilizations).
    Float(f64),
}

/// An insertion-ordered `name → value` registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterRegistry {
    entries: Vec<(String, CounterValue)>,
}

impl CounterRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Set an integer counter (replacing any previous value under the
    /// same name, preserving its position).
    pub fn set(&mut self, name: &str, value: u64) {
        self.put(name, CounterValue::Int(value));
    }

    /// Set a floating-point metric.
    pub fn set_f64(&mut self, name: &str, value: f64) {
        self.put(name, CounterValue::Float(value));
    }

    fn put(&mut self, name: &str, value: CounterValue) {
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| n == name) {
            e.1 = value;
        } else {
            self.entries.push((name.to_string(), value));
        }
    }

    /// Add to an integer counter, creating it at `delta` if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some((_, CounterValue::Int(v))) = self.entries.iter_mut().find(|(n, _)| n == name) {
            *v += delta;
        } else {
            self.entries
                .push((name.to_string(), CounterValue::Int(delta)));
        }
    }

    /// Look up a counter by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<CounterValue> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Iterate `(name, value)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, CounterValue)> + '_ {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Number of registered counters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render as a JSON object (`{"name": value, ...}`) in insertion
    /// order. Float values are emitted with enough precision to
    /// round-trip; integer values are exact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append [`Self::to_json`]'s rendering to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (name, value)) in self.entries.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{}\":", Escaped(name));
            let _ = match value {
                CounterValue::Int(v) => write!(out, "{v}"),
                CounterValue::Float(v) if v.is_finite() => write!(out, "{v:.6}"),
                CounterValue::Float(_) => write!(out, "null"),
            };
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_preserved() {
        let mut reg = CounterRegistry::new();
        reg.set("zeta", 1);
        reg.set("alpha", 2);
        reg.set_f64("ratio", 0.5);
        let names: Vec<&str> = reg.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["zeta", "alpha", "ratio"]);
    }

    #[test]
    fn set_replaces_add_accumulates() {
        let mut reg = CounterRegistry::new();
        reg.set("faults", 10);
        reg.set("faults", 20);
        reg.add("faults", 5);
        reg.add("fresh", 3);
        assert_eq!(reg.get("faults"), Some(CounterValue::Int(25)));
        assert_eq!(reg.get("fresh"), Some(CounterValue::Int(3)));
        assert_eq!(reg.get("absent"), None);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn json_rendering() {
        let mut reg = CounterRegistry::new();
        reg.set("n", 42);
        reg.set_f64("u", 0.25);
        let json = reg.to_json();
        assert_eq!(json, r#"{"n":42,"u":0.250000}"#);
        crate::json::JsonValue::parse(&json).expect("valid JSON");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut reg = CounterRegistry::new();
        reg.set_f64("bad", f64::NAN);
        assert_eq!(reg.to_json(), r#"{"bad":null}"#);
    }
}
