//! Chrome/Perfetto trace event export.
//!
//! Produces the legacy Chrome trace-event JSON format (`{"traceEvents":
//! [...]}`), which both `chrome://tracing` and [ui.perfetto.dev] load
//! directly. The mapping:
//!
//! * process = simulated node (`pid` = node index, named `node<i>`),
//! * thread = one of the node's five network resources (`tid` 0–4 in
//!   [`ResourceKind::ALL`] order) plus an `app` track (`tid` 5) for
//!   program-side events,
//! * complete (`"ph":"X"`) spans for resource occupancies and program
//!   stalls, instant (`"ph":"i"`) events for faults, getpage requests,
//!   restarts and putpages.
//!
//! Timestamps are microseconds (the format's unit); sub-microsecond
//! simulation times survive as fractional values.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

use gms_units::{NodeId, SimTime};

use crate::event::{Event, ResourceKind};
use crate::json::Escaped;

/// `tid` of the synthetic per-node application track.
pub const APP_TRACK: usize = 5;

/// Displays nanoseconds as exact microsecond decimals: ns / 1000 with
/// three fractional digits, no float rounding.
pub(crate) struct Us(pub(crate) u64);

impl fmt::Display for Us {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1_000, self.0 % 1_000)
    }
}

/// Displays a subpage bitmask as a JSON array of its set indices.
struct Subpages(u64);

impl fmt::Display for Subpages {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        let mut sep = "";
        for i in (0..64).filter(|i| self.0 & (1 << i) != 0) {
            write!(f, "{sep}{i}")?;
            sep = ",";
        }
        f.write_str("]")
    }
}

/// Opens a trace document: the header up to the event array's `[`.
/// Writers append each event followed by a `,` and finish with
/// [`close_trace`].
pub(crate) fn open_trace() -> String {
    String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
}

/// Drops the comma after the last event and closes the document.
pub(crate) fn close_trace(mut out: String) -> String {
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str("]}");
    out
}

/// Appends one metadata event (`process_name`/`thread_name`) and its
/// trailing comma.
pub(crate) fn push_meta(out: &mut String, pid: u32, tid: usize, kind: &str, name: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"name\":\"{kind}\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}},",
        Escaped(name)
    );
}

/// Writes a complete (`"X"`) span's fields up to its optional `args`.
fn open_span(out: &mut String, pid: u32, tid: usize, name: &str, start: SimTime, end: SimTime) {
    let (start, end) = (start.as_nanos(), end.as_nanos());
    let _ = write!(
        out,
        "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{}",
        Escaped(name),
        Us(start),
        Us(end.saturating_sub(start))
    );
}

/// Writes an instant (`"i"`) event on the app track up to its optional
/// `args`.
fn open_instant(out: &mut String, pid: u32, name: &str, at: SimTime) {
    let _ = write!(
        out,
        "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"pid\":{pid},\"tid\":{APP_TRACK},\"ts\":{}",
        Escaped(name),
        Us(at.as_nanos())
    );
}

/// Appends one event and its trailing comma.
fn push_event(out: &mut String, e: &Event) {
    let pid = e.node().index();
    // Each arm writes the event's fields and its `args`, if any; the
    // closing brace follows the match.
    let _ = match *e {
        Event::Occupancy {
            resource,
            what,
            start,
            end,
            ..
        } => {
            open_span(out, pid, resource.index(), what, start, end);
            Ok(())
        }
        Event::Stall {
            page, start, end, ..
        } => {
            open_span(out, pid, APP_TRACK, "stall", start, end);
            write!(out, ",\"args\":{{\"page\":{page}}}")
        }
        Event::Fault {
            page,
            subpage,
            class,
            at_ref,
            at,
            ..
        } => {
            open_instant(out, pid, "fault", at);
            write!(
                out,
                ",\"args\":{{\"page\":{page},\"subpage\":{subpage},\
                 \"class\":\"{}\",\"ref\":{at_ref}}}",
                class.label()
            )
        }
        Event::GetPage {
            server, page, at, ..
        } => {
            open_instant(out, pid, "getpage", at);
            write!(
                out,
                ",\"args\":{{\"page\":{page},\"server\":{}}}",
                server.index()
            )
        }
        Event::Restart { page, at, wait, .. } => {
            open_instant(out, pid, "restart", at);
            write!(
                out,
                ",\"args\":{{\"page\":{page},\"wait_ns\":{}}}",
                wait.as_nanos()
            )
        }
        Event::Arrival {
            page,
            msg,
            at,
            subpages,
            ..
        } => {
            open_instant(out, pid, "arrival", at);
            write!(
                out,
                ",\"args\":{{\"page\":{page},\"msg\":{msg},\"subpages\":{}}}",
                Subpages(subpages)
            )
        }
        Event::PutPage {
            custodian,
            page,
            dirty,
            at,
            ..
        } => {
            open_instant(out, pid, "putpage", at);
            write!(
                out,
                ",\"args\":{{\"page\":{page},\"custodian\":{},\"dirty\":{dirty}}}",
                custodian.index()
            )
        }
        Event::Timeout {
            page, attempt, at, ..
        } => {
            open_instant(out, pid, "timeout", at);
            write!(out, ",\"args\":{{\"page\":{page},\"attempt\":{attempt}}}")
        }
        Event::Retry {
            page, attempt, at, ..
        } => {
            open_instant(out, pid, "retry", at);
            write!(out, ",\"args\":{{\"page\":{page},\"attempt\":{attempt}}}")
        }
        Event::Failover {
            custodian,
            page,
            at,
            ..
        } => {
            open_instant(out, pid, "failover", at);
            write!(
                out,
                ",\"args\":{{\"page\":{page},\"custodian\":{}}}",
                custodian.index()
            )
        }
        Event::NodeDown { at, pages_lost, .. } => {
            open_instant(out, pid, "node-down", at);
            write!(out, ",\"args\":{{\"pages_lost\":{pages_lost}}}")
        }
        Event::NodeUp { at, .. } => {
            open_instant(out, pid, "node-up", at);
            Ok(())
        }
        Event::DegradedFetch {
            page, subpage, at, ..
        } => {
            open_instant(out, pid, "degraded-fetch", at);
            write!(out, ",\"args\":{{\"page\":{page},\"subpage\":{subpage}}}")
        }
        Event::PolicyDecision {
            page,
            choice,
            delta,
            at,
            ..
        } => {
            open_instant(out, pid, "policy-decision", at);
            write!(
                out,
                ",\"args\":{{\"page\":{page},\"choice\":\"{}\",\"delta\":{delta}}}",
                choice.label()
            )
        }
        Event::Prefetch {
            page,
            subpages,
            sub_bytes,
            unused,
            at,
            ..
        } => {
            open_instant(out, pid, "prefetch", at);
            write!(
                out,
                ",\"args\":{{\"page\":{page},\"subpages\":{},\
                 \"sub_bytes\":{sub_bytes},\"unused\":{unused}}}",
                Subpages(subpages)
            )
        }
        Event::ReplicaWrite {
            holder,
            page,
            copy,
            at,
            ..
        } => {
            open_instant(out, pid, "replica-write", at);
            write!(
                out,
                ",\"args\":{{\"page\":{page},\"holder\":{},\"copy\":{copy}}}",
                holder.index()
            )
        }
        Event::Repair {
            node,
            target,
            page,
            at,
        } => {
            open_instant(out, pid, "repair", at);
            write!(
                out,
                ",\"args\":{{\"page\":{page},\"source\":{},\"target\":{}}}",
                node.index(),
                target.index()
            )
        }
        Event::DirectoryRebuild { entries, at, .. } => {
            open_instant(out, pid, "directory-rebuild", at);
            write!(out, ",\"args\":{{\"entries\":{entries}}}")
        }
    };
    out.push_str("},");
}

/// Render events as a Chrome/Perfetto trace JSON document.
///
/// One process per node that appears in `events`, one thread per
/// `(node, resource)` plus an `app` thread per node. The output is a
/// single-line JSON object written into one buffer; parse it back with
/// [`crate::JsonValue::parse`] to inspect it programmatically.
#[must_use]
pub fn perfetto_trace<'a, I>(events: I) -> String
where
    I: IntoIterator<Item = &'a Event>,
    I::IntoIter: Clone,
{
    let events = events.into_iter();
    let nodes: BTreeSet<u32> = events.clone().map(|e| e.node().index()).collect();

    let mut out = open_trace();
    // Metadata: name every process and thread up front so the tracks
    // are labelled even when empty.
    for &node in &nodes {
        push_meta(&mut out, node, 0, "process_name", &format!("node{node}"));
        for r in ResourceKind::ALL {
            push_meta(&mut out, node, r.index(), "thread_name", r.label());
        }
        push_meta(&mut out, node, APP_TRACK, "thread_name", "app");
    }
    for e in events {
        push_event(&mut out, e);
    }
    close_trace(out)
}

/// The set of node indices appearing in a trace (exported for tests
/// and the `check-trace` validator).
#[must_use]
pub fn trace_nodes(events: &[Event]) -> Vec<NodeId> {
    let set: BTreeSet<u32> = events.iter().map(|e| e.node().index()).collect();
    set.into_iter().map(NodeId::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultClass;
    use crate::json::JsonValue;
    use gms_units::Duration;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn microsecond_rendering_is_exact() {
        assert_eq!(Us(0).to_string(), "0.000");
        assert_eq!(Us(999).to_string(), "0.999");
        assert_eq!(Us(1_000).to_string(), "1.000");
        assert_eq!(Us(52_345).to_string(), "52.345");
    }

    #[test]
    fn subpage_masks_render_as_index_arrays() {
        assert_eq!(Subpages(0).to_string(), "[]");
        assert_eq!(Subpages(0b1010).to_string(), "[1,3]");
        assert_eq!(Subpages(1 << 31 | 1).to_string(), "[0,31]");
        assert_eq!(Subpages(1 << 63 | 1 << 32).to_string(), "[32,63]");
    }

    #[test]
    fn trace_parses_and_maps_tracks() {
        let events = vec![
            Event::Fault {
                node: NodeId::new(0),
                page: 3,
                subpage: 2,
                class: FaultClass::Remote,
                at_ref: 77,
                at: t(100),
            },
            Event::Occupancy {
                node: NodeId::new(1),
                resource: ResourceKind::Cpu,
                what: "request",
                ready: t(150),
                start: t(150),
                end: t(250),
            },
            Event::Occupancy {
                node: NodeId::new(0),
                resource: ResourceKind::WireIn,
                what: "data",
                ready: t(250),
                start: t(300),
                end: t(5_300),
            },
            Event::Restart {
                node: NodeId::new(0),
                page: 3,
                at: t(5_300),
                wait: Duration::from_nanos(5_200),
            },
            Event::Arrival {
                node: NodeId::new(0),
                page: 3,
                msg: 0,
                at: t(6_000),
                subpages: (1 << 1) | (1 << 2),
            },
            Event::Arrival {
                node: NodeId::new(0),
                page: 3,
                msg: 1,
                at: t(7_000),
                subpages: 1 << 3,
            },
        ];
        let doc = perfetto_trace(&events);
        let v = JsonValue::parse(&doc).expect("valid JSON");
        let items = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();

        // 2 nodes × (1 process_name + 5 resources + 1 app) metadata
        // records, then 1 fault + 2 occupancy + 1 restart + 2 arrivals.
        let metas = items
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
            .count();
        assert_eq!(metas, 2 * 7);
        let spans: Vec<_> = items
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        // The wire-in occupancy lands on node 0's WireIn track.
        let wire = spans
            .iter()
            .find(|s| s.get("name").and_then(JsonValue::as_str) == Some("data"))
            .unwrap();
        assert_eq!(wire.get("pid").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(
            wire.get("tid").and_then(JsonValue::as_u64),
            Some(ResourceKind::WireIn.index() as u64)
        );
        assert_eq!(wire.get("ts").and_then(JsonValue::as_f64), Some(0.3));
        assert_eq!(wire.get("dur").and_then(JsonValue::as_f64), Some(5.0));

        let instants = items
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i"))
            .count();
        assert_eq!(instants, 4); // fault + restart + 2 arrivals

        assert_eq!(trace_nodes(&events), vec![NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn empty_trace_is_valid() {
        let doc = perfetto_trace(&[] as &[Event]);
        let v = JsonValue::parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("traceEvents")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(0)
        );
    }
}
