//! Figure 2: the remote page fetch timeline — per-resource component
//! spans for a full 8 KB page, 2 KB subpages, and 1 KB subpages under
//! eager fullpage fetch, rendered as text Gantt charts.
//!
//! Each chart is one fault on a fresh two-node network, drawn from its
//! occupancy log. Two spans are not bookings and are derived instead:
//! the request's fixed transit (after the fault handler, on the wire
//! lane) and the receive CPU of each follow-on message (ending when the
//! message's data is available, on the requester CPU lane).

use gms_net::{ClusterNetwork, NetParams, NetResource, TransferPlan};
use gms_units::{Bytes, Duration, NodeId, SimTime};

const REQUESTER: NodeId = NodeId::new(0);
const SERVER: NodeId = NodeId::new(1);

/// Figure 2's lanes: label and the `(node, resource)` drawn in it.
const LANES: [(&str, NodeId, NetResource); 5] = [
    ("Req-CPU", REQUESTER, NetResource::Cpu),
    ("Req-DMA", REQUESTER, NetResource::DmaIn),
    ("Wire", REQUESTER, NetResource::WireIn),
    ("Srv-DMA", SERVER, NetResource::DmaOut),
    ("Srv-CPU", SERVER, NetResource::Cpu),
];

fn render(label: &str, plan: &TransferPlan) {
    let params = NetParams::paper();
    let mut net = ClusterNetwork::new(params, 2);
    net.record_occupancies();
    let fault = net.fault(SimTime::ZERO, REQUESTER, SERVER, plan);
    let span_ms = fault.page_complete_at.as_millis_f64().max(1.5);
    let cols = 72usize;
    println!(
        "\n-- {label}: resume {:.2} ms, complete {:.2} ms --",
        fault.resume_at.as_millis_f64(),
        fault.page_complete_at.as_millis_f64()
    );
    let log = net.occupancies();
    // The request leaves when the fault handler's CPU booking ends.
    let sent = log
        .iter()
        .find(|o| o.what == "fault+request")
        .expect("the fault handler is booked")
        .end;
    for (name, node, resource) in LANES {
        let mut spans: Vec<(SimTime, SimTime, &str)> = Vec::new();
        if resource == NetResource::WireIn {
            spans.push((sent, sent + params.request_transit, "request"));
        }
        spans.extend(
            log.iter()
                .filter(|o| o.node == node && o.resource == resource)
                .map(|o| (o.start, o.end, o.what)),
        );
        if (node, resource) == (REQUESTER, NetResource::Cpu) {
            spans.extend(
                fault.arrivals[1..]
                    .iter()
                    .filter(|m| m.recv_cpu > Duration::ZERO)
                    .map(|m| (m.available_at - m.recv_cpu, m.available_at, "receive")),
            );
        }
        let mut cells = vec![' '; cols];
        for (start, end, what) in spans {
            let a = ((start.as_millis_f64() / span_ms) * cols as f64) as usize;
            let b = ((end.as_millis_f64() / span_ms) * cols as f64) as usize;
            let mark = match what {
                "fault+request" | "request" | "process-request" | "send-setup" => '#',
                "receive+resume" => '@',
                _ => '=',
            };
            for cell in cells.iter_mut().take(b.min(cols)).skip(a) {
                *cell = mark;
            }
        }
        println!("{name:>8} |{}|", cells.into_iter().collect::<String>());
    }
    let axis: String = (0..=4)
        .map(|i| format!("{:.1}ms", span_ms * i as f64 / 4.0))
        .collect::<Vec<_>>()
        .join(&" ".repeat(cols / 4 - 5));
    println!("{:>8}  {axis}", "");
    println!("          # control   = data transfer   @ receive+resume");
}

fn main() {
    println!("== Figure 2: remote page fetch timelines ==");
    let page = Bytes::kib(8);
    render("fullpage 8K", &TransferPlan::fullpage(page));
    render(
        "eager, 2K subpage",
        &TransferPlan::eager(page, Bytes::new(2048)),
    );
    render(
        "eager, 1K subpage",
        &TransferPlan::eager(page, Bytes::new(1024)),
    );
}
