//! Table 2: page-fault latencies for eager-fullpage fetch from remote
//! memory, per subpage size — subpage arrival, rest-of-page arrival, and
//! the two improvement-potential columns.

use gms_bench::Table;
use gms_net::{ClusterNetwork, FaultTimeline, NetParams, TransferPlan};
use gms_units::{Bytes, NodeId, SimTime};

/// One fault on a fresh two-node network: requester and lumped server,
/// every resource idle.
fn lone_fault(plan: &TransferPlan) -> FaultTimeline {
    ClusterNetwork::new(NetParams::paper(), 2).fault(
        SimTime::ZERO,
        NodeId::new(0),
        NodeId::new(1),
        plan,
    )
}

fn main() {
    let page = Bytes::kib(8);
    let mut table = Table::new(
        "Table 2: eager-fullpage fault latencies (8 KB page)",
        &[
            "subpage",
            "subpage_ms",
            "rest_ms",
            "overlap_pot",
            "sender_pipe",
            "paper_sub",
            "paper_rest",
        ],
    );

    let fullpage = lone_fault(&TransferPlan::fullpage(page));
    let full_ms = fullpage.restart_latency().as_millis_f64();

    let paper = [
        (256u64, 0.45, 1.49),
        (512, 0.47, 1.46),
        (1024, 0.52, 1.38),
        (2048, 0.66, 1.25),
        (4096, 0.94, 1.23),
    ];
    for (size, paper_sub, paper_rest) in paper {
        let fault = lone_fault(&TransferPlan::eager(page, Bytes::new(size)));
        let sub_ms = fault.restart_latency().as_millis_f64();
        let rest_ms = fault.completion_latency().as_millis_f64();
        // "Overlapped Execution": the run window between subpage and
        // rest-of-page arrival, net of receive CPU, as % of the fullpage
        // latency.
        let overlap = fault.overlap_window().as_millis_f64() / full_ms;
        // "Sender Pipelining": how much sooner the whole page completes
        // than a monolithic transfer would, thanks to the two messages
        // overlapping on the sender.
        let pipe = (full_ms - rest_ms).max(0.0) / full_ms;
        table.row(vec![
            size.to_string(),
            format!("{sub_ms:.2}"),
            format!("{rest_ms:.2}"),
            format!("{:.0}%", overlap * 100.0),
            format!("{:.0}%", pipe * 100.0),
            format!("{paper_sub:.2}"),
            format!("{paper_rest:.2}"),
        ]);
    }
    table.row(vec![
        "fullpage".into(),
        "-".into(),
        format!("{full_ms:.2}"),
        "-".into(),
        "-".into(),
        "-".into(),
        "1.48".into(),
    ]);
    table.emit("table2_fault_latency");
}
