//! Engine-level contract of the flight recorder: on real runs its
//! retained exemplars agree exactly with the engine's own fault log
//! and replay through the attribution walk with conservation intact.

use gms_core::{ClusterSim, FetchPolicy, MemoryConfig, SimConfig, Simulator};
use gms_mem::SubpageSize;
use gms_obs::{attribute, FlightRecorder};
use gms_trace::apps;

fn serial_config(policy: FetchPolicy) -> SimConfig {
    SimConfig::builder()
        .policy(policy)
        .memory(MemoryConfig::Half)
        .build()
}

#[test]
fn exemplars_match_engine_fault_log_and_attribute() {
    for policy in [
        FetchPolicy::eager(SubpageSize::S1K),
        FetchPolicy::pipelined(SubpageSize::S1K),
        FetchPolicy::fullpage(),
    ] {
        let label = policy.label();
        let mut flight = FlightRecorder::new(4);
        let report = Simulator::new(serial_config(policy))
            .run_recorded(&apps::gdb().scaled(0.1), &mut flight);

        let exemplars = flight.exemplars();
        assert!(!exemplars.is_empty(), "{label}: runs with faults retain");
        assert!(exemplars.len() <= 4);
        for ex in &exemplars {
            // Each exemplar is the fault-log entry taken at the same
            // time, with the same final wait: the chain heard about
            // all of its stalls.
            let f = report
                .fault_log
                .iter()
                .find(|f| f.at == ex.fault_at)
                .unwrap_or_else(|| panic!("{label}: exemplar at {} not logged", ex.fault_at));
            assert_eq!(
                (f.at_ref, f.kind, f.wait),
                (ex.at_ref, ex.class, ex.wait),
                "{label}: exemplar (page {}) disagrees with its fault record",
                ex.page
            );
        }

        // The exemplar stream replays through the attribution walk
        // with per-fault conservation checked inside `attribute`.
        let stream = flight.exemplar_events();
        let attrib = attribute(&stream).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(attrib.faults.len(), exemplars.len());
        let mut attributed: Vec<u64> = attrib
            .faults
            .iter()
            .map(|f| f.total_wait().as_nanos())
            .collect();
        let mut recorded: Vec<u64> = exemplars.iter().map(|e| e.wait.as_nanos()).collect();
        attributed.sort_unstable();
        recorded.sort_unstable();
        assert_eq!(attributed, recorded, "{label}: decompositions match");
    }
}

#[test]
fn flight_recording_never_perturbs_the_run() {
    let app = apps::gdb().scaled(0.1);
    let baseline = Simulator::new(serial_config(FetchPolicy::eager(SubpageSize::S1K))).run(&app);
    let mut flight = FlightRecorder::new(2);
    let recorded = Simulator::new(serial_config(FetchPolicy::eager(SubpageSize::S1K)))
        .run_recorded(&app, &mut flight);
    assert_eq!(baseline, recorded, "recorder is a write-only side channel");
}

#[test]
fn cluster_flight_covers_every_active_node() {
    let config = SimConfig::builder()
        .policy(FetchPolicy::eager(SubpageSize::S1K))
        .memory(MemoryConfig::Half)
        .cluster_nodes(4)
        .build();
    let app = apps::gdb().scaled(0.1);
    let mut flight = FlightRecorder::new(3);
    let report = ClusterSim::new(config).run_recorded(&[app.clone(), app], &mut flight);

    // Each node keeps its own reservoir.
    let exemplars = flight.exemplars();
    for node in 0..report.nodes.len() as u32 {
        let kept = exemplars.iter().filter(|e| e.node.index() == node).count();
        assert!((1..=3).contains(&kept), "node {node} kept {kept}");
    }
    // Exemplars from a cluster stream still replay through attribute.
    let attrib = attribute(&flight.exemplar_events()).expect("cluster exemplars attributable");
    assert_eq!(attrib.faults.len(), flight.retained());
    // And the recorder held O(K) chains, far fewer than the run's faults.
    let faults: u64 = report.nodes.iter().map(|n| n.faults.total()).sum();
    assert!(flight.retained() <= 3 * report.nodes.len());
    assert!(flight.dropped() > 0 && (flight.retained() as u64) < faults);
}
