//! Bad command-line values come back as a `CliError`, never a panic
//! deep in the simulator, and the values next to them that are valid
//! stay accepted.

use gms_cli::execute;

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_owned).collect()
}

/// Runs `line`, turning a panic into a test failure that names the
/// command line.
fn outcome(line: &str) -> Result<String, String> {
    std::panic::catch_unwind(|| execute(&argv(line)))
        .unwrap_or_else(|_| panic!("`{line}` panicked instead of returning an error"))
        .map_err(|e| e.to_string())
}

#[test]
fn bad_flag_values_are_errors_not_panics() {
    let dir = std::env::temp_dir().join(format!("gms-flag-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("regular-file");
    std::fs::write(&file, "not a directory").unwrap();
    let metrics = dir.join("m.json");

    let mut cases: Vec<String> = Vec::new();
    for cmd in [
        "run --app gdb --policy sp_1024",
        "sweep --app gdb",
        "cluster --nodes 4 --active 2",
        "profile --app gdb --policy sp_1024",
        "explain --app gdb --policy sp_1024",
        "heat --app gdb --policy sp_1024",
    ] {
        for scale in ["0", "-1", "nan", "inf", "1e18", "1e300"] {
            cases.push(format!("{cmd} --scale {scale}"));
        }
    }
    cases.push("explain --app gdb --policy sp_1024 --scale 0.05 --window 0.1ns".into());
    cases.push(format!(
        "run --app gdb --policy sp_1024 --scale 0.05 --metrics-out {} --metrics-window 0.1ns",
        metrics.display()
    ));
    let cluster = "cluster --nodes 5 --active 2 --scale 0.05 --fault-plan";
    let run = "run --app gdb --policy sp_1024 --scale 0.05 --fault-plan";
    for plan in [
        // Nodes outside the cluster: 5 nodes here, the default 4 for run.
        "crash=n9@10%",
        "recover=n5@10%",
        "degrade=n7@0%..100%x2",
        // Factors that overflow a duration, or that NaN would make free.
        "degrade=n2@0%..100%xinf",
        "degrade=n2@0%..100%x1e15",
        "degrade=n2@0%..100%xnan",
        "degrade=n2@0%..100%x1e5,degrade=n2@0%..100%x1e5,degrade=n2@0%..100%x1e5",
        // Times that an unchecked cast would read as 0 ns or as never.
        "crash=n3@-5%",
        "crash=n3@nanms",
        "crash=n3@infs",
    ] {
        cases.push(format!("{cluster} {plan}"));
    }
    cases.push(format!("{run} crash=n9@10%"));
    cases.push(format!("{run} degrade=n4@0%..100%x2"));
    cases.push("latency --subpage 0".into());
    cases.push(format!(
        "sweep --app gdb --scale 0.05 --jobs 1 --policies p_8192 --trace-dir {}/sub",
        file.display()
    ));

    for line in &cases {
        assert!(outcome(line).is_err(), "`{line}` must be rejected");
    }
    // Accepted before the checks were added, and still accepted.
    for line in [
        "latency --subpage 3",
        "run --app gdb --policy sp_1024 --scale 1e-300",
        "run --app gdb --policy sp_1024 --scale 0.05 --memory 0",
        "explain --app gdb --policy sp_1024 --scale 0.05 --window 1ns",
        "cluster --nodes 5 --active 2 --scale 0.05 --fault-plan crash=n3@0ns",
        "run --app gdb --policy sp_1024 --scale 0.05 --fault-plan crash=n1@3600s",
        "cluster --nodes 5 --active 2 --scale 0.05 --fault-plan degrade=n2@0%..100%x2",
        "cluster --nodes 5 --active 2 --scale 0.05 --fault-plan degrade=n2@0%..100%x1000",
    ] {
        if let Err(e) = outcome(line) {
            panic!("`{line}` must still be accepted: {e}");
        }
    }
    assert!(!metrics.exists(), "a rejected command wrote its output");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn subpages_too_small_for_an_8k_page_are_refused() {
    // An 8 KB page has room for 64 subpage valid bits, so 128 B is the
    // smallest subpage; 64 B used to panic deep in the page geometry.
    let labels = [
        "sp_64",
        "pl_64",
        "pl_64_asc",
        "pl_64_dbl",
        "pl_64_half_mrecv",
        "lazy_64",
        "leap_64",
        "indigo_64",
    ];
    let mut cases: Vec<String> = labels
        .iter()
        .map(|p| format!("run --app gdb --scale 0.02 --policy {p}"))
        .collect();
    for cmd in [
        "cluster --nodes 4 --active 2 --scale 0.02",
        "profile --app gdb --scale 0.02",
        "explain --app gdb --scale 0.02",
        "heat --app gdb --scale 0.02",
    ] {
        cases.push(format!("{cmd} --policy sp_64"));
    }
    cases.push("sweep --app gdb --scale 0.02 --jobs 1 --policies p_8192,sp_64".into());
    for line in &cases {
        match outcome(line) {
            Ok(_) => panic!("`{line}` must be rejected"),
            Err(e) => assert!(
                e.contains("bad subpage size '64' (power of two in 128..=8192)"),
                "`{line}`: {e}"
            ),
        }
    }
    for line in [
        "run --app gdb --scale 0.02 --policy sp_128",
        "run --app gdb --scale 0.02 --policy lazy_128",
    ] {
        if let Err(e) = outcome(line) {
            panic!("`{line}` must still be accepted: {e}");
        }
    }
}
