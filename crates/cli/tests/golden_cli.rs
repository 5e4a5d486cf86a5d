//! Golden digests of `gms-sim`'s bytes: every command of a fixed matrix
//! runs through [`gms_cli::execute`], and the FNV-1a 64 digest of its
//! stdout and of every file it writes is pinned. `check-trace` then
//! re-validates every artifact it has a validator for, and its stdout is
//! pinned too. Any change to a report line, an exported document or a
//! validator message fails here.
//!
//! The scratch directory's path appears in stdout (`trace: <path> ...`),
//! so it is replaced with a fixed token before hashing. To regenerate
//! after an *intentional* output change, run the test and copy the table
//! it prints on failure.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use gms_cli::execute;

/// FNV-1a 64: dependency-free, stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stands in for the scratch directory in hashed stdout.
const DIR_TOKEN: &str = "<dir>";

/// The command matrix: `(case, command line)`, with `{d}` standing for
/// the scratch directory. File names end in the suffix `check-trace`
/// validates them by (see [`CHECKS`]).
const MATRIX: &[(&str, &str)] = &[
    ("apps", "apps"),
    ("latency", "latency"),
    ("latency-512", "latency --subpage 512"),
    ("run", "run --app gdb --policy sp_1024 --scale 0.1"),
    (
        "run-pal",
        "run --app gdb --policy sp_1024 --scale 0.1 --pal",
    ),
    (
        "run-fifo",
        "run --app gdb --policy sp_1024 --scale 0.1 --replacement fifo",
    ),
    (
        "run-clock",
        "run --app gdb --policy pl_1024 --scale 0.1 --replacement clock",
    ),
    (
        "run-random2",
        "run --app gdb --policy lazy_1024 --scale 0.1 --replacement random2",
    ),
    (
        "run-ethernet",
        "run --app modula3 --policy p_8192 --memory quarter --scale 0.05 --net ethernet",
    ),
    (
        "run-slo",
        "run --app gdb --policy sp_1024 --scale 0.1 --slo 1ms",
    ),
    (
        "run-fault-plan",
        "run --app gdb --policy sp_1024 --scale 0.1 \
         --fault-plan loss=0.02,seed=3,degrade=n1@10%..60%x3",
    ),
    (
        "run-all-out",
        "run --app gdb --policy sp_1024 --scale 0.1 --slo 2ms \
         --trace-out {d}/run-all.trace.json --summary-json {d}/run-all.summary.json \
         --metrics-out {d}/run-all.metrics.json --prom-out {d}/run-all.prom.txt \
         --heat-out {d}/run-all.heat.json --regions 16",
    ),
    (
        "run-trace-out",
        "run --app gdb --policy leap_1024 --scale 0.1 --trace-out {d}/run-leap.trace.json",
    ),
    (
        "run-metrics-out",
        "run --app gdb --policy sp_1024 --scale 0.1 --metrics-out {d}/run-m.metrics.json \
         --metrics-window 500us",
    ),
    (
        "run-heat-out",
        "run --app modula3 --policy indigo_1024 --scale 0.05 --heat-out {d}/run-h.heat.json \
         --summary-json {d}/run-h.summary.json",
    ),
    (
        "cluster",
        "cluster --nodes 4 --active 2 --app gdb --scale 0.1",
    ),
    (
        "cluster-heat-out",
        "cluster --nodes 5 --active 2 --app gdb --scale 0.1 \
         --heat-out {d}/cluster-h.heat.json",
    ),
    (
        "cluster-all-out",
        "cluster --nodes 5 --active 2 --app gdb --policy pl_1024 --scale 0.1 --slo 1ms \
         --trace-out {d}/cluster-all.trace.json --summary-json {d}/cluster-all.summary.json \
         --metrics-out {d}/cluster-all.metrics.json --prom-out {d}/cluster-all.prom.txt \
         --heat-out {d}/cluster-all.heat.json --regions 32",
    ),
    (
        "cluster-threads",
        "cluster --nodes 6 --active 3 --app gdb --scale 0.05",
    ),
    (
        "cluster-replicas",
        "cluster --nodes 5 --active 2 --app gdb --scale 0.1 --replicas 2 \
         --fault-plan loss=0.01,crash=n3@25%,degrade=n4@10%..50%x4,seed=2 \
         --trace-out {d}/cluster-rep.trace.json --summary-json {d}/cluster-rep.summary.json",
    ),
    (
        "sweep",
        "sweep --app gdb --scale 0.1 --jobs 2 --policies pl_1024,leap_1024,indigo_1024 \
         --trace-dir {d}/sweep --heat-out {d}/sweep.heat.json --fault-plan loss=0.01,seed=4",
    ),
    (
        "profile-resource",
        "profile --app gdb --policy sp_1024 --scale 0.1 --by resource \
         --json {d}/profile-res.attrib.json",
    ),
    (
        "profile-class",
        "profile --app gdb --policy leap_1024 --scale 0.1 --by class \
         --json {d}/profile-class.attrib.json",
    ),
    (
        "profile-node",
        "profile --app gdb --policy sp_1024 --scale 0.1 --by node \
         --json {d}/profile-node.attrib.json",
    ),
    (
        "profile-cluster-resource",
        "profile --app gdb --policy sp_1024 --scale 0.05 --nodes 5 --active 2 --by resource \
         --json {d}/profile-cl-res.attrib.json",
    ),
    (
        "profile-cluster-class",
        "profile --app gdb --policy indigo_1024 --scale 0.05 --nodes 5 --active 2 --by class \
         --json {d}/profile-cl-class.attrib.json",
    ),
    (
        "profile-cluster-node",
        "profile --app gdb --policy sp_1024 --scale 0.05 --nodes 5 --active 2 --by node \
         --fault-plan loss=0.01,seed=1 --json {d}/profile-cl-node.attrib.json",
    ),
    (
        "profile-leap-lossy",
        "profile --app gdb --policy leap_1024 --scale 0.1 --fault-plan loss=0.05,seed=2 \
         --json {d}/profile-leap-lossy.attrib.json",
    ),
    (
        "explain",
        "explain --app gdb --policy sp_1024 --scale 0.1 --worst 3 --window 20ms --slo 500us \
         --json {d}/explain.explain.json --trace-out {d}/explain.trace.json",
    ),
    (
        "explain-cluster",
        "explain --app gdb --policy sp_1024 --scale 0.05 --nodes 5 --active 2 \
         --worst 2 --window 10ms --json {d}/explain-cl.explain.json \
         --trace-out {d}/explain-cl.trace.json",
    ),
    (
        "explain-lossy",
        "explain --app atom --policy sp_1024 --scale 0.05 --memory quarter --worst 4 \
         --window 500us --slo 900us --fault-plan loss=0.3,seed=9 \
         --json {d}/explain-lossy.explain.json",
    ),
    (
        "explain-cluster-crash",
        "explain --app gdb --policy leap_1024 --scale 0.1 --nodes 5 --active 2 --worst 2 \
         --window 5ms --slo 700us --fault-plan loss=0.05,seed=7,crash=n4@40% \
         --json {d}/explain-cl-crash.explain.json --trace-out {d}/explain-cl-crash.trace.json",
    ),
    (
        "heat-region",
        "heat --app gdb --policy sp_1024 --scale 0.1 --by region --top 5 \
         --json {d}/heat-region.heat.json --perfetto-out {d}/heat-region.counters.json",
    ),
    (
        "heat-page",
        "heat --app gdb --policy leap_1024 --scale 0.1 --by page \
         --json {d}/heat-page.heat.json --perfetto-out {d}/heat-page.counters.json",
    ),
    (
        "heat-node",
        "heat --app gdb --policy sp_1024 --scale 0.1 --by node \
         --json {d}/heat-node.heat.json --perfetto-out {d}/heat-node.counters.json",
    ),
    (
        "heat-cluster-region",
        "heat --app gdb --policy indigo_1024 --scale 0.05 --nodes 7 --active 4 --regions 16 \
         --json {d}/heat-cl-region.heat.json --perfetto-out {d}/heat-cl-region.counters.json",
    ),
    (
        "heat-cluster-page",
        "heat --app gdb --policy sp_1024 --scale 0.05 --nodes 5 --active 2 --by page \
         --json {d}/heat-cl-page.heat.json --perfetto-out {d}/heat-cl-page.counters.json",
    ),
    (
        "heat-cluster-node",
        "heat --app gdb --policy sp_1024 --scale 0.05 --nodes 5 --active 2 \
         --by node --fault-plan crash=n4@30% --json {d}/heat-cl-node.heat.json \
         --perfetto-out {d}/heat-cl-node.counters.json",
    ),
];

/// `(file suffix, check-trace flag)`: how each written file is
/// re-validated. Prometheus text and heat counter tracks have no
/// validator; their bytes are pinned all the same.
const CHECKS: &[(&str, &str)] = &[
    (".trace.json", "--trace"),
    (".summary.json", "--summary"),
    (".metrics.json", "--metrics"),
    (".attrib.json", "--attrib"),
    (".explain.json", "--exemplars"),
    (".heat.json", "--heat"),
];

/// The pinned digests, one `<key> <hex digest>` per line, keyed
/// `stdout:<case>`, `file:<relative path>` and `check:<relative path>`.
const GOLDEN: &str = "\
check:cluster-all.heat.json 245b4f77598fecfc
check:cluster-all.heat.json+cluster-all.summary.json 2017a11aa5addb75
check:cluster-all.metrics.json 38c6ae1e9eeaad3c
check:cluster-all.summary.json 723bf521469078ac
check:cluster-all.trace.json 6f064031e76dbdfd
check:cluster-h.heat.json 06f1a163c29f643a
check:cluster-rep.summary.json 9b18f60a587d0974
check:cluster-rep.trace.json d29a0847fe39ec16
check:explain-cl-crash.explain.json 8802b1ded47c0180
check:explain-cl-crash.trace.json 598dd892c7e1a296
check:explain-cl.explain.json 3c472cf1246c9b14
check:explain-cl.trace.json 135cfc777b3b5a75
check:explain-lossy.explain.json ab759b586c211cb5
check:explain.explain.json b6b833c26545dda7
check:explain.trace.json 6f7df1d04ffef9f8
check:heat-cl-node.heat.json bf9b168360085908
check:heat-cl-page.heat.json 4c24a8cc72673981
check:heat-cl-region.heat.json 11fcc2eece5019a2
check:heat-node.heat.json 3cd3ce3f14bbb774
check:heat-page.heat.json 89b33fc560e9fc1c
check:heat-region.heat.json bb4ab59de27b2934
check:profile-cl-class.attrib.json e3cf134b79c4994e
check:profile-cl-node.attrib.json 75ca1e18690d9ac7
check:profile-cl-res.attrib.json da58881a03e24dd7
check:profile-class.attrib.json 623f763cd111185e
check:profile-leap-lossy.attrib.json 527c850a0ed67e58
check:profile-node.attrib.json d202855ad1e01b54
check:profile-res.attrib.json c67083f74e376d84
check:run-all.heat.json c685005938270d63
check:run-all.heat.json+run-all.summary.json 6a9e710a16ec6d5e
check:run-all.metrics.json 10ded56fc6698c81
check:run-all.summary.json d178f55dcbd70bba
check:run-all.trace.json cc9cb614c7a9c3a5
check:run-h.heat.json 364aebaf3a5e2d37
check:run-h.heat.json+run-h.summary.json bcb73c1161068981
check:run-h.summary.json dd9baf889752cd23
check:run-leap.trace.json 8d1bf97c7ffa6059
check:run-m.metrics.json d69ac4fdd7cb76e2
check:sweep.heat.json 0f4bbbc9eb83f43f
check:sweep/indigo_1024__1-2-mem.summary.json ecadc63da1dce708
check:sweep/indigo_1024__1-2-mem.trace.json d46d57e93cd4d66d
check:sweep/indigo_1024__1-4-mem.summary.json ef581a4412d1749e
check:sweep/indigo_1024__1-4-mem.trace.json 7271b2d7549a31c5
check:sweep/indigo_1024__full-mem.summary.json 67b1112629e0610f
check:sweep/indigo_1024__full-mem.trace.json 971a47fc12be9568
check:sweep/leap_1024__1-2-mem.summary.json d44370b1594447fc
check:sweep/leap_1024__1-2-mem.trace.json 72776d63cbfe59d5
check:sweep/leap_1024__1-4-mem.summary.json cd87cc6ba183569a
check:sweep/leap_1024__1-4-mem.trace.json 42c61d45948f1ba8
check:sweep/leap_1024__full-mem.summary.json 83dc2bde1848ecd3
check:sweep/leap_1024__full-mem.trace.json 670d59fd5e0e59b9
check:sweep/pl_1024__1-2-mem.summary.json 8b623f071928aae2
check:sweep/pl_1024__1-2-mem.trace.json 042282eeae8ef80a
check:sweep/pl_1024__1-4-mem.summary.json f06d9b20a0f574a4
check:sweep/pl_1024__1-4-mem.trace.json b1d4457309f4a39e
check:sweep/pl_1024__full-mem.summary.json 2e1e5aa121040d8d
check:sweep/pl_1024__full-mem.trace.json d4d9c8a8d09606c3
file:cluster-all.heat.json 352b65c03b7e4964
file:cluster-all.metrics.json 4ba3f59873eff06b
file:cluster-all.prom.txt bcfb17b3e204ff6a
file:cluster-all.summary.json aaf69ed91fab070b
file:cluster-all.trace.json 4c8008206725a180
file:cluster-h.heat.json d8b5432945feeeff
file:cluster-rep.summary.json b354f0980a48f7f4
file:cluster-rep.trace.json 702e76a1ad806c70
file:explain-cl-crash.explain.json 7c7596e41453d212
file:explain-cl-crash.trace.json b69179853fba227b
file:explain-cl.explain.json c76c7f61c5866724
file:explain-cl.trace.json af1a97c623a6dfd7
file:explain-lossy.explain.json 39d22bafce5cc652
file:explain.explain.json 9bf4187319e1f25a
file:explain.trace.json aefb3821e20f4302
file:heat-cl-node.counters.json e2ba25d790cbae3e
file:heat-cl-node.heat.json 9771cda8c4a92862
file:heat-cl-page.counters.json 09eb31c658549f11
file:heat-cl-page.heat.json 8c24a061fa59f1b9
file:heat-cl-region.counters.json f50444e7310d9fa1
file:heat-cl-region.heat.json 5049863182a05ba7
file:heat-node.counters.json b2bdc5bd186535fa
file:heat-node.heat.json d0c73dba7226f3c1
file:heat-page.counters.json b476b284b715bacd
file:heat-page.heat.json a05354474311f831
file:heat-region.counters.json b2bdc5bd186535fa
file:heat-region.heat.json d0c73dba7226f3c1
file:profile-cl-class.attrib.json f18e0b090d6b1b8b
file:profile-cl-node.attrib.json 547cf24133e2ce33
file:profile-cl-res.attrib.json e28d95a1c8c8dde0
file:profile-class.attrib.json c50e32e2af7c4c39
file:profile-leap-lossy.attrib.json 46b03cab983a99e6
file:profile-node.attrib.json d5e69e32c17f306c
file:profile-res.attrib.json d5e69e32c17f306c
file:run-all.heat.json d22406dbaf2ef32a
file:run-all.metrics.json f4d7a2c052a4244b
file:run-all.prom.txt bbcc99775bc1c8bf
file:run-all.summary.json b7d24a15a330e76f
file:run-all.trace.json 09f8aae5d5bfdf65
file:run-h.heat.json 433ff0a5af78087d
file:run-h.summary.json 52ab0693cee27b35
file:run-leap.trace.json 90ae06e57a43f200
file:run-m.metrics.json 108e2345c9a80178
file:sweep.heat.json 1134c322fbab37e5
file:sweep/indigo_1024__1-2-mem.summary.json ad215af4c4266cb9
file:sweep/indigo_1024__1-2-mem.trace.json be2efd05f9db6cfc
file:sweep/indigo_1024__1-4-mem.summary.json 57256a0b0e7a6e62
file:sweep/indigo_1024__1-4-mem.trace.json aef7baa18bfb14e8
file:sweep/indigo_1024__full-mem.summary.json c1316356adc9f1e6
file:sweep/indigo_1024__full-mem.trace.json f7efd12c7b5a3ebd
file:sweep/leap_1024__1-2-mem.summary.json 03cce4000c7caa1b
file:sweep/leap_1024__1-2-mem.trace.json 9544f3ab78dc8401
file:sweep/leap_1024__1-4-mem.summary.json 65a025cd1f8be39e
file:sweep/leap_1024__1-4-mem.trace.json fac36ba0d47aa4d2
file:sweep/leap_1024__full-mem.summary.json e2296fc85d34ff45
file:sweep/leap_1024__full-mem.trace.json e180ffdfa9fb5b0c
file:sweep/pl_1024__1-2-mem.summary.json 22eba0f960965e86
file:sweep/pl_1024__1-2-mem.trace.json 41a59bc3aa089a04
file:sweep/pl_1024__1-4-mem.summary.json a82e6a706b0131f9
file:sweep/pl_1024__1-4-mem.trace.json c0b671032f5fcfbb
file:sweep/pl_1024__full-mem.summary.json 305633d3f8c9f980
file:sweep/pl_1024__full-mem.trace.json 11af4462896975c9
stdout:apps f7608063ca47838a
stdout:cluster 2f82b52d5d5e50d9
stdout:cluster-all-out 0dece8978629bd95
stdout:cluster-heat-out 4c3a0fafa893f35d
stdout:cluster-replicas fa09db0314ffd5ac
stdout:cluster-threads 5c86924f29a8958d
stdout:explain f14bbee90d01fe6c
stdout:explain-cluster d5c98a6d9adeecb7
stdout:explain-cluster-crash 22f468dcf8b91510
stdout:explain-lossy 17badb4a63478bd5
stdout:heat-cluster-node c4f8fc0ca4b31a64
stdout:heat-cluster-page f469e7a3d8f9b66a
stdout:heat-cluster-region bb1395b34e015791
stdout:heat-node c04af3d95111bccc
stdout:heat-page 0ea68607eec9173e
stdout:heat-region 2f8dd4bc5dbb0399
stdout:latency 933508bc5f2d7475
stdout:latency-512 9cedb0864e9d419c
stdout:profile-class f1a42831d48b93e3
stdout:profile-cluster-class 94ea1f7e2a83dc3a
stdout:profile-cluster-node b4f354bfb63edecb
stdout:profile-cluster-resource d1ba05ecd4fe0ccb
stdout:profile-leap-lossy 67cf9c2c3bf43945
stdout:profile-node 3de2d8cc700b36a3
stdout:profile-resource b588d4b8f9dc944b
stdout:run 38be74943db79183
stdout:run-all-out a3a6939ca75a150d
stdout:run-clock 325ad3404896e6f7
stdout:run-ethernet f3ce4873454109c6
stdout:run-fault-plan 5d08422ffe4d147c
stdout:run-fifo 9bd00484fb499113
stdout:run-heat-out 7c75a00173bfc32d
stdout:run-metrics-out 77334c9c2b1027f3
stdout:run-pal 2dbbf11390632929
stdout:run-random2 e02866d9cf78f3f7
stdout:run-slo 242d756524eb7861
stdout:run-trace-out e0c27be5e8ca2106
stdout:sweep 3e8869d50d5ee2f1
";

fn argv(line: &str, dir: &Path) -> Vec<String> {
    line.replace("{d}", &dir.display().to_string())
        .split_whitespace()
        .map(str::to_owned)
        .collect()
}

/// Every regular file under `dir`, recursively, sorted.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("scratch dir is readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn cli_bytes_match_the_golden_digests() {
    let dir = std::env::temp_dir().join(format!("gms-golden-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    let dir_text = dir.display().to_string();
    let mut got: BTreeMap<String, u64> = BTreeMap::new();
    let stdout_digest = |line: &str| {
        let out = execute(&argv(line, &dir)).unwrap_or_else(|e| panic!("{line}: {e}"));
        fnv1a(out.replace(&dir_text, DIR_TOKEN).as_bytes())
    };
    for (case, line) in MATRIX {
        got.insert(format!("stdout:{case}"), stdout_digest(line));
    }
    let files = files_under(&dir);
    for path in &files {
        let rel = path.strip_prefix(&dir).expect("under the scratch dir");
        let rel = rel.display().to_string();
        let name = path.display().to_string();
        if let Some((_, flag)) = CHECKS.iter().find(|(suffix, _)| name.ends_with(suffix)) {
            let line = format!("check-trace {flag} {name}");
            got.insert(format!("check:{rel}"), stdout_digest(&line));
        }
        let bytes = std::fs::read(path).expect("written file is readable");
        got.insert(format!("file:{rel}"), fnv1a(&bytes));
    }
    // Heat documents cross-checked against the summary of the same run.
    for (heat, summary) in [
        ("run-all.heat.json", "run-all.summary.json"),
        ("run-h.heat.json", "run-h.summary.json"),
        ("cluster-all.heat.json", "cluster-all.summary.json"),
    ] {
        let line = format!("check-trace --heat {{d}}/{heat} --summary {{d}}/{summary}");
        got.insert(format!("check:{heat}+{summary}"), stdout_digest(&line));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let want: BTreeMap<String, u64> = GOLDEN
        .lines()
        .map(|line| {
            let (key, hex) = line.split_once(' ').expect("`<key> <digest>` row");
            let digest = u64::from_str_radix(hex, 16).expect("hex digest");
            (key.to_owned(), digest)
        })
        .collect();
    if got != want {
        let mut table = String::new();
        for (k, v) in &got {
            table.push_str(&format!("{k} {v:016x}\n"));
        }
        let moved: std::collections::BTreeSet<&String> = got
            .keys()
            .chain(want.keys())
            .filter(|k| got.get(*k) != want.get(*k))
            .collect();
        panic!("CLI bytes moved for {moved:?}\nregenerated table:\n{table}");
    }
}
