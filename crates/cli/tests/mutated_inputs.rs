//! Input from outside the program comes back as an error, never a
//! panic: arbitrary policy labels, and every document `check-trace`
//! validates with its bytes mutated.
//!
//! The property-test engine cannot shrink, so a failure prints the
//! whole input; cut it down by hand and commit it as a regression case
//! next to these properties.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use gms_cli::{execute, parse_policy};
use proptest::prelude::*;

/// Pieces policy labels are built from, so generated labels reach every
/// branch of the parser and not only its "unknown policy" error.
const PIECES: [&str; 32] = [
    "disk",
    "disk_8192",
    "_seq",
    "p_",
    "fullpage",
    "sp_",
    "pl_",
    "lazy_",
    "leap_",
    "indigo_",
    "small_",
    "_asc",
    "_dbl",
    "_half",
    "_mrecv",
    "_",
    "0",
    "1",
    "64",
    "128",
    "256",
    "1024",
    "8192",
    "65536",
    "67108864",
    "134217728",
    "18446744073709551615",
    "18446744073709551616",
    "+",
    "-",
    " ",
    "1e3",
];

fn label() -> impl Strategy<Value = String> {
    let piece = (0..PIECES.len()).prop_map(|i| PIECES[i].to_owned());
    let any_char =
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).map_or_else(String::new, String::from));
    prop::collection::vec(prop_oneof![4 => piece, 1 => any_char], 0..6)
        .prop_map(|parts| parts.concat())
}

/// Values spliced over a number of a valid document: each keeps the
/// JSON well formed but gives a validator a value of the wrong size,
/// sign or type.
const VALUES: [&str; 12] = [
    "0",
    "1",
    "-1",
    "0.5",
    "1e300",
    "9007199254740993",
    "18446744073709551615",
    "null",
    "true",
    "\"x\"",
    "[]",
    "{}",
];

/// One edit of a document's bytes.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// Overwrite the byte at a position.
    Set(usize, u8),
    /// Cut the document at a position.
    Truncate(usize),
    /// Insert a byte at a position.
    Insert(usize, u8),
    /// Replace the number nearest after a position with one of
    /// [`VALUES`].
    Number(usize, usize),
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    let edit = (0usize..usize::MAX, 0u8..=255, 0u8..8, 0..VALUES.len()).prop_map(
        |(at, byte, how, value)| match how {
            0 => Edit::Set(at, byte),
            1 => Edit::Truncate(at),
            2 => Edit::Insert(at, byte),
            _ => Edit::Number(at, value),
        },
    );
    prop::collection::vec(edit, 1..4)
}

fn apply(doc: &[u8], edits: &[Edit]) -> Vec<u8> {
    let mut doc = doc.to_vec();
    for &edit in edits {
        match edit {
            Edit::Set(at, byte) if !doc.is_empty() => {
                let at = at % doc.len();
                doc[at] = byte;
            }
            Edit::Set(..) => {}
            Edit::Truncate(at) => doc.truncate(at % (doc.len() + 1)),
            Edit::Insert(at, byte) => doc.insert(at % (doc.len() + 1), byte),
            Edit::Number(at, value) => {
                let from = at % (doc.len() + 1);
                let Some(start) = doc[from..]
                    .iter()
                    .position(u8::is_ascii_digit)
                    .map(|i| from + i)
                else {
                    continue;
                };
                let end = doc[start..]
                    .iter()
                    .position(|b| !b.is_ascii_digit() && !b".eE+-".contains(b))
                    .map_or(doc.len(), |i| start + i);
                doc.splice(start..end, VALUES[value].bytes());
            }
        }
    }
    doc
}

/// A valid document of each kind `check-trace` validates, with the
/// flag that validates it.
struct Artifacts {
    dir: PathBuf,
    docs: Vec<(&'static str, Vec<u8>)>,
}

/// Writes every artifact once, from small gdb runs.
fn artifacts() -> &'static Artifacts {
    static ARTIFACTS: OnceLock<Artifacts> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("mutated-inputs");
        std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
        let file = |name: &str| dir.join(name).display().to_string();
        for line in [
            format!(
                "run --app gdb --policy leap_1024 --scale 0.05 --trace-out {} \
                 --summary-json {} --metrics-out {} --heat-out {}",
                file("run.trace.json"),
                file("run.summary.json"),
                file("run.metrics.json"),
                file("run.heat.json"),
            ),
            format!(
                "cluster --nodes 4 --active 2 --app gdb --scale 0.05 --slo 1ms \
                 --summary-json {} --heat-out {}",
                file("cluster.summary.json"),
                file("cluster.heat.json"),
            ),
            format!(
                "profile --app gdb --policy sp_1024 --scale 0.05 --json {}",
                file("profile.attrib.json")
            ),
            format!(
                "explain --app gdb --policy sp_1024 --scale 0.05 --worst 2 --json {}",
                file("explain.exemplars.json")
            ),
        ] {
            let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            execute(&argv).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let read = |name: &str| std::fs::read(dir.join(name)).expect("artifact was written");
        let docs = vec![
            ("--trace", read("run.trace.json")),
            ("--summary", read("run.summary.json")),
            ("--summary", read("cluster.summary.json")),
            ("--metrics", read("run.metrics.json")),
            ("--attrib", read("profile.attrib.json")),
            ("--exemplars", read("explain.exemplars.json")),
            ("--heat", read("run.heat.json")),
            ("--heat", read("cluster.heat.json")),
        ];
        Artifacts { dir, docs }
    })
}

/// Runs `check-trace` over `files`, failing the test with the command
/// line if it panics. Errors are expected.
fn check(files: &[(&str, &Path)], edits: &[Edit]) {
    let mut argv = vec!["check-trace".to_owned()];
    for (flag, path) in files {
        argv.push((*flag).to_owned());
        argv.push(path.display().to_string());
    }
    let outcome = std::panic::catch_unwind(|| execute(&argv));
    assert!(outcome.is_ok(), "{argv:?} panicked after {edits:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A label is a policy or an error, and the label of any policy it
    /// names reads back as the same policy.
    #[test]
    fn policy_labels_never_panic(label in label()) {
        if let Ok(policy) = parse_policy(&label) {
            prop_assert_eq!(parse_policy(&policy.label()).ok(), Some(policy));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every validator returns OK or an error on every mutated document.
    #[test]
    fn mutated_artifacts_never_panic(edits in edits()) {
        let artifacts = artifacts();
        for (i, (flag, doc)) in artifacts.docs.iter().enumerate() {
            let path = artifacts.dir.join(format!("mutated-{i}.json"));
            std::fs::write(&path, apply(doc, &edits)).unwrap();
            check(&[(flag, &path)], &edits);
        }
        // The heat validator's cross-check against the summary of the
        // same run, with one of the pair mutated.
        let mutated = artifacts.dir.join("mutated-pair.json");
        for run in ["run", "cluster"] {
            let summary = artifacts.dir.join(format!("{run}.summary.json"));
            let heat = artifacts.dir.join(format!("{run}.heat.json"));
            std::fs::write(&mutated, apply(&std::fs::read(&summary).unwrap(), &edits)).unwrap();
            check(&[("--summary", &mutated), ("--heat", &heat)], &edits);
            std::fs::write(&mutated, apply(&std::fs::read(&heat).unwrap(), &edits)).unwrap();
            check(&[("--summary", &summary), ("--heat", &mutated)], &edits);
        }
    }
}
