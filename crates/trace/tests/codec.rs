//! The binary trace codec never panics: arbitrary bytes and byte-mutated
//! valid files decode to `Ok` or `Err`, and any valid runs round-trip.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use gms_trace::io::{read_trace, write_trace, ReadTraceError};
use gms_trace::{AccessKind, Run, TraceSource, VecSource};
use gms_units::VirtAddr;

const MAGIC: &[u8; 8] = b"GMSTRC01";

/// Decodes `bytes`, turning a panic into a test failure that shows the
/// input, so a failing case can be minimised by hand.
fn decode(bytes: &[u8]) -> Result<Vec<Run>, ReadTraceError> {
    catch_unwind(AssertUnwindSafe(|| {
        read_trace(bytes).map(|mut source| {
            let mut runs = Vec::new();
            while let Some(run) = source.next_run() {
                runs.push(run);
            }
            runs
        })
    }))
    .unwrap_or_else(|_| panic!("read_trace panicked on {bytes:02x?}"))
}

fn encode(runs: &[Run]) -> Vec<u8> {
    let mut file = Vec::new();
    write_trace(&mut VecSource::new(runs.to_vec()), &mut file).expect("writing to a Vec");
    file
}

/// A run built from raw fields, shortened to one reference when the
/// fields would walk out of the address space.
fn run(start: u64, stride: i64, count: u64, write: bool) -> Run {
    let kind = if write {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    let last = (count - 1)
        .checked_mul(stride.unsigned_abs())
        .and_then(|span| {
            if stride >= 0 {
                start.checked_add(span)
            } else {
                start.checked_sub(span)
            }
        });
    let count = if last.is_some() { count } else { 1 };
    Run::new(VirtAddr::new(start), stride, count, kind)
}

fn runs() -> impl Strategy<Value = Vec<Run>> {
    let start = prop_oneof![0u64..0x1_0000, 0u64..=u64::MAX, (u64::MAX - 64)..=u64::MAX];
    let stride = prop_oneof![-4096i64..4096, i64::MIN..=i64::MAX];
    let count = prop_oneof![1u64..64, 1u64..=u64::MAX];
    prop::collection::vec((start, stride, count, prop::bool::ANY), 0..12).prop_map(|fields| {
        fields
            .into_iter()
            .map(|(start, stride, count, write)| run(start, stride, count, write))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Valid runs, however extreme their fields, come back unchanged.
    #[test]
    fn valid_runs_round_trip(runs in runs()) {
        prop_assert_eq!(decode(&encode(&runs)).expect("a written trace reads back"), runs);
    }

    /// Arbitrary bytes, with or without a valid header in front, are an
    /// error or a trace — never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(
        body in prop::collection::vec(0u8..=255, 0..160),
        header in 0u8..3,
        count in prop_oneof![0u64..8, 0u64..=u64::MAX],
    ) {
        let mut file = Vec::new();
        if header > 0 {
            file.extend_from_slice(MAGIC);
        }
        if header > 1 {
            file.extend_from_slice(&count.to_le_bytes());
        }
        file.extend_from_slice(&body);
        let _ = decode(&file);
    }

    /// A valid file with bytes overwritten, dropped or appended decodes
    /// to an error or to runs that are themselves valid.
    #[test]
    fn mutated_files_never_panic(
        runs in runs(),
        edits in prop::collection::vec((0usize..400, 0u8..=255, 0u8..4), 1..6),
    ) {
        let mut file = encode(&runs);
        for (at, byte, how) in edits {
            let at = at % (file.len() + 1);
            match how {
                0 | 1 if at < file.len() => file[at] = byte,
                2 => file.truncate(at),
                _ => file.insert(at, byte),
            }
        }
        if let Ok(decoded) = decode(&file) {
            // What decodes is re-encodable: every run passed `Run::new`.
            prop_assert_eq!(decode(&encode(&decoded)).expect("re-read"), decoded);
        }
    }
}

#[test]
fn header_claiming_more_runs_than_the_file_holds_is_truncated() {
    let mut file = MAGIC.to_vec();
    file.extend_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(decode(&file), Err(ReadTraceError::Truncated)));
}

#[test]
fn extreme_valid_runs_round_trip() {
    let runs = vec![
        run(0, i64::MIN, 2, true),
        run(u64::MAX, i64::MIN, 2, true),
        run(0, i64::MAX, 2, false),
        run(u64::MAX, 0, u64::MAX, false),
        run(1 << 63, -1, 1 << 63, true),
    ];
    assert_eq!(runs[0].count(), 1, "two references would walk below 0");
    assert_eq!(runs[1].count(), 2);
    assert_eq!(runs[4].count(), 1 << 63);
    assert_eq!(decode(&encode(&runs)).expect("round trip"), runs);
}
