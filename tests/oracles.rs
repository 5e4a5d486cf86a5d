//! Replacement oracles: the engine's page-fault counts checked against
//! models built from the trace and `MemoryConfig::frames` alone, with no
//! call into the engine's own replacement or paging code.
//!
//! A page fault happens only when the program moves to a page that is not
//! resident, so the trace reduces to its page sequence with consecutive
//! repeats merged. Under LRU replacement every fetch policy must take
//! exactly the faults of a plain LRU over that sequence (subpage refills
//! are not page faults); under any replacement policy it must take at
//! least Belady's MIN, the offline optimum (Belady, 1966). Non-Linear
//! Paging (PAPERS.md) uses the same bound for subpage fetches. Under
//! FIFO and Clock it must take exactly the faults of the textbook ring
//! of frames each is.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use gms_subpages::core::{FetchPolicy, MemoryConfig, ReplacementKind, SimConfig, Simulator};
use gms_subpages::mem::SubpageSize;
use gms_subpages::trace::apps::{self, AppProfile};
use gms_subpages::trace::synth::LAYOUT_BASE;
use gms_subpages::trace::{AccessKind, Run, TraceSource, VecSource};
use gms_subpages::units::{Bytes, VirtAddr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PAGE: u64 = 8192;
const MEMORIES: [MemoryConfig; 3] = [
    MemoryConfig::Full,
    MemoryConfig::Half,
    MemoryConfig::Quarter,
];

/// `disk_8192`, `p_8192`, `sp_1024`, `pl_1024`, `lazy_1024`, `leap_1024`,
/// `indigo_1024` and `sp_256`.
fn fetch_policies() -> [FetchPolicy; 8] {
    [
        FetchPolicy::disk(),
        FetchPolicy::fullpage(),
        FetchPolicy::eager(SubpageSize::S1K),
        FetchPolicy::pipelined(SubpageSize::S1K),
        FetchPolicy::lazy(SubpageSize::S1K),
        FetchPolicy::leap(SubpageSize::S1K),
        FetchPolicy::indigo(SubpageSize::S1K),
        FetchPolicy::eager(SubpageSize::S256),
    ]
}

/// The pages a trace visits, in order, with consecutive repeats merged.
/// A run whose step is at most a page visits every page between its
/// first and last reference; a longer step lands each reference on a
/// page of its own.
fn page_sequence(source: &mut dyn TraceSource) -> Vec<u64> {
    let mut seq: Vec<u64> = Vec::new();
    let mut visit = |page: u64| {
        if seq.last() != Some(&page) {
            seq.push(page);
        }
    };
    while let Some(run) = source.next_run() {
        let first = run.start().get() / PAGE;
        let last = run.last_addr().get() / PAGE;
        if run.stride().unsigned_abs() > PAGE {
            (0..run.count()).for_each(|i| visit(run.addr_at(i).get() / PAGE));
        } else if first <= last {
            (first..=last).for_each(&mut visit);
        } else {
            (last..=first).rev().for_each(&mut visit);
        }
    }
    seq
}

/// Faults of a plain LRU with `frames` frames over `seq`.
fn lru_faults(seq: &[u64], frames: u64) -> u64 {
    let mut last_use: HashMap<u64, usize> = HashMap::new();
    let mut by_age: BTreeMap<usize, u64> = BTreeMap::new();
    let mut faults = 0;
    for (t, &page) in seq.iter().enumerate() {
        match last_use.insert(page, t) {
            Some(prev) => {
                by_age.remove(&prev);
            }
            None => {
                faults += 1;
                if by_age.len() as u64 == frames {
                    let (_, victim) = by_age.pop_first().expect("memory is full");
                    last_use.remove(&victim);
                }
            }
        }
        by_age.insert(t, page);
    }
    faults
}

/// Faults of Belady's MIN with `frames` frames over `seq`: on a fault
/// with memory full, evict the resident page whose next use is furthest
/// away (never used again counts as furthest).
fn min_faults(seq: &[u64], frames: u64) -> u64 {
    let mut next_use = vec![usize::MAX; seq.len()];
    let mut seen: HashMap<u64, usize> = HashMap::new();
    for (t, &page) in seq.iter().enumerate().rev() {
        next_use[t] = seen.insert(page, t).unwrap_or(usize::MAX);
    }
    // Resident pages keyed by (next use, page); the last entry is the
    // victim.
    let mut resident: BTreeSet<(usize, u64)> = BTreeSet::new();
    let mut due: HashMap<u64, usize> = HashMap::new();
    let mut faults = 0;
    for (t, &page) in seq.iter().enumerate() {
        match due.get(&page) {
            Some(&at) => {
                resident.remove(&(at, page));
            }
            None => {
                faults += 1;
                if resident.len() as u64 == frames {
                    let (_, victim) = resident.pop_last().expect("memory is full");
                    due.remove(&victim);
                }
            }
        }
        resident.insert((next_use[t], page));
        due.insert(page, next_use[t]);
    }
    faults
}

/// Faults of a ring of `frames` frames over `seq`, as in Tanenbaum's
/// *Modern Operating Systems*: frames fill in order; on a fault with
/// memory full the hand's page goes, the new page takes its frame, and
/// the hand moves one past it. With `second_chance` this is the clock:
/// every visit sets the page's referenced bit, and a referenced page
/// under the hand loses the bit instead of its frame. Without it the
/// hand always rests on the oldest page, which is FIFO.
fn ring_faults(seq: &[u64], frames: u64, second_chance: bool) -> u64 {
    let mut ring: Vec<(u64, bool)> = Vec::new();
    let mut slot: HashMap<u64, usize> = HashMap::new();
    let mut hand = 0;
    let mut faults = 0;
    for &page in seq {
        if let Some(&i) = slot.get(&page) {
            ring[i].1 = second_chance;
            continue;
        }
        faults += 1;
        if (ring.len() as u64) < frames {
            slot.insert(page, ring.len());
            ring.push((page, second_chance));
            continue;
        }
        while ring[hand].1 {
            ring[hand].1 = false;
            hand = (hand + 1) % ring.len();
        }
        slot.remove(&ring[hand].0);
        slot.insert(page, hand);
        ring[hand] = (page, second_chance);
        hand = (hand + 1) % ring.len();
    }
    faults
}

fn config(policy: FetchPolicy, memory: MemoryConfig, replacement: ReplacementKind) -> SimConfig {
    SimConfig::builder()
        .policy(policy)
        .memory(memory)
        .replacement(replacement)
        .build()
}

/// The five paper apps at scale 0.2, each with its page sequence and
/// footprint in pages.
fn paper_apps() -> Vec<(AppProfile, Vec<u64>, u64)> {
    apps::all()
        .into_iter()
        .map(|app| {
            let app = app.scaled(0.2);
            let seq = page_sequence(&mut *app.source());
            let pages = app.footprint().get().div_ceil(PAGE);
            (app, seq, pages)
        })
        .collect()
}

/// Every fetch policy under LRU takes exactly a plain LRU's page faults
/// on every paper app at full, half and quarter memory.
#[test]
fn lru_oracle_matches_every_fetch_policy_on_the_paper_apps() {
    for (app, seq, pages) in paper_apps() {
        for memory in MEMORIES {
            let expected = lru_faults(&seq, memory.frames(pages));
            for policy in fetch_policies() {
                let r = Simulator::new(config(policy, memory, ReplacementKind::Lru)).run(&app);
                assert_eq!(
                    r.faults.remote + r.faults.disk,
                    expected,
                    "{} {} {}",
                    app.name(),
                    policy.label(),
                    memory.label()
                );
            }
        }
    }
}

/// A seeded trace of short runs over a 64-page footprint whose strides
/// reach two pages either way, so runs cross page boundaries upward and
/// downward and skip whole pages (|stride| > page size).
fn random_runs() -> Vec<Run> {
    let mut rng = SmallRng::seed_from_u64(26);
    let span = 64 * PAGE;
    (0..4_000)
        .map(|_| {
            let step = rng.gen_range(0..=2 * PAGE as i64 / 8) * 8;
            let stride = if rng.gen_bool(0.5) { step } else { -step };
            let count = rng.gen_range(1..=24u64);
            let reach = (count - 1) * stride.unsigned_abs();
            let (lo, hi) = if stride >= 0 {
                (0, span - reach)
            } else {
                (reach, span)
            };
            let offset = rng.gen_range(lo / 8..hi / 8) * 8;
            let kind = if rng.gen_bool(0.3) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            Run::new(
                VirtAddr::new(LAYOUT_BASE.get() + offset),
                stride,
                count,
                kind,
            )
        })
        .collect()
}

/// The LRU oracle on a trace whose runs cross pages in both directions
/// and skip pages, where a run's first and last page are not the whole
/// story.
#[test]
fn lru_oracle_matches_a_random_trace_that_crosses_and_skips_pages() {
    let runs = random_runs();
    assert!(runs.iter().any(|r| r.stride() > PAGE as i64));
    assert!(runs.iter().any(|r| r.stride() < -(PAGE as i64)));
    let seq = page_sequence(&mut VecSource::new(runs.clone()));
    let footprint = Bytes::new(64 * PAGE);
    for memory in MEMORIES {
        let expected = lru_faults(&seq, memory.frames(64));
        for policy in fetch_policies() {
            let r = Simulator::new(config(policy, memory, ReplacementKind::Lru)).run_trace(
                &mut VecSource::new(runs.clone()),
                footprint,
                LAYOUT_BASE,
            );
            assert_eq!(
                r.faults.remote + r.faults.disk,
                expected,
                "{} {}",
                policy.label(),
                memory.label()
            );
        }
    }
}

/// No replacement policy beats Belady's MIN, and MIN is strictly lower
/// than LRU somewhere memory is short. The same runs check FIFO and
/// Clock against their ring models exactly.
#[test]
fn belady_min_floors_every_replacement_policy() {
    let replacements = [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::Clock,
        ReplacementKind::Random2 { seed: 1 },
    ];
    let mut headroom = false;
    for (app, seq, pages) in paper_apps() {
        for memory in MEMORIES {
            let frames = memory.frames(pages);
            let floor = min_faults(&seq, frames);
            headroom |= floor < lru_faults(&seq, frames);
            for replacement in replacements {
                let cfg = config(FetchPolicy::fullpage(), memory, replacement);
                let r = Simulator::new(cfg).run(&app);
                let faults = r.faults.remote + r.faults.disk;
                assert!(
                    faults >= floor,
                    "{} {} {replacement:?}: {faults} faults under MIN's {floor}",
                    app.name(),
                    memory.label()
                );
                let model = match replacement {
                    ReplacementKind::Fifo => ring_faults(&seq, frames, false),
                    ReplacementKind::Clock => ring_faults(&seq, frames, true),
                    _ => continue,
                };
                assert_eq!(
                    faults,
                    model,
                    "{} {} {replacement:?}: the ring model takes {model}",
                    app.name(),
                    memory.label()
                );
            }
        }
    }
    assert!(headroom, "MIN never beat LRU");
}

/// The oracles themselves, on the textbook reference string with three
/// frames (Silberschatz et al., *Operating System Concepts*): LRU takes
/// 12 faults and MIN 9.
#[test]
fn oracles_match_the_textbook_reference_string() {
    let seq = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1];
    assert_eq!(lru_faults(&seq, 3), 12);
    assert_eq!(min_faults(&seq, 3), 9);
    assert_eq!(ring_faults(&seq, 3, false), 15);
}
