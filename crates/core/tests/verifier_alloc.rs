//! The verification hot path allocates nothing per segment: after warm-up,
//! a [`VerifierCore::probabilities`] batch makes the same few allocations
//! (its output, its day bits and, reading segment-major, its copy buffer)
//! whether it verifies one segment or a hundred and twenty.
//!
//! A counting global allocator tallies every `alloc`/`realloc` while armed.
//! The test warms the verifier (the buffer pool caches every posting page
//! the batch touches), then re-verifies the same batches with the counter
//! armed, on the calling thread so that no worker spawn is counted. A core
//! plans its window slots on its first call, so the first core reads
//! segment-major throughout; a second core's first call builds the window's
//! trajectory views, and its measured calls read forward. After an ingested
//! day, whose fold drops the views of the slots it touches, two more cores
//! rebuild them over the delta lists, and a forward batch through them
//! allocates what one through the sealed base does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use streach_core::config::IndexConfig;
use streach_core::query::verifier::VerifierCore;
use streach_core::EngineBuilder;
use streach_roadnet::{GeneratorConfig, SegmentId, SyntheticCity};
use streach_traj::{FleetConfig, TrajPoint, TrajectoryDataset};

struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made by one `probabilities` call, and its answers.
fn counted(core: &VerifierCore<'_>, batch: &[SegmentId]) -> (usize, Vec<f64>) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let answers = core.probabilities(batch);
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), answers.unwrap())
}

#[test]
fn warm_batches_allocate_nothing_per_segment() {
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 20,
            num_days: 5,
            ..FleetConfig::tiny()
        },
    );
    // A pool big enough that every posting page the batch touches stays
    // resident once read.
    let config = IndexConfig {
        pool_pages: 16_384,
        ..Default::default()
    };
    let engine = EngineBuilder::new(network.clone(), &dataset)
        .index_config(config)
        .build();
    let st = engine.st_index();

    // A busy daytime start segment and a spread of candidates: its
    // successors (hot postings), a far corner (cold/absent postings), and a
    // sweep of arbitrary segments.
    let traj = &dataset.trajectories()[0];
    let start = traj.visits[0];
    let core = VerifierCore::new(st, start.segment, start.enter_time_s, 900).unwrap();
    assert!(
        core.active_days() > 0,
        "start segment must be active for a meaningful test"
    );

    let candidates: Vec<SegmentId> = network.segment_ids().step_by(7).take(120).collect();
    streach_par::with_worker_override(1, || {
        // Warm-up: pull the touched posting pages into the buffer pool.
        let warm = core.probabilities(&candidates).unwrap();
        assert!(
            warm.iter().any(|&p| p > 0.0),
            "some candidate must be reachable"
        );

        // Measured passes: identical batches, armed allocator.
        let (one, single) = counted(&core, &candidates[..1]);
        let (all, measured) = counted(&core, &candidates);
        assert_eq!(warm, measured, "warm-up and measured passes must agree");
        assert_eq!(single, warm[..1]);
        assert_eq!(
            all,
            one,
            "a warm batch of {} segments must allocate what a batch of one does",
            candidates.len()
        );
        assert!(
            all <= 3,
            "a warm batch allocates its output, its day bits and its copy \
             buffer, nothing more ({all} allocations)"
        );

        // The same batches read forward.
        let forward = VerifierCore::new(st, start.segment, start.enter_time_s, 900).unwrap();
        assert_eq!(forward.probabilities(&candidates).unwrap(), warm);
        assert!(st.view_stats().views_built > 0);
        let (one, single) = counted(&forward, &candidates[..1]);
        let (all, measured) = counted(&forward, &candidates);
        assert_eq!(warm, measured, "forward and segment-major reads must agree");
        assert_eq!(single, warm[..1]);
        assert_eq!(all, one, "a forward batch allocates nothing per segment");
        assert!(
            all <= 2,
            "a forward batch allocates its output and its day bits, nothing \
             more ({all} allocations)"
        );
        let sealed = all;

        // One ingested day: the start trajectory's day driven again on a
        // new date, and under new IDs on its own date, so every window slot
        // the start trajectory passes holds delta lists.
        let new_date = dataset.num_days();
        let day: Vec<TrajPoint> = dataset
            .trajectories()
            .iter()
            .filter(|t| t.date == traj.date)
            .flat_map(|t| {
                t.visits.iter().flat_map(move |v| {
                    [(t.traj_id, new_date), (t.traj_id + 1_000_000, t.date)].map(
                        |(traj_id, date)| TrajPoint {
                            traj_id,
                            date,
                            segment: v.segment,
                            enter_time_s: v.enter_time_s,
                        },
                    )
                })
            })
            .collect();
        engine.ingest(&day).unwrap();
        assert!(st.delta_stats().delta_lists > 0);
        let new_core = || VerifierCore::new(st, start.segment, start.enter_time_s, 900).unwrap();
        // Segment-major, then build, then the measured forward core.
        let segment_major = new_core().probabilities(&candidates).unwrap();
        let views = st.view_stats().views_built;
        assert_eq!(
            new_core().probabilities(&candidates).unwrap(),
            segment_major
        );
        assert!(st.view_stats().views_built > views, "no view was rebuilt");
        let ingested = new_core();
        assert_eq!(ingested.probabilities(&candidates).unwrap(), segment_major);
        assert!(ingested.view_pairs_walked() > 0, "the core walks no view");
        let (one, single) = counted(&ingested, &candidates[..1]);
        let (all, measured) = counted(&ingested, &candidates);
        assert_eq!(
            measured, segment_major,
            "forward and segment-major reads must agree"
        );
        assert_eq!(single, segment_major[..1]);
        assert_eq!(all, one, "a forward batch allocates nothing per segment");
        assert_eq!(
            all, sealed,
            "a forward batch through the delta allocates what one through \
             the sealed base does ({all} allocations against {sealed})"
        );
    });
}
