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
//! trajectory views, and its measured calls read forward.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use streach_core::config::IndexConfig;
use streach_core::query::verifier::VerifierCore;
use streach_core::st_index::StIndex;
use streach_roadnet::{GeneratorConfig, SegmentId, SyntheticCity};
use streach_traj::{FleetConfig, TrajectoryDataset};

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
    let st = StIndex::build(network.clone(), &dataset, &config);

    // A busy daytime start segment and a spread of candidates: its
    // successors (hot postings), a far corner (cold/absent postings), and a
    // sweep of arbitrary segments.
    let traj = &dataset.trajectories()[0];
    let start = traj.visits[0];
    let core = VerifierCore::new(&st, start.segment, start.enter_time_s, 900).unwrap();
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
        let forward = VerifierCore::new(&st, start.segment, start.enter_time_s, 900).unwrap();
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
    });
}
