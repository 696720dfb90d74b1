//! Randomized invariant tests for the storage engine, compared against
//! model structures (plain byte buffers).
//!
//! Formerly written with proptest; the build environment is offline, so the
//! same properties are now exercised with a seeded deterministic RNG.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streach_storage::{BufferPool, InMemoryPageStore, PageStore, PostingWriter, TimeList};

/// Any set of blobs written to the posting store reads back bit-exact,
/// regardless of interleaving and page-boundary crossings.
#[test]
fn posting_store_blob_roundtrip() {
    let mut rng = StdRng::seed_from_u64(203);
    for case in 0..32 {
        let pool_pages = rng.gen_range(1..8usize);
        let num_blobs = rng.gen_range(1..20usize);
        let blobs: Vec<Vec<u8>> = (0..num_blobs)
            .map(|_| {
                let len = rng.gen_range(0..9000usize);
                (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect()
            })
            .collect();
        let mut writer = PostingWriter::new(InMemoryPageStore::new());
        let handles: Vec<_> = blobs.iter().map(|b| writer.push(b).unwrap()).collect();
        let store = writer.finish(pool_pages, 0).unwrap();
        for (blob, handle) in blobs.iter().zip(&handles) {
            assert_eq!(&store.read(*handle).unwrap(), blob, "case {case}");
        }
        // Reading in reverse order must give the same results (cache churn).
        for (blob, handle) in blobs.iter().zip(&handles).rev() {
            assert_eq!(&store.read(*handle).unwrap(), blob, "case {case}");
        }
    }
}

/// Time lists round-trip through encode/decode and through the store.
#[test]
fn time_list_roundtrip() {
    let mut rng = StdRng::seed_from_u64(204);
    for case in 0..64 {
        let mut list = TimeList::new();
        for _ in 0..rng.gen_range(0..200usize) {
            list.add(rng.gen_range(0..30u32) as u16, rng.gen_range(0..50_000u32));
        }
        // Dates sorted, ids sorted and unique.
        for w in list.entries.windows(2) {
            assert!(w[0].date < w[1].date, "case {case}");
        }
        for e in &list.entries {
            for w in e.traj_ids.windows(2) {
                assert!(w[0] < w[1], "case {case}");
            }
        }
        let decoded = TimeList::decode(&list.encode()).unwrap();
        assert_eq!(&decoded, &list, "case {case}");

        let mut writer = PostingWriter::new(InMemoryPageStore::new());
        let handle = writer.push(&list.encode()).unwrap();
        let store = writer.finish(2, 0).unwrap();
        assert_eq!(store.read_time_list(handle).unwrap(), list, "case {case}");
    }
}

/// The buffer pool never changes what a page read returns, whatever the
/// capacity and access pattern.
#[test]
fn buffer_pool_is_transparent() {
    let mut rng = StdRng::seed_from_u64(205);
    for case in 0..64 {
        let capacity = rng.gen_range(1..16usize);
        let store = InMemoryPageStore::new();
        for i in 0..32u64 {
            let id = store.allocate().unwrap();
            let mut page = streach_storage::page::Page::zeroed();
            page.bytes_mut()[0] = i as u8;
            page.bytes_mut()[1] = (i * 3) as u8;
            store.write_page(id, &page).unwrap();
        }
        let pool = BufferPool::new(store, capacity);
        for _ in 0..rng.gen_range(1..200usize) {
            let id = rng.gen_range(0..32u64);
            let page = pool.read_page(id).unwrap();
            assert_eq!(page.bytes()[0], id as u8, "case {case}");
            assert_eq!(page.bytes()[1], (id * 3) as u8, "case {case}");
            assert!(pool.cached_pages() <= capacity, "case {case}");
        }
        let snap = pool.io_stats().snapshot();
        assert_eq!(snap.cache_misses, snap.page_reads, "case {case}");
    }
}
