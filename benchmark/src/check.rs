//! Answer checking inside the run. Every comparison is bit-for-bit: the
//! segment list and `total_length_km.to_bits()`.

use streach_core::prelude::*;
use streach_core::query::mqmb::mqmb;
use streach_core::query::reference::{
    naive_exhaustive_search, naive_trace_back_search, NaiveVerifier,
};
use streach_core::query::sqmb::sqmb;

use crate::inputs::Rng;
use crate::workloads::QueryRun;

/// Share of a query list compared against the naive reference pipelines.
pub const SAMPLE_SHARE: f64 = 0.05;

pub fn same_region(a: &ReachableRegion, b: &ReachableRegion) -> bool {
    a.segments == b.segments && a.total_length_km.to_bits() == b.total_length_km.to_bits()
}

/// A seeded sample of `share` of `0..n` (at least one index), ascending.
pub fn sample_indices(seed: u64, n: usize, share: f64) -> Vec<usize> {
    let mut rng = Rng::stream(seed, 6);
    let mut all: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut all);
    all.truncate(((n as f64 * share).ceil() as usize).clamp(1, n));
    all.sort_unstable();
    all
}

/// The reference answer of an SQMB+TBS s-query: the same bounding regions,
/// searched and verified by the naive sequential implementation.
pub fn reference_tbs(engine: &ReachabilityEngine, query: &SQuery) -> Option<ReachableRegion> {
    let start = engine.try_locate(&query.location).ok()?;
    let bounds = sqmb(
        engine.con_index(),
        engine.network().num_segments(),
        start,
        query.start_time_s,
        query.duration_s,
    );
    naive_trace_back_search(
        engine.network(),
        engine.st_index(),
        &bounds,
        start,
        query.start_time_s,
        query.duration_s,
        query.prob,
    )
    .ok()
}

/// The reference answer of an ES s-query (the naive exhaustive search).
pub fn reference_es(engine: &ReachabilityEngine, query: &SQuery) -> Option<ReachableRegion> {
    let start = engine.try_locate(&query.location).ok()?;
    naive_exhaustive_search(engine.network(), engine.st_index(), query, start).ok()
}

/// The reference answer of an MQMB+TBS m-query: the unified bounds, each
/// annulus segment verified naively against its owning start.
pub fn reference_mqmb(engine: &ReachabilityEngine, query: &MQuery) -> Option<ReachableRegion> {
    let starts: Vec<SegmentId> = query
        .locations
        .iter()
        .map(|p| engine.try_locate(p).ok())
        .collect::<Option<_>>()?;
    let bounds = mqmb(
        engine.con_index(),
        engine.network(),
        &starts,
        &query.locations,
        query.start_time_s,
        query.duration_s,
    );
    let verifiers: Vec<NaiveVerifier<'_>> = starts
        .iter()
        .map(|&s| {
            NaiveVerifier::new(engine.st_index(), s, query.start_time_s, query.duration_s).ok()
        })
        .collect::<Option<_>>()?;
    let mut segments = bounds.min_region.clone();
    segments.extend_from_slice(&starts);
    for segment in bounds.annulus() {
        let owner = bounds.owner_of(segment).unwrap_or(0);
        if verifiers[owner].probability(segment).ok()? >= query.prob {
            segments.push(segment);
        }
    }
    Some(ReachableRegion::from_segments(engine.network(), segments))
}

/// Compares a seeded sample of the queries `run` asked against `reference`;
/// returns (answers compared, answers that differ or are missing).
pub fn check_sample<Q>(
    seed: u64,
    queries: &[Q],
    run: &QueryRun,
    reference: impl Fn(&Q) -> Option<ReachableRegion>,
) -> (u64, u64) {
    let asked: Vec<usize> = (0..queries.len())
        .filter(|&i| run.answers.get(i).is_some_and(Option::is_some))
        .collect();
    let sample = sample_indices(seed, asked.len(), SAMPLE_SHARE);
    let wrong = sample
        .iter()
        .map(|&k| asked[k])
        .filter(|&i| match (run.answer(i), reference(&queries[i])) {
            (Some(got), Some(want)) => !same_region(got, &want),
            _ => true,
        })
        .count();
    (sample.len() as u64, wrong as u64)
}
