//! End-to-end calibration: the real Algorithm 1 and the real Bx-tree,
//! priced by their cost profiles, against the paper's headline numbers.

use moist_bench::{bx_update_qps, moist_update_qps, HEADLINE_SMOKE_ROWS};

/// "8,000+ updates per second" on one server at 1M objects (§4.3.2), about
/// 0.127 ms per update: the real leader path, run on a 1M-object table,
/// must cost 100–200 virtual µs per update.
#[test]
fn a_leader_update_at_one_million_objects_costs_100_to_200_virtual_us() {
    let us = 1e6 / moist_update_qps(1_000_000, 2_000);
    assert!(
        (100.0..=200.0).contains(&us),
        "{us:.1} virtual µs per update"
    );
}

/// "2x better than 3,000+ QPS of Bx-tree" (§1), on the headline figure's
/// smoke rows.
#[test]
fn single_server_moist_updates_at_least_twice_as_fast_as_the_bx_tree() {
    let (objects, updates) = HEADLINE_SMOKE_ROWS;
    let moist = moist_update_qps(objects, updates);
    let bx = bx_update_qps(objects, updates);
    assert!(
        moist >= 2.0 * bx,
        "MOIST {moist:.0} vs Bx-tree {bx:.0} updates/s: {:.2}x",
        moist / bx
    );
}
