//! The per-query counts (`llmsql_workload::counters`) against their committed
//! golden file. Every cell is a count on a paused clock, so the text repeats
//! exactly in debug and release. A change that moves a number updates the
//! golden in the same change and says why. Regenerate with:
//!
//! ```sh
//! UPDATE_SNAPSHOTS=1 cargo test --test counters_golden
//! ```

mod snapshot;

use llmsql_workload::counters::golden_report;

#[test]
fn counters_match_their_golden() {
    snapshot::check("counters", &golden_report().unwrap().golden());
}
