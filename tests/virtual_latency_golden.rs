//! The virtual-latency scenarios (`llmsql_workload::virtual_latency`) against
//! their committed golden file. On a paused clock every cell is a function
//! of the scenarios' seeds, so the text repeats exactly in debug and
//! release. A PR that moves a number updates the golden in the same change
//! and says why. Regenerate with:
//!
//! ```sh
//! UPDATE_SNAPSHOTS=1 cargo test --test virtual_latency_golden
//! ```

mod snapshot;

use llmsql_workload::virtual_latency::golden_report;

#[test]
fn virtual_latency_matches_its_golden() {
    snapshot::check("virtual_latency", &golden_report().unwrap().golden());
}
