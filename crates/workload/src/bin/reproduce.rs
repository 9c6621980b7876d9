//! Prints every table of the paper's reproduction, timing columns included.
//!
//! Run with: `cargo run --release -p llmsql-workload --bin reproduce`

fn main() -> llmsql_types::Result<()> {
    for table in llmsql_workload::reproduce::TABLES {
        println!("{}", table()?.render());
    }
    Ok(())
}
