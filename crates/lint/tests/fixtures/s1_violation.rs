//! S1/O1 fixture: wire-kind (S1) and fault-site (O1) string drift.

pub fn misfire() {
    qods_fault::check("store.raed"); // finding: typo-ed site
    qods_fault::check("store.read"); // canonical — fine
    qods_fault::check_sleeping("net.conn"); // canonical — fine
}

pub fn plan() -> &'static str {
    "store.wrte:1=io;pool.worker:2=sleep:10" // finding: first entry's site
}

pub fn drifted_kind() -> &'static str {
    "{\"kind\":\"overlaoded\"}" // finding: kind not in the protocol table
}

pub fn valid_kind() -> &'static str {
    "{\"kind\":\"overloaded\"}" // canonical — fine
}

// qods-lint: allow(O1) -- fixture: documenting a retired site name
pub const RETIRED_PLAN: &str = "old.site:1=io";
