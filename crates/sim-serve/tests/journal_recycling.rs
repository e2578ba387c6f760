//! Sessions recycle their journal blocks: however many sessions are
//! opened, fed and dropped, the process allocates only as many blocks as
//! were ever live at once. This file holds one test, so the process-wide
//! block counter it reads sees no other test's journals.

use sim_core::Access;
use sim_serve::protocol::GeometrySpec;
use sim_serve::session::{default_roster, Session};
use traces::journal::{blocks_allocated, BLOCK_RECORDS};

fn open() -> Session {
    let spec = GeometrySpec {
        size_bytes: 64 * 1024,
        ways: 16,
        line_bytes: 64,
    };
    Session::new("t", spec, false, 4096, &["LRU".to_string()], &default_roster()).unwrap()
}

#[test]
fn open_ingest_drop_cycles_allocate_one_journals_worth_of_blocks() {
    // Two blocks' worth: one full block and one record.
    let accesses: Vec<Access> = (0..BLOCK_RECORDS as u64 + 1)
        .map(|i| Access::read((i % 5000) * 64, i))
        .collect();
    assert_eq!(blocks_allocated(), 0);
    for cycle in 1..=4 {
        let mut s = open();
        for chunk in accesses.chunks(4096) {
            s.ingest(chunk);
        }
        drop(s);
        assert_eq!(blocks_allocated(), 2, "after cycle {cycle}");
    }
    // Two sessions live at once need two journals' worth, and then no
    // more, however often the pair is reopened.
    for cycle in 1..=3 {
        let mut pair = [open(), open()];
        for s in &mut pair {
            s.ingest(&accesses);
        }
        drop(pair);
        assert_eq!(blocks_allocated(), 4, "after pair cycle {cycle}");
    }
}
