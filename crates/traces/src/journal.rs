//! An in-memory trace container that grows in fixed-size, recycled blocks.
//!
//! A [`Journal`] holds the record region of a [`format`](crate::format)
//! container as encoded 21-byte records, in blocks of [`BLOCK_BYTES`], and
//! keeps the region's CRC-32 up to date as records arrive. The complete
//! container is [`container_header`](crate::format::container_header), then [`Journal::blocks`] in order,
//! then [`Journal::footer`]: byte for byte what a
//! [`TraceWriter`](crate::TraceWriter) emits for the same accesses, so a
//! caller can stream it to disk part by part without ever assembling it.
//!
//! # Block recycling
//!
//! Blocks never grow or move, so an append never copies what is already
//! journaled, as a doubling `Vec` would. A dropped journal hands its
//! blocks to one process-wide free list, and a journal takes a block from
//! that list before it allocates one. A block is therefore allocated only
//! when every block in existence is live: the blocks of live journals and
//! the free list together never exceed the peak number live at once, so
//! the free list holds at most the peak of live journal bytes. That bound
//! is the price of recycling. What it buys is that a process which keeps
//! opening and dropping journals, possibly on different threads, reuses
//! one set of blocks instead of handing the allocator large buffers it may
//! keep in a per-thread arena after they are freed.
//! [`blocks_allocated`] counts every block the process ever allocated.

use crate::format::{container_footer, encode_record, Crc32, FOOTER_BYTES, RECORD_BYTES};
use sim_core::Access;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Records per block: as many whole records as fit in 1 MiB.
pub const BLOCK_RECORDS: usize = (1 << 20) / RECORD_BYTES;

/// Bytes per block. Records never straddle two blocks.
pub const BLOCK_BYTES: usize = BLOCK_RECORDS * RECORD_BYTES;

/// Blocks of dropped journals, each empty with `BLOCK_BYTES` of capacity.
static FREE: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// Blocks ever allocated in this process.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

fn free_list() -> MutexGuard<'static, Vec<Vec<u8>>> {
    // The list stays consistent whatever a panicking holder was doing:
    // every push and pop is a single call.
    FREE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Blocks allocated by every journal in this process so far. Recycled
/// blocks are not counted again.
pub fn blocks_allocated() -> usize {
    ALLOCATED.load(Ordering::Relaxed)
}

/// The record region of a trace container, journaled in recycled blocks.
#[derive(Default)]
pub struct Journal {
    /// Every block but the last is full.
    blocks: Vec<Vec<u8>>,
    records: u64,
    crc: Crc32,
}

impl Journal {
    /// An empty journal. It takes no block until the first append.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records journaled.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Encodes `accesses` onto the end of the journal and folds their
    /// bytes into the running CRC.
    pub fn append(&mut self, accesses: &[Access]) {
        let mut rest = accesses;
        while !rest.is_empty() {
            if self.blocks.last().map_or(true, |b| b.len() == BLOCK_BYTES) {
                let block = free_list().pop().unwrap_or_else(|| {
                    ALLOCATED.fetch_add(1, Ordering::Relaxed);
                    Vec::with_capacity(BLOCK_BYTES)
                });
                self.blocks.push(block);
            }
            let block = self.blocks.last_mut().expect("a block with room");
            let start = block.len();
            let room = (BLOCK_BYTES - start) / RECORD_BYTES;
            let (now, later) = rest.split_at(room.min(rest.len()));
            for a in now {
                block.extend_from_slice(&encode_record(a));
            }
            self.crc.update(&block[start..]);
            rest = later;
        }
        self.records += accesses.len() as u64;
    }

    /// The record region, block by block, in order.
    pub fn blocks(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.blocks.iter().map(Vec::as_slice)
    }

    /// The container footer for the records journaled so far.
    pub fn footer(&self) -> [u8; FOOTER_BYTES] {
        container_footer(self.records, self.crc.finish())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        let mut free = free_list();
        for mut block in self.blocks.drain(..) {
            block.clear();
            free.push(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::container_header;
    use crate::TraceWriter;

    fn accesses(n: usize) -> Vec<Access> {
        (0..n as u64)
            .map(|i| Access::read(i * 64, i % 13).with_icount_delta((i % 5) as u32))
            .collect()
    }

    fn container(j: &Journal) -> Vec<u8> {
        let mut out = container_header().to_vec();
        j.blocks().for_each(|b| out.extend_from_slice(b));
        out.extend_from_slice(&j.footer());
        out
    }

    #[test]
    fn an_append_filling_a_block_exactly_starts_no_new_one() {
        let all = accesses(BLOCK_RECORDS + 1);
        let mut j = Journal::new();
        assert_eq!(j.blocks().count(), 0);
        j.append(&all[..BLOCK_RECORDS]);
        assert_eq!(j.blocks().count(), 1);
        j.append(&all[BLOCK_RECORDS..]);
        assert_eq!(j.blocks().count(), 2);
        assert_eq!(j.len(), all.len() as u64);

        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for a in &all {
            w.write(a).unwrap();
        }
        assert_eq!(container(&j), w.finish().unwrap());
    }
}
