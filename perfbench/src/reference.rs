//! A fixed reference computation that measures how fast the machine is
//! running right now, so that wall times can be scaled to one nominal
//! speed.
//!
//! On a shared VM the same work takes up to a third longer in one process
//! than in another a few minutes later. Set-up and the timed loop
//! therefore top up the reference after every run until it has had a
//! fixed share of the run time, and every reported time is scaled by
//! `NOMINAL_CHUNK_NS / measured ns per chunk` of the same phase. A change
//! to the program moves the scaled times; a change in machine speed moves
//! both the runs and the reference, and cancels. The reference does what
//! the simulator does most: pops and pushes on a binary-heap calendar,
//! random reads and writes in a table, appends to a log, and small
//! short-lived allocations. It allocates nothing that outlives a step
//! after set-up, so it does not change how the runs' memory is laid out.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crate::workload::{elapsed_ns, now};

/// Table words (512 KiB): well past L1, and small beside the peak memory
/// of any workload.
const TABLE_WORDS: usize = 1 << 16;

/// Entries kept in the calendar.
const CALENDAR_LEN: usize = 1 << 14;

/// Calendar steps in one chunk, about a millisecond.
const CHUNK_STEPS: usize = 6_500;

/// Reference time per run time.
const SHARE: f64 = 0.10;

/// Nanoseconds one chunk takes at the nominal speed, which defines the
/// speed reported times are scaled to. A chunk took 0.9–1.3 ms on a
/// shared 2-vCPU x86-64 (Intel Xeon) VM, so scaled times there read close
/// to wall times.
const NOMINAL_CHUNK_NS: f64 = 1_000_000.0;

pub struct Reference {
    table: Vec<u64>,
    calendar: BinaryHeap<Reverse<(u64, u32)>>,
    log: Vec<u64>,
    rng: u64,
    chunks: u64,
    ns: u64,
}

impl Reference {
    pub fn new() -> Self {
        let mut r = Reference {
            table: vec![0; TABLE_WORDS],
            calendar: BinaryHeap::with_capacity(CALENDAR_LEN),
            log: Vec::with_capacity(CHUNK_STEPS),
            rng: 0x9e37_79b9_7f4a_7c15,
            chunks: 0,
            ns: 0,
        };
        for id in 0..CALENDAR_LEN as u32 {
            let at = r.next() >> 40;
            r.calendar.push(Reverse((at, id)));
        }
        r
    }

    /// xorshift64*.
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn chunk(&mut self) {
        let start = now();
        let mut acc = 0u64;
        self.log.clear();
        for _ in 0..CHUNK_STEPS {
            let Some(Reverse((at, id))) = self.calendar.pop() else {
                unreachable!("the calendar never empties")
            };
            let r = self.next();
            let slot = r as usize & (TABLE_WORDS - 1);
            let old = self.table[slot];
            self.table[slot] = old.wrapping_add(at ^ u64::from(id));
            acc = acc.wrapping_add(old);
            self.calendar.push(Reverse((at + (r >> 52) + 1, id)));
            if r & 3 == 0 {
                let frame = black_box(Box::new([old, at, r, acc]));
                self.log.push(frame.iter().fold(0u64, |a, &x| a ^ x));
            }
        }
        black_box((acc, &self.log));
        self.ns += elapsed_ns(start);
        self.chunks += 1;
    }

    /// Starts a new phase: forgets the chunks timed so far.
    pub fn restart(&mut self) {
        self.chunks = 0;
        self.ns = 0;
    }

    /// Called after each run: runs chunks until the reference has had its
    /// share of the phase's `work_ns`. An untimed sweep over the table and
    /// the calendar first brings them back into cache, so that what the
    /// run left there does not change the chunk times.
    pub fn top_up(&mut self, work_ns: u64) {
        if (self.ns as f64) >= SHARE * work_ns as f64 {
            return;
        }
        let warm = self.table.iter().fold(0u64, |a, &x| a ^ x);
        black_box(
            self.calendar
                .iter()
                .fold(warm, |a, Reverse((at, _))| a ^ at),
        );
        while (self.ns as f64) < SHARE * work_ns as f64 {
            self.chunk();
        }
    }

    /// Wall time the reference took in this phase, to leave out of it.
    pub fn ns(&self) -> u64 {
        self.ns
    }

    /// The factor that scales a wall time of this phase to the nominal
    /// speed: below 1 when the machine is running slower than nominal.
    pub fn scale(&self) -> f64 {
        NOMINAL_CHUNK_NS * self.chunks as f64 / self.ns as f64
    }
}
