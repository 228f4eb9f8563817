//! Live progress tracking for parallel sweeps.
//!
//! [`Progress`] is shared by reference across sweep workers: each worker
//! flips its slot done with a relaxed atomic store, and whoever wants to
//! report reads a consistent-enough snapshot with [`Progress::render`].
//! The tracker itself never touches a clock — the caller passes elapsed
//! wall nanoseconds in (bench code owns the wall clock, keeping the
//! determinism lint satisfied).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Lock-free completion tracker for a fixed set of run slots.
#[derive(Debug)]
pub struct Progress {
    total: usize,
    done: AtomicUsize,
    slots: Vec<AtomicBool>,
}

impl Progress {
    /// A tracker for `total` slots, all pending.
    #[must_use]
    pub fn new(total: usize) -> Self {
        let mut slots = Vec::with_capacity(total);
        for _ in 0..total {
            slots.push(AtomicBool::new(false));
        }
        Progress {
            total,
            done: AtomicUsize::new(0),
            slots,
        }
    }

    /// Number of slots completed so far.
    #[must_use]
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed).min(self.total)
    }

    /// Marks slot `index` complete (idempotent; out-of-range is ignored)
    /// and returns the new completion count.
    pub fn mark_done(&self, index: usize) -> usize {
        let Some(slot) = self.slots.get(index) else {
            return self.done();
        };
        if slot.swap(true, Ordering::Relaxed) {
            return self.done();
        }
        let previous = self.done.fetch_add(1, Ordering::Relaxed);
        (previous + 1).min(self.total)
    }

    /// One-line status: completion ratio, percentage, a slot strip for
    /// small sweeps and — when the caller supplies elapsed wall
    /// nanoseconds and at least one slot has finished — a linear ETA.
    #[must_use]
    pub fn render(&self, label: &str, elapsed_ns: Option<u64>) -> String {
        let done = self.done();
        let total = self.total.max(1);
        let percent = done * 100 / total;
        let mut line = format!("{label}: {done}/{} ({percent}%)", self.total);
        if self.total <= 64 {
            line.push_str(" [");
            for slot in &self.slots {
                line.push(if slot.load(Ordering::Relaxed) {
                    '#'
                } else {
                    '.'
                });
            }
            line.push(']');
        }
        if let Some(elapsed) = elapsed_ns {
            if done > 0 && done < self.total {
                let per_slot = elapsed / done as u64;
                let remaining = per_slot.saturating_mul((self.total - done) as u64);
                line.push_str(&format!(" eta {}s", remaining / 1_000_000_000));
            }
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marking_slots_counts_each_once() {
        let p = Progress::new(3);
        assert_eq!(p.done(), 0);
        assert_eq!(p.mark_done(1), 1);
        assert_eq!(p.mark_done(1), 1); // idempotent
        assert_eq!(p.mark_done(0), 2);
        assert_eq!(p.mark_done(99), 2); // out of range ignored
        assert_eq!(p.render("p", None), "p: 2/3 (66%) [##.]");
    }

    #[test]
    fn render_shows_ratio_strip_and_eta() {
        let p = Progress::new(4);
        p.mark_done(0);
        p.mark_done(2);
        let line = p.render("fig3", Some(8_000_000_000));
        // 2 done in 8 s -> 4 s/slot -> 2 remaining slots -> 8 s ETA.
        assert_eq!(line, "fig3: 2/4 (50%) [#.#.] eta 8s");
    }

    #[test]
    fn render_omits_eta_when_unknowable() {
        let p = Progress::new(2);
        assert_eq!(p.render("x", Some(5)), "x: 0/2 (0%) [..]");
        p.mark_done(0);
        p.mark_done(1);
        assert_eq!(p.render("x", Some(5)), "x: 2/2 (100%) [##]");
        assert_eq!(p.render("x", None), "x: 2/2 (100%) [##]");
    }

    #[test]
    fn large_sweeps_skip_the_slot_strip() {
        let p = Progress::new(100);
        p.mark_done(0);
        assert_eq!(p.render("big", None), "big: 1/100 (1%)");
    }

    #[test]
    fn concurrent_marks_are_counted_exactly() {
        let p = Progress::new(64);
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let p = &p;
                scope.spawn(move || {
                    for i in (worker..64).step_by(4) {
                        p.mark_done(i);
                    }
                });
            }
        });
        assert_eq!(p.done(), 64);
    }
}
