//! Fixture: the R6 path-scoped checkpoint file with seeded
//! state-coverage violations mirroring the PR 5 bug class, plus a
//! stale allow directive (seeded R8).

struct RunnerState {
    tick: u64,
    seed: u64,
    pending: u32,
}

// Seeded R8 on the next line: `hash-iter` is clippy's now, no rule here.
// lint: allow(hash-iter) — justified once, but the map is long gone

impl RunnerState {
    /// Seeded R6: persists state without destructuring `Self`.
    fn save_state(&self) -> u64 {
        self.tick ^ self.seed ^ u64::from(self.pending)
    }

    /// Seeded R6: the destructure misses `pending`.
    fn restore_state(&mut self, tick: u64, seed: u64) {
        let Self { tick: t, seed: s } = self;
        *t = tick;
        *s = seed;
    }
}

/// Clean: exhaustive destructure of a sibling struct in a free fn.
fn enc_runner(w: &mut Writer, s: &RunnerState) {
    let RunnerState { tick, seed, pending } = s;
    w.u64(*tick);
    w.u64(*seed);
    w.u32(*pending);
}

impl Wire for RunnerState {
    /// Seeded R6: a hand-written layout that never destructures `Self`,
    /// so a fourth field would travel nowhere and nothing would say so.
    fn put(&self, e: &mut Enc) {
        e.u64(self.tick);
        e.u64(self.seed);
    }

    /// Clean: `take` may build through a constructor; `put` is the audit.
    fn take(d: &mut Dec) -> RunnerState {
        RunnerState { tick: d.u64(), seed: d.u64(), pending: 0 }
    }
}
