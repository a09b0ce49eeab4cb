//! The MUSS-TI compile-context arena: every reusable per-compile allocation
//! in one place.

use eml_qccd::{ContextScratch, EmlQccdDevice, ExecutorScratch};

use crate::scheduler::SchedulerScratch;

/// The concrete scratch arena behind MUSS-TI's
/// [`CompileContext`](eml_qccd::CompileContext): the scheduler's placement
/// state, op buffer and Section 3.3 weight table, plus the executor's
/// clock/heat arrays — allocated once and recycled by every scheduling pass
/// (including the SABRE forward/backward/probe dry passes, which run in this
/// arena back to back instead of three cold starts).
///
/// The pooled weight table is *incrementally* maintained against the pass's
/// DAG window; the context reset path clears its synced-epoch subscription
/// along with its entries (via `SchedulerScratch::clear` →
/// `WeightTable::clear`), so a recycled arena can never replay a previous
/// circuit's window deltas.
///
/// Reuse is behaviour-neutral: compiling in a warm context yields op streams
/// bit-identical to a cold compile (pinned by `tests/op_fingerprints.rs` and
/// the session-reuse proptest suite).
#[derive(Debug)]
pub struct MussTiContext {
    pub(crate) sched: SchedulerScratch,
    pub(crate) exec: ExecutorScratch,
}

impl MussTiContext {
    /// Allocates a context sized for `device`.
    pub fn new(device: &EmlQccdDevice) -> Self {
        MussTiContext {
            sched: SchedulerScratch::new(device),
            exec: ExecutorScratch::new(),
        }
    }
}

impl ContextScratch for MussTiContext {
    fn reset(&mut self) {
        self.sched.clear();
        self.exec.clear();
    }
}
