//! The multi-level shuttle scheduler (Section 3.2 of the paper).
//!
//! The pass runs inside pooled scratch ([`SchedulerScratch`], owned by the
//! compile context): placement state, op buffer, weight table and the
//! front-layer work buffers are reused across passes — including the SABRE
//! dry passes, which additionally share one [`DependencyDag`] via
//! [`DependencyDag::reset`]/[`DependencyDag::reset_reversed`] — so the
//! scheduling loop performs **zero** steady-state allocations (pinned by the
//! allocation-regression suite in `alloc_check.rs`). The loop is generic
//! over its [`OpSink`]: [`ScheduleMode::Full`] appends to the pooled op
//! stream, while [`ScheduleMode::CostOnly`] (the SABRE dry passes) folds
//! every op into an [`OpCounter`] and never materialises the stream. Neither
//! scratch reuse nor the sink changes behaviour: op streams are pinned
//! bit-identical to the cold-start path, and cost-only passes track shuttle
//! counts, clocks and placement identically to a full pass.

// lint: hot-path

use std::time::{Duration, Instant};

#[cfg(test)]
use eml_qccd::pipeline::Scheduled;
use eml_qccd::{
    CompileError, EmlQccdDevice, ModuleId, OpCounter, OpSink, ScheduledOp, ZoneId, ZoneLevel,
};
#[cfg(test)]
use ion_circuit::Circuit;
use ion_circuit::{DagNodeId, DependencyDag, QubitId};

use crate::placement::{is_protected, protected_mask, PlacementState};
use crate::swap_insertion::WeightTable;
use crate::MussTiOptions;

/// The reusable per-pass scratch of the scheduler: everything a pass
/// allocates lives here and is recycled by the next pass.
#[derive(Debug, Clone)]
pub(crate) struct SchedulerScratch {
    /// Dynamic placement state, re-initialised per pass via
    /// [`PlacementState::reset_from_mapping`].
    pub(crate) state: PlacementState,
    /// The op stream of the most recent full pass (cleared at pass start;
    /// cost-only passes leave it untouched).
    pub(crate) ops: Vec<ScheduledOp>,
    /// Pooled Section 3.3 weight table, incrementally synced to the DAG's
    /// look-ahead window per fiber gate (rebuilt only when the delta chain
    /// breaks, i.e. at the first fiber gate of a pass).
    pub(crate) weights: WeightTable,
    /// Pooled executable-gates buffer for the scheduling loop (the front
    /// layer must be copied out before executing mutates the DAG).
    pub(crate) executable: Vec<DagNodeId>,
    /// Pooled newly-ready buffer handed to
    /// [`DependencyDag::mark_executed_into`].
    pub(crate) newly_ready: Vec<DagNodeId>,
    /// Pooled per-gate executability cache, keyed by the operands' placement
    /// move epochs: `exec_cache[node] = (epoch_a, epoch_b, executable)`. A
    /// slot is exact while neither operand has moved — executability reads
    /// nothing but the two operand zones — so the front-layer scan recomputes
    /// a gate's verdict only after a shuttle/SWAP actually touched one of its
    /// operands, instead of on every loop iteration. `(0, 0, _)` is the
    /// never-computed sentinel (a placed qubit's epoch is always ≥ 1).
    pub(crate) exec_cache: Vec<(u32, u32, bool)>,
}

impl SchedulerScratch {
    pub(crate) fn new(device: &EmlQccdDevice) -> Self {
        SchedulerScratch {
            state: PlacementState::new(device),
            ops: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            weights: WeightTable::default(),
            executable: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            newly_ready: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
            exec_cache: Vec::new(), // lint: allow (pooled-buffer setup, grown once and recycled)
        }
    }

    /// Drops all circuit-derived state, keeping allocations.
    pub(crate) fn clear(&mut self) {
        self.state.clear();
        self.ops.clear();
        self.weights.clear();
        self.executable.clear();
        self.newly_ready.clear();
        self.exec_cache.clear();
    }
}

/// How a scheduling pass reports its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScheduleMode {
    /// Materialise the full op stream into the scratch's pooled `ops` buffer
    /// (the final scheduling pass of a compile).
    Full,
    /// Track shuttle counts, clocks, heat and placement through the scratch
    /// but fold ops into an [`OpCounter`] instead of storing them — the SABRE
    /// forward/backward/probe dry passes, which only consume the shuttle
    /// count and the final placement.
    CostOnly,
}

/// Aggregate results of one scheduling pass; in [`ScheduleMode::Full`] the op
/// stream itself stays in the scratch's `ops` buffer, and in either mode the
/// final placement stays in its `state`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScheduleStats {
    /// Number of shuttle operations the pass emitted (the SABRE two-fold
    /// search's selection criterion).
    pub shuttles: usize,
    /// Number of cross-module SWAP gates inserted by the Section 3.3 pass.
    pub inserted_swaps: usize,
    /// Final logical clock of the pass (one tick per executed gate or
    /// inserted SWAP) — the LRU timebase, exposed so the dry-pass parity
    /// suite can pin cost-only passes tick-identical to full passes.
    pub final_clock: u64,
    /// Wall-clock time spent inside the SWAP-insertion pass (a slice of the
    /// scheduling phase, reported separately in the per-phase bench timings).
    pub swap_insertion_time: Duration,
}

/// Schedules the two-qubit gates of the circuit behind `dag` on `device`,
/// starting from `initial_mapping`, writing the op stream into `cx.ops` and
/// leaving the final placement in `cx.state`.
///
/// The pass follows the paper's loop: take the DAG front layer, execute every
/// gate that is already executable, otherwise pick the oldest gate
/// (first-come-first-served), route its qubits to the best zone using
/// multi-level scheduling, resolve capacity conflicts by LRU eviction, execute
/// it, and — after every fiber gate — consider inserting a cross-module SWAP
/// guided by the weight table.
///
/// `dag` must be fresh (or [`reset`](DependencyDag::reset)) and built from
/// the circuit being scheduled; passing it in is what lets the SABRE
/// forward/probe dry passes and the final pass share one DAG.
///
/// # Errors
///
/// Returns a [`CompileError`] if a qubit cannot be placed (which indicates the
/// device is too small for the circuit under the effective capacity rules).
pub(crate) fn schedule_in(
    device: &EmlQccdDevice,
    options: &MussTiOptions,
    dag: &mut DependencyDag,
    initial_mapping: &[(QubitId, ZoneId)],
    cx: &mut SchedulerScratch,
) -> Result<ScheduleStats, CompileError> {
    cx.ops.clear();
    let (clock, inserted_swaps, swap_insertion_time) = {
        let SchedulerScratch {
            state,
            ops,
            weights,
            executable,
            newly_ready,
            exec_cache,
        } = cx;
        run_pass(
            device,
            options,
            dag,
            initial_mapping,
            state,
            weights,
            executable,
            newly_ready,
            exec_cache,
            ops,
        )?
    };
    Ok(ScheduleStats {
        shuttles: cx.ops.iter().filter(|o| o.is_shuttle()).count(),
        inserted_swaps,
        final_clock: clock,
        swap_insertion_time,
    })
}

/// [`schedule_in`] in [`ScheduleMode::CostOnly`]: runs the identical loop —
/// same routing, same LRU clocks, same final placement in `cx.state` — but
/// folds every emitted op into an [`OpCounter`], leaving `cx.ops` untouched
/// and materialising nothing. This is what the SABRE forward/backward/probe
/// dry passes run: they only consume `shuttles` and the final mapping.
///
/// # Errors
///
/// Same conditions as [`schedule_in`].
pub(crate) fn schedule_cost_only(
    device: &EmlQccdDevice,
    options: &MussTiOptions,
    dag: &mut DependencyDag,
    initial_mapping: &[(QubitId, ZoneId)],
    cx: &mut SchedulerScratch,
) -> Result<ScheduleStats, CompileError> {
    let mut counter = OpCounter::default();
    let SchedulerScratch {
        state,
        weights,
        executable,
        newly_ready,
        exec_cache,
        ..
    } = cx;
    let (clock, inserted_swaps, swap_insertion_time) = run_pass(
        device,
        options,
        dag,
        initial_mapping,
        state,
        weights,
        executable,
        newly_ready,
        exec_cache,
        &mut counter,
    )?;
    Ok(ScheduleStats {
        shuttles: counter.shuttles,
        inserted_swaps,
        final_clock: clock,
        swap_insertion_time,
    })
}

/// Dispatches a scheduling pass by [`ScheduleMode`].
///
/// # Errors
///
/// Same conditions as [`schedule_in`].
pub(crate) fn schedule_with_mode(
    device: &EmlQccdDevice,
    options: &MussTiOptions,
    mode: ScheduleMode,
    dag: &mut DependencyDag,
    initial_mapping: &[(QubitId, ZoneId)],
    cx: &mut SchedulerScratch,
) -> Result<ScheduleStats, CompileError> {
    match mode {
        ScheduleMode::Full => schedule_in(device, options, dag, initial_mapping, cx),
        ScheduleMode::CostOnly => schedule_cost_only(device, options, dag, initial_mapping, cx),
    }
}

/// The shared pass body behind both modes: resets the placement state,
/// drives the scheduling loop into `sink` and returns `(final clock,
/// inserted swaps, swap-insertion time)`.
#[allow(clippy::too_many_arguments)]
fn run_pass<S: OpSink>(
    device: &EmlQccdDevice,
    options: &MussTiOptions,
    dag: &mut DependencyDag,
    initial_mapping: &[(QubitId, ZoneId)],
    state: &mut PlacementState,
    weights: &mut WeightTable,
    executable: &mut Vec<DagNodeId>,
    newly_ready: &mut Vec<DagNodeId>,
    exec_cache: &mut Vec<(u32, u32, bool)>,
    sink: &mut S,
) -> Result<(u64, usize, Duration), CompileError> {
    state.reset_from_mapping(device, initial_mapping);
    // Reset the executability cache to the never-computed sentinel for every
    // gate of this pass's DAG (the fill reuses the pooled capacity; a warm
    // pass allocates only if the DAG outgrew every previous one).
    exec_cache.clear();
    exec_cache.resize(dag.len(), (0, 0, false));
    // Swap-inserting passes maintain the incremental window tracker for the
    // weight table anyway; arming it up front lets every tie-break look-ahead
    // query (zone affinity, LRU next-use distance) ride the same maintained
    // depth/member index `O(Δ)` instead of re-running the layered BFS when a
    // window gate retires. Answer-identical to the BFS path (pinned by the
    // ion-circuit equivalence suite); disarmed automatically by the DAG
    // resets between passes. Cost-only dry passes stay on the lazy BFS
    // window: their two-phase tie-breaking consults the window far too
    // rarely to amortise the tracker's per-retirement cone repair (measured
    // ~2x placement regression when armed there).
    if options.enable_swap_insertion {
        dag.arm_window_tracker(options.lookahead_k);
    }
    let mut scheduler = Scheduler {
        device,
        options,
        state,
        dag,
        ops: sink,
        weights,
        executable,
        newly_ready,
        exec_cache,
        clock: 0,
        inserted_swaps: 0,
        swap_insertion_time: Duration::ZERO,
    };
    scheduler.run()?;
    Ok((
        scheduler.clock,
        scheduler.inserted_swaps,
        scheduler.swap_insertion_time,
    ))
}

/// One-shot wrapper over [`schedule_in`]: builds the DAG and scratch, runs
/// one pass and returns owned artifacts (test helper).
#[cfg(test)]
pub(crate) fn schedule(
    device: &EmlQccdDevice,
    options: &MussTiOptions,
    circuit: &Circuit,
    initial_mapping: &[(QubitId, ZoneId)],
) -> Result<Scheduled<ZoneId>, CompileError> {
    let mut dag = DependencyDag::from_circuit(circuit);
    let mut cx = SchedulerScratch::new(device);
    let stats = schedule_in(device, options, &mut dag, initial_mapping, &mut cx)?;
    Ok(Scheduled {
        final_assignment: cx.state.mapping(),
        ops: cx.ops,
        inserted_swaps: stats.inserted_swaps,
        swap_insertion_time: stats.swap_insertion_time,
    })
}

struct Scheduler<'a, S: OpSink> {
    device: &'a EmlQccdDevice,
    options: &'a MussTiOptions,
    state: &'a mut PlacementState,
    dag: &'a mut DependencyDag,
    ops: &'a mut S,
    weights: &'a mut WeightTable,
    /// Pooled buffer the executable front-layer subset is copied into (the
    /// borrowed front slice cannot outlive the execution that mutates it).
    executable: &'a mut Vec<DagNodeId>,
    /// Pooled (ignored) newly-ready buffer for `mark_executed_into`.
    newly_ready: &'a mut Vec<DagNodeId>,
    /// Pooled epoch-keyed executability cache (see
    /// [`SchedulerScratch::exec_cache`]), reset per pass.
    exec_cache: &'a mut Vec<(u32, u32, bool)>,
    /// Logical time: increments once per executed gate; drives LRU decisions.
    clock: u64,
    inserted_swaps: usize,
    swap_insertion_time: Duration,
}

impl<S: OpSink> Scheduler<'_, S> {
    fn run(&mut self) -> Result<(), CompileError> {
        while !self.dag.all_executed() {
            debug_assert!(
                !self.dag.front().is_empty(),
                "a non-empty DAG always has a front layer"
            );

            // Prioritise gates that are executable right away (Section 3.2),
            // copied into the pooled buffer first: the borrowed front slice
            // cannot outlive the execution that mutates the DAG. The buffers
            // are taken out of `self` for the fill (the scan borrows `self`)
            // and executed by index so `?` propagates normally;
            // allocation-free in steady state.
            //
            // The scan is the loop's hottest code: the whole front layer is
            // re-examined every iteration, but a gate's executability can
            // only change when one of its operands moves. The epoch-keyed
            // cache turns the common re-visit (front gate unchanged since the
            // last iteration, e.g. blocked gates that stay blocked across an
            // execute batch or an unrelated route) into two epoch loads and a
            // compare, recomputing the zone-level verdict only for gates an
            // actual shuttle/SWAP touched. Answer-identical to an uncached
            // scan by construction (asserted in debug builds).
            let mut executable = std::mem::take(self.executable);
            let mut cache = std::mem::take(self.exec_cache);
            executable.clear();
            for &n in self.dag.front() {
                let (a, b) = self.dag.operands(n);
                let stamp = (self.state.move_epoch(a), self.state.move_epoch(b));
                let slot = &mut cache[n.index()];
                let verdict = if (slot.0, slot.1) == stamp {
                    slot.2
                } else {
                    let fresh = self.is_executable(n);
                    *slot = (stamp.0, stamp.1, fresh);
                    fresh
                };
                debug_assert_eq!(
                    verdict,
                    self.is_executable(n),
                    "executability cache out of sync for node {n:?}"
                );
                if verdict {
                    executable.push(n);
                }
            }
            *self.exec_cache = cache;
            *self.executable = executable;
            if !self.executable.is_empty() {
                for i in 0..self.executable.len() {
                    let node = self.executable[i];
                    self.execute_gate(node)?;
                }
                continue;
            }

            // Otherwise route the oldest (first-come-first-served) gate.
            let node = self
                .dag
                .front_gate()
                .expect("a non-empty DAG always has a ready gate");
            self.route_for_gate(node)?;
            debug_assert!(
                self.is_executable(node),
                "routing must make the gate executable"
            );
            self.execute_gate(node)?;
        }
        Ok(())
    }

    fn zone_of(&self, q: QubitId) -> Result<ZoneId, CompileError> {
        self.state
            .zone_of(q)
            .ok_or_else(|| CompileError::PlacementFailed {
                qubit: q,
                context: "qubit not present in the initial mapping".to_string(),
            })
    }

    fn module_of(&self, q: QubitId) -> Result<ModuleId, CompileError> {
        Ok(self.device.zone(self.zone_of(q)?).module)
    }

    /// A gate is executable if both operands share a gate-capable zone, or if
    /// they sit in optical zones of two different modules (fiber gate).
    fn is_executable(&self, node: DagNodeId) -> bool {
        let (a, b) = self.dag.operands(node);
        let (Some(za), Some(zb)) = (self.state.zone_of(a), self.state.zone_of(b)) else {
            return false;
        };
        if za == zb {
            return self.device.zone(za).level.supports_gates();
        }
        let (zone_a, zone_b) = (self.device.zone(za), self.device.zone(zb));
        zone_a.module != zone_b.module
            && zone_a.level.supports_fiber()
            && zone_b.level.supports_fiber()
            && self.device.fiber_linked(zone_a.module, zone_b.module)
    }

    /// Emits the gate operation for an executable node and retires it from the
    /// DAG, then runs the SWAP-insertion check for fiber gates.
    fn execute_gate(&mut self, node: DagNodeId) -> Result<(), CompileError> {
        let (a, b) = self.dag.operands(node);
        let za = self.zone_of(a)?;
        let zb = self.zone_of(b)?;
        let remote = za != zb;
        if remote {
            self.ops.push_op(ScheduledOp::FiberGate {
                a,
                b,
                zone_a: za.index(),
                zone_b: zb.index(),
            });
        } else if self.dag.gate(node).is_swap() {
            self.ops.push_op(ScheduledOp::SwapGate {
                a,
                b,
                zone: za.index(),
                ions_in_zone: self.state.occupancy(za),
            });
        } else {
            self.ops.push_op(ScheduledOp::TwoQubitGate {
                a,
                b,
                zone: za.index(),
                ions_in_zone: self.state.occupancy(za),
            });
        }
        self.clock += 1;
        self.state.touch(a, self.clock);
        self.state.touch(b, self.clock);
        self.newly_ready.clear();
        self.dag.mark_executed_into(node, self.newly_ready);

        if remote && self.options.enable_swap_insertion {
            // Unconditionally timed: two monotonic clock reads per *fiber*
            // gate (a small fraction of the gates) are noise next to the
            // pass itself, and keeping one code path is worth more than
            // gating the instrumentation behind the phase-reporting callers.
            let swap_start = Instant::now();
            let result = self.try_swap_insertion(a, b);
            self.swap_insertion_time += swap_start.elapsed();
            result?;
        }
        Ok(())
    }

    /// Routes the operands of a non-executable gate to a common gate-capable
    /// zone (same module) or to their modules' optical zones (different
    /// modules).
    fn route_for_gate(&mut self, node: DagNodeId) -> Result<(), CompileError> {
        let (a, b) = self.dag.operands(node);
        let module_a = self.module_of(a)?;
        let module_b = self.module_of(b)?;
        if module_a == module_b {
            self.route_same_module(a, b, module_a)
        } else {
            self.route_to_optical(a)?;
            self.route_to_optical(b)
        }
    }

    /// Multi-level zone selection for an intra-module gate: among the module's
    /// gate-capable zones, pick the one that needs the fewest incoming
    /// shuttles, then the fewest evictions, then the one where the operands'
    /// near-future partners already live (a look-ahead locality term that
    /// keeps e.g. a rippling carry moving forward instead of dragging whole
    /// blocks backwards), then the smallest level distance for the qubits
    /// that do move (Section 3.2, "Multi-level scheduling").
    ///
    /// The affinity term is a *tie-breaker* (third key), and it is the only
    /// term that reads the DAG's look-ahead window — whose cache is
    /// invalidated by every retired gate, making its refresh the dominant
    /// cost of the dry passes. So the selection runs in two phases: score
    /// every candidate on the cheap `(incoming, evictions)` prefix first, and
    /// only consult the window when two candidates actually tie on it. The
    /// chosen zone is identical to the one-phase lexicographic minimum.
    fn route_same_module(
        &mut self,
        a: QubitId,
        b: QubitId,
        module: ModuleId,
    ) -> Result<(), CompileError> {
        let za = self.zone_of(a)?;
        let zb = self.zone_of(b)?;
        let candidates = self.device.zones_in_module(module);
        let cheap_score = |this: &Self, zone: &eml_qccd::Zone| {
            let mut incoming = 0usize;
            let mut level_cost: u8 = 0;
            for z in [za, zb] {
                if z != zone.id {
                    incoming += 1;
                    level_cost += this.device.zone(z).level.distance(zone.level);
                }
            }
            let free = this.state.free_slots(this.device, zone.id);
            (incoming, incoming.saturating_sub(free), level_cost)
        };

        // Phase 1: minimal (incoming, evictions) prefix and its tie count.
        let mut best_prefix: Option<(usize, usize)> = None;
        let mut ties = 0usize;
        let mut first_tied: Option<ZoneId> = None;
        for zone in candidates {
            if !zone.level.supports_gates() {
                continue;
            }
            let (incoming, evictions, _) = cheap_score(self, zone);
            let prefix = (incoming, evictions);
            if best_prefix.is_none_or(|best| prefix < best) {
                best_prefix = Some(prefix);
                ties = 1;
                first_tied = Some(zone.id);
            } else if best_prefix == Some(prefix) {
                ties += 1;
            }
        }
        let best_prefix = best_prefix.ok_or_else(|| CompileError::PlacementFailed {
            qubit: a,
            context: format!("module {module} has no gate-capable zone"), // lint: allow (cold error path)
        })?;

        // Phase 2: resolve ties with (-affinity, level distance, zone id) —
        // the window is queried only on this (rarer) path.
        let target = if ties == 1 {
            first_tied.expect("a minimal prefix has a witness zone")
        } else {
            let mut best: Option<((i64, u8, usize), ZoneId)> = None;
            for zone in candidates {
                if !zone.level.supports_gates() {
                    continue;
                }
                let (incoming, evictions, level_cost) = cheap_score(self, zone);
                if (incoming, evictions) != best_prefix {
                    continue;
                }
                let affinity = self.zone_affinity(a, zone.id) + self.zone_affinity(b, zone.id);
                let score = (-(affinity as i64), level_cost, zone.id.index());
                if best.is_none_or(|(s, _)| score < s) {
                    best = Some((score, zone.id));
                }
            }
            best.map(|(_, z)| z)
                .expect("the tied prefix has at least two witness zones")
        };
        for q in [a, b] {
            self.move_qubit(q, target, &[a, b])?;
        }
        Ok(())
    }

    /// Moves `q` into an optical zone of its own module (for fiber gates and
    /// inserted SWAPs). Prefers an optical zone that already holds the qubit,
    /// then the one with the most free space.
    fn route_to_optical(&mut self, q: QubitId) -> Result<(), CompileError> {
        let module = self.module_of(q)?;
        let current = self.zone_of(q)?;
        if self.device.zone(current).level.supports_fiber() {
            return Ok(());
        }
        let optical_zones = self
            .device
            .zones_in_module_at_level(module, ZoneLevel::Optical);
        let target = optical_zones
            .iter()
            .max_by_key(|z| {
                (
                    self.state.free_slots(self.device, z.id),
                    std::cmp::Reverse(z.id.index()),
                )
            })
            .map(|z| z.id)
            .ok_or_else(|| CompileError::PlacementFailed {
                qubit: q,
                context: format!("module {module} has no optical zone"), // lint: allow (cold error path)
            })?;
        self.move_qubit(q, target, &[q])
    }

    /// Shuttles `q` to `target`, evicting LRU ions from `target` first if it
    /// is full. `protected` ions are never chosen as eviction victims.
    fn move_qubit(
        &mut self,
        q: QubitId,
        target: ZoneId,
        protected: &[QubitId],
    ) -> Result<(), CompileError> {
        if self.zone_of(q)? == target {
            return Ok(());
        }
        self.ensure_space(target, protected)?;
        self.state.shuttle_into(self.device, q, target, self.ops);
        Ok(())
    }

    /// Number of gates in the next few DAG layers that pair `q` with a qubit
    /// currently resident in `zone` (the locality signal used for routing and
    /// for breaking LRU ties).
    ///
    /// `O(gates-on-q-in-window)` per call: the partner pairs come from the
    /// DAG's cached look-ahead window, refreshed at most once per retired
    /// gate instead of rebuilt per candidate zone.
    fn zone_affinity(&self, q: QubitId, zone: ZoneId) -> usize {
        let state = &*self.state;
        self.dag
            .count_window_partners(self.options.lookahead_k, q, |p| {
                state.zone_of(p) == Some(zone)
            })
    }

    /// How soon `q` is needed again: the index of the first look-ahead layer
    /// that contains a gate on `q`, or `usize::MAX` if it does not appear in
    /// the window. Qubits needed furthest in the future are the safest
    /// eviction victims.
    ///
    /// `O(1)` per call via the cached window's per-qubit next-use-depth
    /// index (built once per window refresh).
    fn next_use_distance(&self, q: QubitId) -> usize {
        self.dag
            .next_use_depth(self.options.lookahead_k, q)
            .unwrap_or(usize::MAX)
    }

    /// LRU conflict handling: while `zone` is full, evict its least-recently
    /// used unprotected ion to the closest lower-level zone with space
    /// (falling back to any zone of the module with space). Ties in the LRU
    /// timestamp — in particular qubits that have not been used at all yet —
    /// are broken in favour of the ion whose next use lies furthest in the
    /// future, which follows the same locality principle.
    ///
    /// Like [`Scheduler::route_same_module`], the next-use term is a
    /// tie-breaker that reads the look-ahead window, so the victim search
    /// runs over the cheap LRU timestamps first and consults the window only
    /// when two candidates actually share the minimal timestamp. The chosen
    /// victim is identical to the one-phase lexicographic minimum.
    fn ensure_space(&mut self, zone: ZoneId, protected: &[QubitId]) -> Result<(), CompileError> {
        let mask = protected_mask(protected);
        while self.state.free_slots(self.device, zone) == 0 {
            // Phase 1: minimal last-use timestamp and its tie count.
            let mut min_last: Option<u64> = None;
            let mut ties = 0usize;
            let mut first_tied: Option<QubitId> = None;
            for &q in self.state.chain(zone) {
                if is_protected(q, mask, protected) {
                    continue;
                }
                let last = self.state.last_use(q);
                if min_last.is_none_or(|m| last < m) {
                    min_last = Some(last);
                    ties = 1;
                    first_tied = Some(q);
                } else if min_last == Some(last) {
                    ties += 1;
                }
            }
            // Phase 2: break timestamp ties by furthest next use (the only
            // window query on this path), then qubit id. A unique minimum
            // needs no tie-break — `first_tied` is the chain-order first, and
            // with a unique key also the lexicographic minimum.
            let victim = if ties > 1 {
                self.state
                    .chain(zone)
                    .iter()
                    .copied()
                    .filter(|&q| !is_protected(q, mask, protected))
                    .filter(|&q| Some(self.state.last_use(q)) == min_last)
                    .min_by_key(|&q| (std::cmp::Reverse(self.next_use_distance(q)), q.index()))
            } else {
                first_tied
            };
            let victim = victim.ok_or_else(|| CompileError::PlacementFailed {
                qubit: *protected.first().unwrap_or(&QubitId::new(0)),
                context: format!("zone {zone} is full of protected qubits"), // lint: allow (cold error path)
            })?;
            let destination = self.eviction_target(zone).ok_or_else(|| {
                let module = self.device.zone(zone).module;
                CompileError::PlacementFailed {
                    qubit: victim,
                    context: format!("no eviction target in module {module}"), // lint: allow (cold error path)
                }
            })?;
            self.state
                .shuttle_into(self.device, victim, destination, self.ops);
        }
        Ok(())
    }

    /// Chooses where an evicted ion goes: a zone of the same module with free
    /// space, preferring zones *below* the source level (multi-level
    /// scheduling sends displaced qubits down the hierarchy, like a page
    /// fault), then the smallest level distance.
    fn eviction_target(&self, from: ZoneId) -> Option<ZoneId> {
        let from_zone = self.device.zone(from);
        self.device
            .zones_in_module(from_zone.module)
            .iter()
            .filter(|z| z.id != from)
            .filter(|z| self.state.free_slots(self.device, z.id) > 0)
            .min_by_key(|z| {
                let below = z.level < from_zone.level;
                (
                    if below { 0u8 } else { 1u8 },
                    from_zone.level.distance(z.level),
                    z.id.index(),
                )
            })
            .map(|z| z.id)
    }

    /// Brings the Section 3.3 weight table up to date with the DAG's current
    /// look-ahead window and the current placement: `O(Δ)` bumps for the
    /// gates that crossed the window boundary since the previous fiber gate
    /// (placement churn is applied eagerly at the `swap_logical` site below,
    /// so the window record is the only drift to reconcile here).
    fn sync_weights_into(&self, table: &mut WeightTable) {
        let state = &*self.state;
        let device = self.device;
        table.sync(
            self.dag,
            self.options.lookahead_k,
            device.num_modules(),
            |qubit| state.module_of(device, qubit),
        );
    }

    /// Section 3.3: after a fiber gate on `(a, b)`, check whether either
    /// operand should be logically swapped onto another module.
    fn try_swap_insertion(&mut self, a: QubitId, b: QubitId) -> Result<(), CompileError> {
        // The pooled table is taken out of the scratch for the duration of
        // the pass so `self` stays free for the routing calls below, and put
        // back (allocation intact) when done.
        let mut table = std::mem::take(self.weights);
        self.sync_weights_into(&mut table);
        let result = self.swap_insertion_pass(a, b, &mut table);
        *self.weights = table;
        result
    }

    /// The body of [`Scheduler::try_swap_insertion`], operating on the
    /// taken-out weight table.
    ///
    /// One table serves both operands. The routing below moves ions only
    /// within their modules (and retires no gate), so the table can only go
    /// stale when an inserted SWAP changes qubit→module assignments — and
    /// that churn is repaired exactly, in `O(window partners)`, by the
    /// `apply_module_change` pair next to `swap_logical`.
    fn swap_insertion_pass(
        &mut self,
        a: QubitId,
        b: QubitId,
        table: &mut WeightTable,
    ) -> Result<(), CompileError> {
        for q in [a, b] {
            let home = self.module_of(q)?;
            // The qubit must no longer be needed on its current module...
            if table.weight(q, home) > 0 {
                continue;
            }
            // ...and strongly needed on another module.
            let Some((target_module, _)) =
                table.best_remote_module(q, home, self.options.swap_threshold)
            else {
                continue;
            };
            // Find a partner on the target module that is itself no longer
            // needed there.
            let Some(partner) = self.swap_partner(target_module, table, &[a, b]) else {
                continue;
            };
            // Both qubits meet in their optical zones and exchange via three
            // remote MS gates.
            self.route_to_optical(q)?;
            self.route_to_optical(partner)?;
            let zq = self.zone_of(q)?;
            let zp = self.zone_of(partner)?;
            for _ in 0..3 {
                self.ops.push_op(ScheduledOp::FiberGate {
                    a: q,
                    b: partner,
                    zone_a: zq.index(),
                    zone_b: zp.index(),
                });
            }
            self.state.swap_logical(q, partner);
            // The swap moved `q` home → target and `partner` target → home;
            // re-attribute both qubits' window partners so the table stays
            // exactly the one a full recompute would produce.
            let k = self.options.lookahead_k;
            table.apply_module_change(self.dag, k, q, home, target_module);
            table.apply_module_change(self.dag, k, partner, target_module, home);
            self.clock += 1;
            self.state.touch(q, self.clock);
            self.state.touch(partner, self.clock);
            self.inserted_swaps += 1;
        }
        Ok(())
    }

    /// Picks the least-recently-used qubit on `module` whose weight towards
    /// its own module is zero (it has no near-future work there).
    fn swap_partner(
        &self,
        module: ModuleId,
        table: &WeightTable,
        excluded: &[QubitId],
    ) -> Option<QubitId> {
        self.device
            .zones_in_module(module)
            .iter()
            .flat_map(|z| self.state.chain(z.id).iter().copied())
            .filter(|q| !excluded.contains(q))
            .filter(|&q| table.weight(q, module) == 0)
            .min_by_key(|&q| (self.state.last_use(q), q.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::trivial_mapping;
    use eml_qccd::{DeviceConfig, ScheduleExecutor};
    use ion_circuit::generators;

    fn schedule_circuit(
        circuit: &Circuit,
        options: &MussTiOptions,
        device: &EmlQccdDevice,
    ) -> Scheduled<ZoneId> {
        let mapping = trivial_mapping(device, circuit.num_qubits()).unwrap();
        schedule(device, options, circuit, &mapping).unwrap()
    }

    fn count_two_qubit_ops(ops: &[ScheduledOp]) -> usize {
        ops.iter().filter(|o| o.is_two_qubit()).count()
    }

    #[test]
    fn every_two_qubit_gate_is_scheduled() {
        let device = DeviceConfig::for_qubits(16).build();
        let circuit = generators::qft(16);
        let outcome = schedule_circuit(&circuit, &MussTiOptions::trivial(), &device);
        // Every circuit gate appears; inserted swaps would only add more.
        assert!(count_two_qubit_ops(&outcome.ops) >= circuit.two_qubit_gate_count());
        assert_eq!(outcome.inserted_swaps, 0);
    }

    #[test]
    fn colocated_chain_needs_no_shuttles() {
        // 8 qubits all fit in one optical zone: a GHZ chain never shuttles.
        let device = DeviceConfig::default().with_modules(2).build();
        let circuit = generators::ghz(8);
        let outcome = schedule_circuit(&circuit, &MussTiOptions::trivial(), &device);
        let shuttles = outcome.ops.iter().filter(|o| o.is_shuttle()).count();
        assert_eq!(shuttles, 0);
    }

    #[test]
    fn cross_module_gates_become_fiber_gates() {
        // Cap each module at 16 ions so 32 qubits straddle two modules
        // (16 + 16 in the optical zones): the GHZ chain crosses the module
        // boundary exactly once and that gate becomes a fiber gate.
        let device = DeviceConfig::default()
            .with_modules(2)
            .with_max_qubits_per_module(16)
            .build();
        let circuit = generators::ghz(32);
        let outcome = schedule_circuit(&circuit, &MussTiOptions::trivial(), &device);
        let fiber = outcome
            .ops
            .iter()
            .filter(|o| matches!(o, ScheduledOp::FiberGate { .. }))
            .count();
        assert_eq!(fiber, 1);
        let shuttles = outcome.ops.iter().filter(|o| o.is_shuttle()).count();
        assert_eq!(shuttles, 0);
    }

    #[test]
    fn zone_boundary_gates_inside_a_module_use_shuttles_not_fiber() {
        // A single-module device forces all 32 qubits of a GHZ chain into
        // module 0 (optical + operation zones); the single zone-boundary gate
        // costs a couple of shuttles and no fiber gate.
        let device = DeviceConfig::default().with_modules(1).build();
        let circuit = generators::ghz(32);
        let outcome = schedule_circuit(&circuit, &MussTiOptions::trivial(), &device);
        let fiber = outcome
            .ops
            .iter()
            .filter(|o| matches!(o, ScheduledOp::FiberGate { .. }))
            .count();
        assert_eq!(fiber, 0);
        let shuttles = outcome.ops.iter().filter(|o| o.is_shuttle()).count();
        assert!((1..=8).contains(&shuttles), "got {shuttles}");
    }

    #[test]
    fn storage_resident_qubits_are_shuttled_in() {
        // Force qubits into storage by over-filling: 48 qubits on 2 modules
        // puts 16 in operation zones; gates touching them need shuttles or
        // zone meetings.
        let device = DeviceConfig::default().with_modules(2).build();
        let circuit = generators::qft(48);
        let outcome = schedule_circuit(&circuit, &MussTiOptions::trivial(), &device);
        assert!(outcome.ops.iter().any(|o| o.is_shuttle()));
        let metrics = ScheduleExecutor::paper_defaults().execute(&outcome.ops);
        assert!(metrics.shuttle_count > 0);
        assert!(metrics.fiber_gates > 0);
    }

    #[test]
    fn final_mapping_covers_every_qubit_exactly_once() {
        let device = DeviceConfig::for_qubits(32).build();
        let circuit = generators::sqrt(30);
        let outcome = schedule_circuit(&circuit, &MussTiOptions::default(), &device);
        assert_eq!(outcome.final_assignment.len(), 30);
        let mut qubits: Vec<usize> = outcome
            .final_assignment
            .iter()
            .map(|(q, _)| q.index())
            .collect();
        qubits.sort_unstable();
        qubits.dedup();
        assert_eq!(qubits.len(), 30);
    }

    #[test]
    fn zone_capacity_is_never_exceeded_during_scheduling() {
        let device = DeviceConfig::default()
            .with_modules(2)
            .with_trap_capacity(8)
            .build();
        let circuit = generators::random_circuit(24, 200, 7);
        let mapping = trivial_mapping(&device, 24).unwrap();
        let outcome = schedule(&device, &MussTiOptions::default(), &circuit, &mapping).unwrap();

        // Replay the op stream and track per-zone occupancy in a flat
        // zone-indexed array (zone ids are dense — the PR 2 flat-state
        // contract applies to the test harnesses too).
        let mut occupancy = vec![0i64; device.zones().len()];
        for &(_, z) in &mapping {
            occupancy[z.index()] += 1;
        }
        for op in &outcome.ops {
            if let ScheduledOp::Shuttle {
                from_zone, to_zone, ..
            } = op
            {
                occupancy[*from_zone] -= 1;
                occupancy[*to_zone] += 1;
            }
        }
        for zone in device.zones() {
            let count = occupancy[zone.id.index()];
            assert!(count >= 0, "zone {} went negative", zone.id);
            assert!(
                count as usize <= zone.capacity,
                "zone {} ends over capacity: {count}",
                zone.id
            );
        }
    }

    #[test]
    fn swap_insertion_triggers_on_module_hopping_workload() {
        // A hub qubit on module 0 repeatedly interacts with qubits on module 1:
        // exactly the Fig. 5 pattern that SWAP insertion targets.
        let device = DeviceConfig::default()
            .with_modules(2)
            .with_max_qubits_per_module(12)
            .build();
        // 24 qubits, 12 per module, all in the optical zones. The hub qubit
        // q0 (module 0) then repeatedly talks to qubits on module 1.
        let mut circuit = Circuit::new(24);
        for t in 14..24 {
            circuit.ms(0, t);
        }
        let mapping = trivial_mapping(&device, 24).unwrap();
        let with_swap = schedule(
            &device,
            &MussTiOptions::swap_insert_only(),
            &circuit,
            &mapping,
        )
        .unwrap();
        let without = schedule(&device, &MussTiOptions::trivial(), &circuit, &mapping).unwrap();
        assert!(
            with_swap.inserted_swaps >= 1,
            "expected at least one inserted SWAP"
        );
        assert_eq!(without.inserted_swaps, 0);
        // After the swap the remaining hub gates are local, so fewer fiber gates.
        let fiber = |ops: &[ScheduledOp]| {
            ops.iter()
                .filter(|o| matches!(o, ScheduledOp::FiberGate { .. }))
                .count()
        };
        assert!(
            fiber(&with_swap.ops) < fiber(&without.ops) + 3,
            "swap cost must be bounded"
        );
        let exec = ScheduleExecutor::paper_defaults();
        let f_with = exec.execute(&with_swap.ops).log_fidelity.ln();
        let f_without = exec.execute(&without.ops).log_fidelity.ln();
        assert!(
            f_with >= f_without,
            "swap insertion should not hurt this workload"
        );
    }

    #[test]
    fn deterministic_for_identical_inputs() {
        let device = DeviceConfig::for_qubits(30).build();
        let circuit = generators::sqrt(30);
        let a = schedule_circuit(&circuit, &MussTiOptions::default(), &device);
        let b = schedule_circuit(&circuit, &MussTiOptions::default(), &device);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.final_assignment, b.final_assignment);
    }
}
