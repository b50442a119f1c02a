//! A machine wrapped in a violation-collecting shadow checker.
//!
//! [`CheckedMachine`] is the execution vehicle shared by the explorer, the
//! trace replayer and the property tests: it applies [`TraceOp`]s, the
//! shadow checker runs in *collecting* mode (violations become data
//! instead of panics), and at any point the accumulated violations —
//! including a full mirror-versus-machine audit — can be drained. Its
//! callers hold the operation sequence they applied, so a failure always
//! comes with a replayable trace.

use crate::trace::TraceOp;
use raccd_mem::{BlockAddr, PageNum};
use raccd_sim::{
    FaultPlan, FaultPlane, L1LookupResult, Machine, MachineConfig, ShadowChecker, Violation,
};

/// A [`Machine`] plus a collecting shadow checker.
pub struct CheckedMachine {
    machine: Machine,
    now: u64,
}

impl CheckedMachine {
    /// Build a fresh machine under `cfg` with a collecting shadow checker
    /// attached (replacing any fail-fast checker the configuration or the
    /// `RACCD_SHADOW_CHECK` environment variable would install).
    pub fn new(cfg: MachineConfig) -> Self {
        let mut machine = Machine::new(cfg);
        machine.attach_checker(Box::new(ShadowChecker::collecting(&cfg)));
        CheckedMachine { machine, now: 0 }
    }

    /// [`CheckedMachine::new`] plus a seeded fault plane: every applied
    /// operation is subject to the plan's injections while the collecting
    /// checker watches the recovery paths. Same plan + same operation
    /// sequence reproduce the same injections (and the same end state).
    pub fn with_faults(cfg: MachineConfig, plan: FaultPlan) -> Self {
        let mut cm = CheckedMachine::new(cfg);
        cm.machine.attach_faults(FaultPlane::new(plan));
        cm
    }

    /// Whether the fault plane latched its fatal flag: some message
    /// exhausted its retry budget and had to be force-delivered — the
    /// machine is protocol-consistent but the run counts as *stuck*, the
    /// synchronous-NoC analogue of a message-loss deadlock.
    pub fn stalled(&self) -> bool {
        self.machine.fault_fatal()
    }

    /// Apply one trace operation. Time advances a fixed stride per
    /// operation so replays are cycle-deterministic.
    pub fn apply(&mut self, op: TraceOp) {
        self.now += 100;
        let now = self.now;
        match op {
            TraceOp::Access {
                core,
                block,
                write,
                nc,
            } => {
                let b = BlockAddr(block);
                if let L1LookupResult::Miss = self.machine.l1_lookup(core, b, write, now) {
                    self.machine.miss_fill(core, b, write, nc, now);
                }
            }
            TraceOp::FlushNc { core } => {
                self.machine.flush_nc(core, now);
            }
            TraceOp::FlushPage { core, page } => {
                let p = PageNum(page);
                self.machine.flush_page(core, p, p, now);
            }
        }
    }

    /// Run the full mirror-versus-machine audit and drain every violation
    /// accumulated so far (event-level and audit-level). Empty = the
    /// machine has been invariant-clean for the whole trace.
    pub fn drain_violations(&mut self) -> Vec<Violation> {
        self.machine.shadow_audit();
        self.machine
            .checker_mut()
            .and_then(|sink| sink.as_any_mut().downcast_mut::<ShadowChecker>())
            .map(|sc| sc.take_violations())
            .unwrap_or_default()
    }

    /// Consume the harness, returning all violations (audit included).
    pub fn into_violations(mut self) -> Vec<Violation> {
        self.drain_violations()
    }

    /// The shadow checker's canonical fingerprint of the current
    /// protocol-visible state (see `ShadowChecker::state_key`): identical
    /// keys ⇒ indistinguishable continuations, the explorer's dedup basis.
    pub fn state_key(&self) -> String {
        self.machine
            .shadow_state_key()
            .expect("CheckedMachine always has a shadow checker")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MachineConfig {
        let mut cfg = MachineConfig::scaled();
        cfg.ncores = 4;
        cfg.mesh_k = 2;
        cfg.llc_entries_per_bank = 32;
        cfg
    }

    #[test]
    fn clean_runs_drain_no_violations() {
        let mut m = CheckedMachine::new(tiny());
        for core in 0..4 {
            m.apply(TraceOp::Access {
                core,
                block: 0x40,
                write: false,
                nc: false,
            });
        }
        m.apply(TraceOp::Access {
            core: 0,
            block: 0x40,
            write: true,
            nc: false,
        });
        assert!(m.drain_violations().is_empty());
    }

    #[test]
    fn state_key_reflects_protocol_state_not_history() {
        // Reaching the same S/S sharing pattern through different
        // operation orders must fingerprint identically.
        let mut a = CheckedMachine::new(tiny());
        let mut b = CheckedMachine::new(tiny());
        let read = |core| TraceOp::Access {
            core,
            block: 0x40,
            write: false,
            nc: false,
        };
        a.apply(read(0));
        a.apply(read(1));
        b.apply(read(1));
        b.apply(read(0));
        assert_eq!(a.state_key(), b.state_key());
        // A write by core 0 diverges the states.
        a.apply(TraceOp::Access {
            core: 0,
            block: 0x40,
            write: true,
            nc: false,
        });
        assert_ne!(a.state_key(), b.state_key());
    }
}
