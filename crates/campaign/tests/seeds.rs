//! A job's seed reaches its run only through the fault plane. Over every
//! benchmark, coherence mode, protocol and scheduler policy at test scale,
//! two seeds of a fault-free configuration are the same simulation, and
//! two seeds under a delay-only plane are not. A scheduler, a workload
//! generator or any other knob that read the seed would break the first
//! half; a sharing predicate that ignored a plane would break the second.

use raccd_campaign::{execute_job_direct, JobSpec};
use raccd_core::CoherenceMode;
use raccd_fault::FaultPlan;
use raccd_sim::{ProtocolKind, SchedKind};
use raccd_workloads::{all_benchmarks, Scale};

#[test]
fn seeds_differ_exactly_when_a_fault_plane_is_attached() {
    // The environment's plane counts as attached, as it does for the machine.
    let env_plane = FaultPlan::forced_from_env().is_some();
    let mut failures = Vec::new();
    for w in all_benchmarks(Scale::Test) {
        for mode in CoherenceMode::ALL {
            for protocol in ProtocolKind::ALL {
                for sched in SchedKind::ALL {
                    let mut spec = JobSpec::new(w.name(), Scale::Test, mode);
                    spec.protocol = protocol;
                    spec.sched = sched;
                    for fault in [None, Some("delay=0.05:16")] {
                        spec.fault = fault.map(String::from);
                        let one = execute_job_direct(&spec, 1).unwrap();
                        let two = execute_job_direct(&spec, 2).unwrap();
                        let planned = fault.is_some() || env_plane;
                        if (one == two) == planned {
                            failures.push(spec.canonical());
                        }
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "seeds 1 and 2 broke the rule: {failures:#?}"
    );
}
