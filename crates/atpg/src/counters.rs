//! Plain-u64 ATPG counters, published to a [`tpi_obs::Registry`] in
//! bulk.
//!
//! Mirrors the fault-simulator's `SimCounters` contract: the generation
//! loops bump plain fields (no atomics on the hot path), and a front end
//! calls [`AtpgCounters::publish_to`] once per run so `tpi stats` /
//! `--metrics-out` snapshots carry the `atpg.*` family next to the
//! `sim.*` and `engine.*` ones.

use tpi_obs::Registry;

use crate::Podem;

/// What a PODEM/top-off run actually did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AtpgCounters {
    /// Test cubes generated (one per successful PODEM search).
    pub cubes_generated: u64,
    /// PODEM backtracks summed over every search (successful or not).
    pub backtracks: u64,
    /// Primary-input assignments made by PODEM's decisions, flips
    /// included (fixed by the search, independent of how implication is
    /// computed).
    pub decisions: u64,
    /// Gate evaluations by PODEM's implication kernel: one sweep per
    /// search plus the event-driven re-evaluations after each decision.
    pub implications: u64,
    /// Faults abandoned because a search hit its backtrack limit.
    pub aborted_faults: u64,
    /// Faults proven untestable (redundant) along the way, carried
    /// verdicts included.
    pub redundant_faults: u64,
    /// Redundant faults recorded from a verdict carried over from the
    /// circuit before a test point, without a PODEM search (see
    /// [`topoff::generate_controlled`](crate::topoff::generate_controlled)).
    pub redundant_carried: u64,
    /// PODEM searches run with the X-path check aimed at a test point
    /// ([`Podem::generate_aimed`]): faults the circuit before the point
    /// proved redundant whose verdict the point may overturn.
    pub redundant_rechecked: u64,
    /// Faults dropped by cube fault-simulation beyond the targeted one
    /// (fortuitous detections).
    pub fortuitous_drops: u64,
}

impl AtpgCounters {
    /// Accumulate another run's counters into this one.
    pub fn merge(&mut self, other: &AtpgCounters) {
        self.cubes_generated += other.cubes_generated;
        self.backtracks += other.backtracks;
        self.decisions += other.decisions;
        self.implications += other.implications;
        self.aborted_faults += other.aborted_faults;
        self.redundant_faults += other.redundant_faults;
        self.redundant_carried += other.redundant_carried;
        self.redundant_rechecked += other.redundant_rechecked;
        self.fortuitous_drops += other.fortuitous_drops;
    }

    /// Add the work of `podem`'s last search (backtracks, decisions,
    /// implications).
    pub(crate) fn record_search(&mut self, podem: &Podem) {
        self.backtracks += podem.last_backtracks();
        self.decisions += podem.last_decisions();
        self.implications += podem.last_implications();
    }

    /// Publish into `registry` under the `atpg.*` names (adds, so
    /// repeated runs accumulate).
    pub fn publish_to(&self, registry: &Registry) {
        registry
            .counter("atpg.cubes_generated")
            .add(self.cubes_generated);
        registry.counter("atpg.backtracks").add(self.backtracks);
        registry.counter("atpg.decisions").add(self.decisions);
        registry.counter("atpg.implications").add(self.implications);
        registry
            .counter("atpg.aborted_faults")
            .add(self.aborted_faults);
        registry
            .counter("atpg.redundant_faults")
            .add(self.redundant_faults);
        registry
            .counter("atpg.redundant_carried")
            .add(self.redundant_carried);
        registry
            .counter("atpg.redundant_rechecked")
            .add(self.redundant_rechecked);
        registry
            .counter("atpg.fortuitous_drops")
            .add(self.fortuitous_drops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_field() {
        let mut a = AtpgCounters {
            cubes_generated: 1,
            backtracks: 2,
            decisions: 6,
            implications: 7,
            aborted_faults: 3,
            redundant_faults: 4,
            redundant_carried: 8,
            redundant_rechecked: 9,
            fortuitous_drops: 5,
        };
        a.merge(&a.clone());
        assert_eq!(
            a,
            AtpgCounters {
                cubes_generated: 2,
                backtracks: 4,
                decisions: 12,
                implications: 14,
                aborted_faults: 6,
                redundant_faults: 8,
                redundant_carried: 16,
                redundant_rechecked: 18,
                fortuitous_drops: 10,
            }
        );
    }

    #[test]
    fn publish_lands_under_atpg_names() {
        let registry = Registry::new();
        let c = AtpgCounters {
            cubes_generated: 7,
            backtracks: 9,
            decisions: 11,
            implications: 13,
            aborted_faults: 1,
            redundant_faults: 2,
            redundant_carried: 4,
            redundant_rechecked: 5,
            fortuitous_drops: 3,
        };
        c.publish_to(&registry);
        c.publish_to(&registry);
        assert_eq!(registry.counter("atpg.cubes_generated").get(), 14);
        assert_eq!(registry.counter("atpg.backtracks").get(), 18);
        assert_eq!(registry.counter("atpg.decisions").get(), 22);
        assert_eq!(registry.counter("atpg.implications").get(), 26);
        assert_eq!(registry.counter("atpg.aborted_faults").get(), 2);
        assert_eq!(registry.counter("atpg.redundant_carried").get(), 8);
        assert_eq!(registry.counter("atpg.redundant_rechecked").get(), 10);
    }
}
