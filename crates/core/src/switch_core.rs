//! The perf ledger's name for a switch: [`SwitchCore`], a thin shim over
//! [`harmonia_switch::Switch`] that the ledger's `path` rig builds and
//! steps. Every driver hosts `Switch` itself ([`crate::worker`]); this
//! shim, `harmonia_switch::SpineView` and `harmonia_replication`'s
//! `build_replica` go together once the ledger holds the library's types.

use harmonia_switch::{SpineView, Switch, SwitchStats, SwitchTotals};
use harmonia_types::{Instant, NodeId, SwitchId};
use rand::rngs::SmallRng;

use crate::deployment::DeploymentSpec;
use crate::msg::Msg;

/// Every group's pipeline of one switch incarnation, as the ledger drives
/// it.
pub struct SwitchCore(Switch);

impl SwitchCore {
    /// Every group's pipeline of incarnation `incarnation` of `spec`.
    pub fn for_deployment(spec: &DeploymentSpec, incarnation: SwitchId) -> Self {
        SwitchCore(Switch::new(&spec.switch_config(incarnation)))
    }

    /// [`Switch::handle`], its report discarded.
    pub fn handle(
        &mut self,
        now: Instant,
        me: NodeId,
        msg: Msg,
        rng: &mut SmallRng,
        out: &mut Vec<(NodeId, Msg)>,
    ) {
        self.0.handle(now, me, msg, rng, out);
    }

    /// Data-plane counters summed over every group.
    pub fn stats(&self) -> SwitchStats {
        SwitchTotals::of(&self.0.observe()).stats
    }

    /// Every group's row, for the ledger's counters and dirty-set
    /// occupancy.
    pub fn view(&self) -> SpineView {
        SpineView(self.0.observe())
    }
}
