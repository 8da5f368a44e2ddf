//! Multi-tenant service abstraction: tenants, quotas, and overload
//! policy.
//!
//! The paper treats the MSR architecture as a shared service — many
//! application clients (the §6 Astro3D/Volren mix) against one pool of
//! storage resources. Once the system is shared, one misbehaving client
//! can starve the rest: its sessions fill the admission queues and every
//! other tenant's predicted wait (eq. (2)) grows without bound. The types
//! here give the scheduler what it needs to prevent that:
//!
//! * a [`Tenant`] carries a *weight* (its share of dispatch bandwidth
//!   under weighted-fair queueing), a *quota* (a hard cap on queued
//!   requests) and an *SLO* (the largest predicted queue wait it will
//!   accept at admission);
//! * a [`TenantQuota`] is checked at admission against the live
//!   per-tenant usage on the `LoadBoard`;
//! * an [`OverloadPolicy`] decides what happens when the eq. (2) priced
//!   wait exceeds the SLO — shed the session with a typed error, or
//!   defer it into a bounded backpressure queue with a time-to-live.
//!
//! The registry always contains a *default tenant* (id 0, weight 1, no
//! quotas, no SLO) so single-tenant callers never see any of this: an
//! untagged `SessionProgram` lands on the default tenant, whose lone
//! weighted-fair lane degrades to exactly the old per-resource FIFO.

use msr_sim::SimDuration;
use parking_lot::Mutex;
use std::sync::Arc;

/// Identifies a registered [`Tenant`]. Id 0 is always the default tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Hard per-tenant caps, checked at admission. `None` means unlimited. A
/// session that would push the tenant past the cap is shed with
/// [`crate::CoreError::QuotaExceeded`] before anything is queued.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantQuota {
    /// Maximum engine requests the tenant may have queued at once.
    pub max_queued_requests: Option<usize>,
}

impl TenantQuota {
    /// No caps at all (the default tenant's quota).
    pub fn unlimited() -> TenantQuota {
        TenantQuota::default()
    }
}

/// What admission does when a tenant's priced wait exceeds its SLO.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OverloadPolicy {
    /// Reject immediately with [`crate::CoreError::Rejected`].
    #[default]
    Shed,
    /// Park the program in a bounded backpressure queue and retry
    /// admission as the drain makes progress; expire it (counted, not
    /// errored) once `ttl` of virtual time passes without room.
    Defer {
        /// Most programs the tenant may have parked at once; when the
        /// queue is full further programs are shed.
        max_deferred: usize,
        /// Virtual time a parked program may wait before expiring.
        ttl: SimDuration,
    },
}

/// A registered client of the shared system.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Display name; also the key sessions use to tag themselves.
    pub name: String,
    /// Weighted-fair dispatch share. A weight-4 tenant receives 4x the
    /// service bandwidth of a weight-1 tenant while both are backlogged.
    pub weight: f64,
    /// Hard admission caps.
    pub quota: TenantQuota,
    /// Largest eq. (2) predicted queue wait accepted at admission;
    /// `None` disables SLO-based shedding for this tenant.
    pub slo: Option<SimDuration>,
    /// What to do when the SLO check fails.
    pub overload: OverloadPolicy,
}

impl Tenant {
    /// A tenant with weight 1, no quotas and no SLO.
    pub fn new(name: impl Into<String>) -> Tenant {
        Tenant {
            name: name.into(),
            weight: 1.0,
            quota: TenantQuota::unlimited(),
            slo: None,
            overload: OverloadPolicy::Shed,
        }
    }

    /// Set the weighted-fair dispatch share (clamped to be positive).
    pub fn with_weight(mut self, weight: f64) -> Tenant {
        self.weight = if weight > 0.0 { weight } else { 1.0 };
        self
    }

    /// Set the hard admission caps.
    pub fn with_quota(mut self, quota: TenantQuota) -> Tenant {
        self.quota = quota;
        self
    }

    /// Set the admission SLO: the largest predicted queue wait accepted.
    pub fn with_slo(mut self, slo: SimDuration) -> Tenant {
        self.slo = Some(slo);
        self
    }

    /// Set the overload policy applied when the SLO check fails.
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Tenant {
        self.overload = overload;
        self
    }
}

/// Shared registry of tenants. Clones observe the same registry. The
/// default tenant (id 0) is pre-registered and cannot be removed.
#[derive(Debug, Clone)]
pub struct TenantRegistry {
    tenants: Arc<Mutex<Vec<Tenant>>>,
}

impl Default for TenantRegistry {
    fn default() -> Self {
        TenantRegistry {
            tenants: Arc::new(Mutex::new(vec![Tenant::new("default")])),
        }
    }
}

impl TenantRegistry {
    /// A registry holding only the default tenant.
    pub fn new() -> TenantRegistry {
        TenantRegistry::default()
    }

    /// Register `tenant`, or replace the existing registration with the
    /// same name (so weights/quotas can be tuned between drains).
    /// Returns the tenant's id.
    pub fn register(&self, tenant: Tenant) -> TenantId {
        let mut tenants = self.tenants.lock();
        if let Some(i) = tenants.iter().position(|t| t.name == tenant.name) {
            tenants[i] = tenant;
            TenantId(i as u32)
        } else {
            tenants.push(tenant);
            TenantId(tenants.len() as u32 - 1)
        }
    }

    /// The tenant registered under `id`, if any.
    pub fn get(&self, id: TenantId) -> Option<Tenant> {
        self.tenants.lock().get(id.0 as usize).cloned()
    }

    /// Look up a tenant by name.
    pub fn lookup(&self, name: &str) -> Option<(TenantId, Tenant)> {
        let tenants = self.tenants.lock();
        tenants
            .iter()
            .position(|t| t.name == name)
            .map(|i| (TenantId(i as u32), tenants[i].clone()))
    }

    /// Resolve a session's tenant tag: `None` (an untagged program) maps
    /// to the default tenant; an unregistered name is auto-registered
    /// with defaults so tagging alone is enough to get a fair lane.
    pub fn resolve_or_register(&self, name: Option<&str>) -> (TenantId, Tenant) {
        match name {
            None => (TenantId(0), self.get(TenantId(0)).expect("default tenant")),
            Some(name) => match self.lookup(name) {
                Some(found) => found,
                None => {
                    let tenant = Tenant::new(name);
                    (self.register(tenant.clone()), tenant)
                }
            },
        }
    }

    /// Number of registered tenants (at least 1: the default).
    pub fn len(&self) -> usize {
        self.tenants.lock().len()
    }

    /// Never true — the default tenant is always present.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tenant_is_preregistered() {
        let reg = TenantRegistry::new();
        assert_eq!(reg.len(), 1);
        let (id, t) = reg.resolve_or_register(None);
        assert_eq!(id, TenantId(0));
        assert_eq!(t.name, "default");
        assert_eq!(t.weight, 1.0);
        assert_eq!(t.quota, TenantQuota::unlimited());
        assert!(t.slo.is_none());
    }

    #[test]
    fn registration_assigns_stable_ids_and_replaces_by_name() {
        let reg = TenantRegistry::new();
        let a = reg.register(Tenant::new("astro").with_weight(4.0));
        let b = reg.register(Tenant::new("viz"));
        assert_eq!(a, TenantId(1));
        assert_eq!(b, TenantId(2));
        // Re-registering the same name updates in place.
        let a2 = reg.register(Tenant::new("astro").with_weight(8.0));
        assert_eq!(a2, a);
        assert_eq!(reg.get(a).unwrap().weight, 8.0);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn unknown_names_auto_register() {
        let reg = TenantRegistry::new();
        let (id, t) = reg.resolve_or_register(Some("batch"));
        assert_eq!(id, TenantId(1));
        assert_eq!(t.name, "batch");
        // Resolving again finds the same registration.
        let (again, _) = reg.resolve_or_register(Some("batch"));
        assert_eq!(again, id);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn clones_share_one_registry() {
        let reg = TenantRegistry::new();
        let other = reg.clone();
        reg.register(Tenant::new("astro"));
        assert!(other.lookup("astro").is_some());
    }

    #[test]
    fn weight_clamps_to_positive() {
        assert_eq!(Tenant::new("t").with_weight(0.0).weight, 1.0);
        assert_eq!(Tenant::new("t").with_weight(-3.0).weight, 1.0);
        assert_eq!(Tenant::new("t").with_weight(2.5).weight, 2.5);
    }
}
