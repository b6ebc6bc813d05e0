//! Per-tenant evaluation-budget quotas for multi-tenant calibration
//! services.
//!
//! A [`QuotaBook`] tracks how many objective evaluations each tenant has
//! been granted. Admission control charges a job's *planned* evaluation
//! count up front (the plan is deterministic, so the count is exact for
//! [`crate::budget::Budget::Evaluations`] budgets); a rejected or
//! cancelled job refunds its charge. Resuming a checkpointed job must
//! NOT be re-charged — replayed checkpoints consume no budget — so the
//! caller only charges genuinely new admissions.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// A tenant's admission was refused: the requested evaluations exceed
/// what remains of its quota.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuotaExceeded {
    /// The tenant that asked.
    pub tenant: String,
    /// Evaluations the admission would have charged.
    pub requested: usize,
    /// Evaluations still available to the tenant.
    pub remaining: usize,
}

impl fmt::Display for QuotaExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tenant {} quota exceeded: requested {} evaluations, {} remaining",
            self.tenant, self.requested, self.remaining
        )
    }
}

impl std::error::Error for QuotaExceeded {}

struct Tenant {
    limit: usize,
    charged: usize,
}

/// Thread-safe per-tenant evaluation accounting. Tenants not explicitly
/// configured get the default limit on first contact.
pub struct QuotaBook {
    default_limit: usize,
    tenants: Mutex<HashMap<String, Tenant>>,
}

impl QuotaBook {
    /// A book whose unconfigured tenants may charge up to
    /// `default_limit` evaluations each.
    pub fn new(default_limit: usize) -> Self {
        Self {
            default_limit,
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// Set (or overwrite) one tenant's limit. Already-charged
    /// evaluations are kept, so lowering a limit below the charge simply
    /// blocks further admissions.
    pub fn set_limit(&self, tenant: &str, limit: usize) {
        let mut tenants = self.tenants.lock().unwrap();
        tenants
            .entry(tenant.to_string())
            .and_modify(|t| t.limit = limit)
            .or_insert(Tenant { limit, charged: 0 });
    }

    /// Evaluations the tenant has charged so far.
    pub fn charged(&self, tenant: &str) -> usize {
        self.tenants
            .lock()
            .unwrap()
            .get(tenant)
            .map_or(0, |t| t.charged)
    }

    /// Evaluations the tenant can still charge.
    pub fn remaining(&self, tenant: &str) -> usize {
        let tenants = self.tenants.lock().unwrap();
        match tenants.get(tenant) {
            Some(t) => t.limit.saturating_sub(t.charged),
            None => self.default_limit,
        }
    }

    /// Charge `evaluations` against the tenant's quota, or refuse with a
    /// typed [`QuotaExceeded`] leaving the book unchanged.
    pub fn charge(&self, tenant: &str, evaluations: usize) -> Result<(), QuotaExceeded> {
        let mut tenants = self.tenants.lock().unwrap();
        let t = tenants.entry(tenant.to_string()).or_insert(Tenant {
            limit: self.default_limit,
            charged: 0,
        });
        let remaining = t.limit.saturating_sub(t.charged);
        if evaluations > remaining {
            return Err(QuotaExceeded {
                tenant: tenant.to_string(),
                requested: evaluations,
                remaining,
            });
        }
        t.charged += evaluations;
        Ok(())
    }

    /// Return `evaluations` to the tenant (a cancelled or failed job
    /// gives its admission charge back). Saturates at zero.
    pub fn refund(&self, tenant: &str, evaluations: usize) {
        let mut tenants = self.tenants.lock().unwrap();
        if let Some(t) = tenants.get_mut(tenant) {
            t.charged = t.charged.saturating_sub(evaluations);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_hit_the_limit() {
        let book = QuotaBook::new(100);
        assert_eq!(book.remaining("a"), 100);
        book.charge("a", 60).unwrap();
        assert_eq!(book.remaining("a"), 40);
        assert_eq!(book.charged("a"), 60);
        let err = book.charge("a", 41).unwrap_err();
        assert_eq!(
            err,
            QuotaExceeded {
                tenant: "a".into(),
                requested: 41,
                remaining: 40,
            }
        );
        // The refused charge left the book unchanged.
        assert_eq!(book.remaining("a"), 40);
        book.charge("a", 40).unwrap();
        assert_eq!(book.remaining("a"), 0);
    }

    #[test]
    fn tenants_are_isolated_and_configurable() {
        let book = QuotaBook::new(10);
        book.set_limit("big", 1000);
        book.charge("big", 500).unwrap();
        assert_eq!(book.remaining("big"), 500);
        // The default tenant is unaffected by big's configuration.
        assert_eq!(book.remaining("small"), 10);
        assert!(book.charge("small", 11).is_err());
    }

    #[test]
    fn refunds_restore_capacity_and_saturate() {
        let book = QuotaBook::new(50);
        book.charge("t", 30).unwrap();
        book.refund("t", 10);
        assert_eq!(book.remaining("t"), 30);
        // Refunding more than was charged clamps at zero charge.
        book.refund("t", 1000);
        assert_eq!(book.remaining("t"), 50);
        // Refunding an unknown tenant is a no-op.
        book.refund("ghost", 5);
        assert_eq!(book.remaining("ghost"), 50);
    }

    #[test]
    fn lowering_a_limit_below_the_charge_blocks_without_panicking() {
        let book = QuotaBook::new(100);
        book.charge("t", 80).unwrap();
        book.set_limit("t", 50);
        assert_eq!(book.remaining("t"), 0);
        assert!(book.charge("t", 1).is_err());
        assert_eq!(book.charged("t"), 80);
    }

    #[test]
    fn quota_errors_render_actionably() {
        let err = QuotaExceeded {
            tenant: "acme".into(),
            requested: 7,
            remaining: 3,
        };
        let msg = err.to_string();
        assert!(msg.contains("acme"), "{msg}");
        assert!(msg.contains('7'), "{msg}");
        assert!(msg.contains('3'), "{msg}");
    }
}
