//! Failure isolation and deterministic fault injection.
//!
//! A multi-hour sweep must not lose every completed run because one
//! simulator version panics or returns a NaN loss. This module supplies
//! the two halves of that robustness contract:
//!
//! - [`guard`] runs a closure under [`std::panic::catch_unwind`],
//!   converting a panic into an `Err(message)` while suppressing the
//!   default panic hook's backtrace noise for the guarded region. The
//!   [`crate::budget::Evaluator`] wraps every objective invocation in it
//!   and turns the outcome into a typed [`EvalFailure`].
//! - [`FaultPlan`] is a deterministic fault-injection harness for chaos
//!   tests: faults are keyed on the evaluator's seed and the
//!   budget-consuming evaluation index, both of which are deterministic
//!   under `Budget::Evaluations` regardless of thread count, so an
//!   injected-fault run is exactly reproducible.
//!
//! A plan can be installed programmatically ([`install`]/[`uninstall`])
//! or via the `CALIB_FAULTS` environment variable (see
//! [`FaultPlan::parse`] for the syntax). Evaluators snapshot the
//! installed plan at construction time.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once, OnceLock, RwLock};

/// Why an evaluation produced no usable loss.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalFailure {
    /// The objective panicked; the payload's message is preserved.
    Panic {
        /// The panic payload rendered as a string.
        message: String,
    },
    /// The objective returned a non-finite loss (NaN or ±inf).
    NonFinite {
        /// The offending loss value.
        loss: f64,
    },
    /// The budget was exhausted before the evaluation could run.
    BudgetExhausted,
}

impl std::fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalFailure::Panic { message } => write!(f, "objective panicked: {message}"),
            EvalFailure::NonFinite { loss } => {
                write!(f, "objective returned non-finite loss {loss}")
            }
            EvalFailure::BudgetExhausted => write!(f, "budget exhausted"),
        }
    }
}

thread_local! {
    /// Depth of [`guard`] nesting on this thread; the quiet panic hook
    /// stays silent while it is non-zero.
    static GUARD_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Install (once, process-wide) a panic hook that suppresses output for
/// panics caught by [`guard`] on the panicking thread, delegating to the
/// previous hook everywhere else.
fn ensure_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if GUARD_DEPTH.with(|d| d.get()) == 0 {
                previous(info);
            }
        }));
    });
}

/// Render a caught panic payload as a message string.
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, converting a panic into `Err(message)`.
///
/// The default panic hook is silenced for the guarded region (on the
/// panicking thread), so an isolated failure does not spray a backtrace
/// into the middle of a sweep's diagnostics. Note that a closure which
/// itself fans work into the thread pool panics *on a worker thread*;
/// the vendored pool propagates the payload back to the caller (where
/// this guard catches it), but the hook suppression only covers panics
/// raised on the guarded thread itself.
pub fn guard<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    ensure_quiet_hook();
    GUARD_DEPTH.with(|d| d.set(d.get() + 1));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    GUARD_DEPTH.with(|d| d.set(d.get() - 1));
    outcome.map_err(payload_message)
}

/// What an injected fault does to the targeted evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the guarded objective invocation.
    Panic,
    /// Return `f64::NAN` as the loss.
    Nan,
}

/// One injected fault: fires on evaluation `eval` (0-based,
/// budget-consuming evaluations only) of every evaluator whose seed
/// matches (`seed: None` matches any evaluator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// What happens when the fault fires.
    pub kind: FaultKind,
    /// 0-based budget-consuming evaluation index the fault targets.
    pub eval: usize,
    /// Restrict the fault to evaluators constructed with this seed.
    pub seed: Option<u64>,
}

/// A deterministic set of injected faults.
///
/// In a `lodsel` sweep every (unit, restart) run calibrates under a
/// distinct derived seed, so a seed-scoped spec targets exactly one run
/// of the sweep; the evaluation index then pins the fault to one
/// specific objective invocation within that run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fault restricted to evaluators constructed with `seed`.
    pub fn with_seeded_fault(mut self, kind: FaultKind, eval: usize, seed: u64) -> Self {
        self.specs.push(FaultSpec {
            kind,
            eval,
            seed: Some(seed),
        });
        self
    }

    /// True when the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The fault (if any) to inject into evaluation `eval` of an
    /// evaluator constructed with `seed`. First matching spec wins.
    pub fn fault_at(&self, seed: u64, eval: usize) -> Option<FaultKind> {
        self.specs
            .iter()
            .find(|s| s.eval == eval && s.seed.is_none_or(|w| w == seed))
            .map(|s| s.kind)
    }

    /// Parse the `CALIB_FAULTS` syntax: `;`-separated specs of the form
    /// `KIND@EVAL` or `KIND@EVAL@SEED`, where `KIND` is `panic` or
    /// `nan`. Examples: `panic@3`, `nan@0@12345`,
    /// `panic@2;nan@7@99`. Whitespace around specs is ignored; an empty
    /// string parses to an empty plan.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for raw in text.split(';') {
            let spec = raw.trim();
            if spec.is_empty() {
                continue;
            }
            let parts: Vec<&str> = spec.split('@').collect();
            if parts.len() < 2 || parts.len() > 3 {
                return Err(format!(
                    "fault spec `{spec}`: expected KIND@EVAL or KIND@EVAL@SEED"
                ));
            }
            let kind = match parts[0] {
                "panic" => FaultKind::Panic,
                "nan" => FaultKind::Nan,
                other => return Err(format!("fault spec `{spec}`: unknown kind `{other}`")),
            };
            let eval: usize = parts[1]
                .parse()
                .map_err(|_| format!("fault spec `{spec}`: bad evaluation index `{}`", parts[1]))?;
            let seed = match parts.get(2) {
                Some(s) => Some(
                    s.parse::<u64>()
                        .map_err(|_| format!("fault spec `{spec}`: bad seed `{s}`"))?,
                ),
                None => None,
            };
            plan.specs.push(FaultSpec { kind, eval, seed });
        }
        Ok(plan)
    }
}

/// The explicitly installed plan, if any. Overrides the environment.
static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

/// The `CALIB_FAULTS` environment plan, parsed once per process.
static ENV_PLAN: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();

/// Install `plan` process-globally; evaluators constructed afterwards
/// snapshot it. Replaces any previously installed plan and overrides
/// `CALIB_FAULTS`. Intended for chaos tests, which must serialize on a
/// shared lock when running in one process.
pub fn install(plan: FaultPlan) {
    *PLAN.write().unwrap() = Some(Arc::new(plan));
}

/// Remove any programmatically installed plan (the `CALIB_FAULTS`
/// environment plan, if set, becomes visible again).
pub fn uninstall() {
    *PLAN.write().unwrap() = None;
}

/// The currently active plan: the installed one, else the `CALIB_FAULTS`
/// environment plan, else `None`. An unparsable environment value is
/// diagnosed once and ignored.
pub fn current() -> Option<Arc<FaultPlan>> {
    if let Some(plan) = PLAN.read().unwrap().clone() {
        return Some(plan);
    }
    ENV_PLAN
        .get_or_init(|| {
            let text = std::env::var("CALIB_FAULTS").ok()?;
            match FaultPlan::parse(&text) {
                Ok(plan) if !plan.is_empty() => Some(Arc::new(plan)),
                Ok(_) => None,
                Err(e) => {
                    obs::diag!("ignoring CALIB_FAULTS: {e}");
                    None
                }
            }
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_passes_values_through() {
        assert_eq!(guard(|| 41 + 1), Ok(42));
    }

    #[test]
    fn guard_catches_str_and_string_panics() {
        assert_eq!(guard(|| panic!("boom")), Err::<(), _>("boom".to_string()));
        let msg = format!("loss exploded at {}", 3);
        assert_eq!(guard(|| panic!("{msg}")), Err::<(), _>(msg));
    }

    #[test]
    fn guard_nests() {
        let outer = guard(|| {
            let inner = guard(|| -> i32 { panic!("inner") });
            assert_eq!(inner, Err("inner".to_string()));
            7
        });
        assert_eq!(outer, Ok(7));
    }

    #[test]
    fn plan_parses_and_matches() {
        let plan = FaultPlan::parse("panic@3; nan@0@42").unwrap();
        assert_eq!(plan.fault_at(0, 3), Some(FaultKind::Panic));
        assert_eq!(plan.fault_at(99, 3), Some(FaultKind::Panic));
        assert_eq!(plan.fault_at(42, 0), Some(FaultKind::Nan));
        assert_eq!(plan.fault_at(41, 0), None);
        assert_eq!(plan.fault_at(42, 1), None);
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn plan_rejects_malformed_specs() {
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("explode@3").is_err());
        assert!(FaultPlan::parse("panic@x").is_err());
        assert!(FaultPlan::parse("panic@1@y").is_err());
        assert!(FaultPlan::parse("panic@1@2@3").is_err());
    }

    #[test]
    fn failure_messages_are_readable() {
        let p = EvalFailure::Panic {
            message: "index out of bounds".into(),
        };
        assert!(p.to_string().contains("index out of bounds"));
        let n = EvalFailure::NonFinite { loss: f64::NAN };
        assert!(n.to_string().contains("non-finite"));
        assert_eq!(EvalFailure::BudgetExhausted.to_string(), "budget exhausted");
    }
}
