//! Fidelity tiers: how much of the detailed event loop a run executes.

use serde::{Deserialize, Serialize};

/// Simulation fidelity tier of a run.
///
/// - [`Fidelity::Detailed`]: every slot goes through the full event loop.
///   The reference tier; byte-identical to the pre-fidelity engine.
/// - [`Fidelity::Sampled`]: SMARTS-style systematic sampling — per
///   sampling period, a warmup prefix re-primes caches/prefetchers/device
///   queues, a measurement window runs detailed, and the rest of the
///   period is fast-forwarded by extrapolating the measured window's
///   IPC and memory-traffic rates (see [`SamplingParams`]).
/// - [`Fidelity::Fast`]: no event loop at all — an analytical interval
///   model (melody-spa's `interval` module) synthesises the counters.
///
/// Fidelity is part of result identity: campaign/cache fingerprints hash
/// it (via `RunOptions`), so results from different tiers never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Full event-loop simulation (the reference tier).
    #[default]
    Detailed,
    /// Systematic sampling with extrapolated fast-forward.
    Sampled,
    /// Pure analytical interval model.
    Fast,
}

impl Fidelity {
    /// Every tier, in the order error messages list them.
    pub const ALL: [Fidelity; 3] = [Fidelity::Detailed, Fidelity::Sampled, Fidelity::Fast];

    /// Parses a CLI keyword (see [`Fidelity::label`]).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|f| f.label() == s)
    }

    /// Resolves an optional tier name: detailed when absent, an error
    /// listing the tiers when unknown.
    pub fn resolve(name: Option<&str>) -> Result<Self, String> {
        name.map_or(Ok(Fidelity::Detailed), |n| {
            let tiers = Self::ALL.map(Self::label).join("|");
            Self::parse(n).ok_or_else(|| format!("unknown fidelity `{n}` ({tiers})"))
        })
    }

    /// The CLI keyword for this tier.
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::Detailed => "detailed",
            Fidelity::Sampled => "sampled",
            Fidelity::Fast => "fast",
        }
    }
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// Manual impls: serializes as the lowercase CLI keyword (the vendored
// serde derive has no `rename_all`).
impl Serialize for Fidelity {
    fn serialize(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

impl Deserialize for Fidelity {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("fidelity must be a string"))?;
        Fidelity::parse(s)
            .ok_or_else(|| serde::Error::custom(format!("unknown fidelity tier `{s}`")))
    }
}

/// Systematic-sampling schedule for [`Fidelity::Sampled`], in slots
/// (stream elements), the engine's natural unit of progress.
///
/// Each period of `period_slots` runs as `warmup_slots` of detailed but
/// unmeasured execution (re-priming caches, prefetcher state and device
/// queues after a skip), then `window_slots` of detailed *measured*
/// execution, then `period_slots − warmup_slots − window_slots` of
/// fast-forward extrapolated from the window just measured. The defaults
/// give a 15.6 % detail fraction, which keeps slowdown error well inside
/// the ±5 % differential bound (see EXPERIMENTS.md, "Fidelity tiers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingParams {
    /// Detailed-but-unmeasured slots at the start of each period.
    pub warmup_slots: u64,
    /// Detailed measured slots per period (the extrapolation source).
    pub window_slots: u64,
    /// Total slots per period (warmup + window + fast-forward).
    pub period_slots: u64,
}

impl Default for SamplingParams {
    fn default() -> Self {
        Self {
            warmup_slots: 512,
            window_slots: 2_048,
            period_slots: 16_384,
        }
    }
}

impl SamplingParams {
    /// Validates the schedule: a non-empty measurement window and a
    /// period long enough to hold warmup + window.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_slots == 0 {
            return Err("sampling window must be at least 1 slot".into());
        }
        if self.period_slots < self.warmup_slots + self.window_slots {
            return Err(format!(
                "sampling period ({}) must cover warmup ({}) + window ({})",
                self.period_slots, self.warmup_slots, self.window_slots
            ));
        }
        Ok(())
    }

    /// Slots fast-forwarded per period.
    pub fn skip_slots(&self) -> u64 {
        self.period_slots - self.warmup_slots - self.window_slots
    }

    /// Fraction of slots executed in detail (warmup + window).
    pub fn detail_fraction(&self) -> f64 {
        (self.warmup_slots + self.window_slots) as f64 / self.period_slots.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_labels() {
        for f in [Fidelity::Detailed, Fidelity::Sampled, Fidelity::Fast] {
            assert_eq!(Fidelity::parse(f.label()), Some(f));
        }
        assert_eq!(Fidelity::parse("turbo"), None);
    }

    #[test]
    fn serde_uses_lowercase() {
        assert_eq!(
            serde_json::to_string(&Fidelity::Sampled).expect("serialize"),
            "\"sampled\""
        );
        let back: Fidelity = serde_json::from_str("\"fast\"").expect("deserialize");
        assert_eq!(back, Fidelity::Fast);
    }

    #[test]
    fn default_schedule_is_valid() {
        let p = SamplingParams::default();
        p.validate().expect("default valid");
        assert_eq!(p.skip_slots(), 16_384 - 512 - 2_048);
        assert!((p.detail_fraction() - 0.15625).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_degenerate_schedules() {
        let no_window = SamplingParams {
            window_slots: 0,
            ..Default::default()
        };
        assert!(no_window.validate().is_err());
        let short_period = SamplingParams {
            warmup_slots: 100,
            window_slots: 100,
            period_slots: 150,
        };
        assert!(short_period.validate().is_err());
    }
}
