//! The one chain driver behind every pseudo-state estimator.
//!
//! The paper's flow estimator (Eq. 5) is one protocol: burn in, keep
//! every δ′-th state, read an indicator off each retained state.
//! [`drive`] / [`try_drive`] run it over a [`PseudoStateSampler`] and
//! hand each retained state to the caller's closure. The driver owns
//! burn-in and thinning, the step and wall-clock budget checks
//! ([`Budget`]), the checkpoint cadence, the phase spans, and counter
//! flushing: the sampler flushes once per `run` / `try_run` call, and
//! the driver makes one call per burn-in block and per thinning
//! interval.

use crate::budget::{DegradationReason, RunBudget};
use crate::estimator::McmcConfig;
use crate::sampler::PseudoStateSampler;
use flow_core::FlowResult;
use rand::Rng;
use std::convert::Infallible;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Span names for the burn-in and sampling phases.
type Spans = Option<(&'static str, &'static str)>;
pub(crate) const MCMC_SPANS: Spans = Some(("mcmc.burn_in", "mcmc.sampling"));
pub(crate) const TIMED_SPANS: Spans = Some(("timed.burn_in", "timed.sampling"));

/// How one call drives a chain.
pub(crate) struct Protocol<'b> {
    /// Burn-in steps; `None` for a warm or resumed chain, which skips
    /// the burn-in phase (and its span) entirely.
    pub burn_in: Option<u64>,
    /// Burn-in runs in calls of at most this many steps, with a budget
    /// check before each.
    pub burn_block: u64,
    /// Steps between retained samples (the paper's δ′).
    pub thin: u64,
    /// Indices of the retained samples this call collects.
    pub samples: Range<usize>,
    /// Flags every `n`-th retained sample, except the last, as a
    /// checkpoint boundary.
    pub checkpoint_every: Option<usize>,
    /// Phase spans to open, if any.
    pub spans: Spans,
    /// Step and wall-clock caps, if any.
    pub budget: Option<&'b Budget>,
}

impl Protocol<'_> {
    /// `config`'s protocol for a fresh chain over `m` edges: the whole
    /// burn-in in one call, then `config.samples` thinned samples.
    pub(crate) fn cold(config: &McmcConfig, m: usize) -> Self {
        Protocol {
            burn_in: Some(config.burn_in_steps(m) as u64),
            burn_block: u64::MAX,
            thin: config.thin_steps(m) as u64,
            samples: 0..config.samples,
            checkpoint_every: None,
            spans: None,
            budget: None,
        }
    }
}

/// Step and wall-clock caps on one chain.
pub(crate) struct Budget {
    max_steps: Option<u64>,
    wall: Option<(Instant, Duration)>,
    /// Steps that must remain before any call. A multi-chain budget
    /// stops a chain once less than one thinning interval is left; a
    /// serving call stops only when the next call would overrun.
    reserve: u64,
    /// The multi-chain run's chain index, which also stamps exhaustion
    /// events with the chain's step count; `None` for a serving call,
    /// whose reasons name chain 0.
    chain: Option<usize>,
}

impl Budget {
    /// One chain's share of a multi-chain [`RunBudget`].
    pub(crate) fn per_chain(budget: &RunBudget, chain: usize, thin: u64) -> Self {
        Budget {
            reserve: thin,
            chain: Some(chain),
            ..Self::per_call(budget.max_steps, budget.max_wall)
        }
    }

    /// The caps of one serving call.
    pub(crate) fn per_call(max_steps: Option<u64>, deadline: Option<Duration>) -> Self {
        // Wall deadlines bound the loop; they never feed the trajectory.
        #[allow(clippy::disallowed_methods)]
        let wall = deadline.map(|limit| (Instant::now(), limit)); // flow-analyze: allow(L2: deadline budget accounting only)
        Budget {
            max_steps,
            wall,
            reserve: 0,
            chain: None,
        }
    }

    /// Whether a call of `upcoming` more steps fits after `used`; if
    /// not, records why as an event and returns the reason.
    fn check(
        &self,
        used: u64,
        upcoming: u64,
        collected: usize,
        requested: usize,
    ) -> Option<DegradationReason> {
        let chain = self.chain.unwrap_or(0);
        let reason = if self
            .max_steps
            .is_some_and(|max| used + upcoming.max(self.reserve) > max)
        {
            DegradationReason::StepBudgetExhausted {
                chain,
                samples_collected: collected,
                samples_requested: requested,
            }
        } else if self.wall.is_some_and(|(t0, limit)| t0.elapsed() >= limit) {
            DegradationReason::WallClockExhausted {
                chain,
                samples_collected: collected,
                samples_requested: requested,
            }
        } else {
            return None;
        };
        flow_obs::event(|| match self.chain {
            Some(_) => reason.to_obs_event().step(used),
            None => reason.to_obs_event(),
        });
        Some(reason)
    }
}

/// Where a retained sample sits in the run.
pub(crate) struct Retained {
    /// The sample's index.
    pub index: usize,
    /// Whether a checkpoint falls right after this sample.
    pub checkpoint: bool,
}

/// What one driven call did.
pub(crate) struct Driven {
    /// Retained samples collected.
    pub samples: usize,
    /// Chain steps taken.
    pub steps: u64,
    /// Why the budget stopped the chain early, if it did.
    pub cut: Option<DegradationReason>,
}

/// Runs `protocol` with the infallible `run`, which panics on a
/// numerical fault.
pub(crate) fn drive<'a, R: Rng + ?Sized>(
    sampler: &mut PseudoStateSampler<'a>,
    rng: &mut R,
    protocol: &Protocol<'_>,
    retain: impl FnMut(&mut PseudoStateSampler<'a>, &mut R, Retained),
) -> Driven {
    let advance = |s: &mut PseudoStateSampler<'a>, n, rng: &mut R| {
        s.run(n, rng);
        Ok::<(), Infallible>(())
    };
    drive_with(sampler, rng, protocol, advance, retain, |_, _| ())
        .map_or_else(|never| match never {}, |(driven, ())| driven)
}

/// Runs `protocol` with the fallible `try_run`, propagating its
/// errors, then `stop` where the chain stopped: inside the burn-in span
/// when the budget cut burn-in short, after the sampling span otherwise.
pub(crate) fn try_drive<'a, R: Rng + ?Sized, T>(
    sampler: &mut PseudoStateSampler<'a>,
    rng: &mut R,
    protocol: &Protocol<'_>,
    retain: impl FnMut(&mut PseudoStateSampler<'a>, &mut R, Retained),
    stop: impl FnOnce(&mut PseudoStateSampler<'a>, &mut R) -> T,
) -> FlowResult<(Driven, T)> {
    let advance = |s: &mut PseudoStateSampler<'a>, n, rng: &mut R| s.try_run(n, rng).map(drop);
    drive_with(sampler, rng, protocol, advance, retain, stop)
}

fn drive_with<'a, R: Rng + ?Sized, E, T>(
    sampler: &mut PseudoStateSampler<'a>,
    rng: &mut R,
    protocol: &Protocol<'_>,
    mut advance: impl FnMut(&mut PseudoStateSampler<'a>, usize, &mut R) -> Result<(), E>,
    mut retain: impl FnMut(&mut PseudoStateSampler<'a>, &mut R, Retained),
    stop: impl FnOnce(&mut PseudoStateSampler<'a>, &mut R) -> T,
) -> Result<(Driven, T), E> {
    let p = protocol;
    let entry = sampler.steps();
    let check = |steps: u64, upcoming: u64, collected: usize| {
        p.budget
            .and_then(|b| b.check(steps - entry, upcoming, collected, p.samples.end))
    };
    let mut driven = Driven {
        samples: 0,
        steps: 0,
        cut: None,
    };
    if let Some(burn_in) = p.burn_in {
        let _burn = p.spans.map(|(burn, _)| flow_obs::span(burn));
        let mut burned = 0;
        while burned < burn_in {
            let block = p.burn_block.min(burn_in - burned);
            if let Some(reason) = check(sampler.steps(), block, 0) {
                driven.cut = Some(reason);
                driven.steps = sampler.steps() - entry;
                let stopped = stop(sampler, rng);
                return Ok((driven, stopped));
            }
            advance(sampler, block as usize, rng)?;
            burned += block;
        }
    }
    {
        let _sampling = p.spans.map(|(_, sampling)| flow_obs::span(sampling));
        for index in p.samples.clone() {
            if let Some(reason) = check(sampler.steps(), p.thin, driven.samples) {
                driven.cut = Some(reason);
                break;
            }
            advance(sampler, p.thin as usize, rng)?;
            driven.samples += 1;
            let checkpoint = p
                .checkpoint_every
                .is_some_and(|every| (index + 1) % every == 0 && index + 1 < p.samples.end);
            retain(sampler, rng, Retained { index, checkpoint });
        }
    }
    driven.steps = sampler.steps() - entry;
    let stopped = stop(sampler, rng);
    Ok((driven, stopped))
}
