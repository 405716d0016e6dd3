//! Stall diagnosis: when a token run deadlocks or exhausts its budget,
//! *name the failure* instead of reporting a bare error.
//!
//! Every channel's producer or consumer (see [`crate::agents`]) can
//! describe its pending handshake as a [`StallDiagnosis`]: which channel,
//! which protocol phase it is waiting in, how many tokens made it
//! through, and the committed values of the frontier nets (the
//! rails/req/ack the next phase is blocked on). The driver loop collects
//! these on every failing exit, so each simulator user — `token_run`, the
//! verify path, `di_stress`, fault campaigns — gets a diagnosis for
//! free.
//!
//! The watchdog itself is the engine's quiescence test: a stall *is*
//! quiescence with tokens outstanding, so the diagnosis is taken exactly
//! at the frozen frontier, not from a sampled guess.

use crate::engine::Simulator;
use msaf_netlist::NetId;

/// One observed net at a stalled handshake frontier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierNet {
    /// Net name from the netlist.
    pub name: String,
    /// Committed value at the moment of the stall.
    pub value: bool,
}

/// A stalled agent's self-description, taken at quiescence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallDiagnosis {
    /// The channel the agent serves.
    pub channel: String,
    /// `"producer"` or `"consumer"`.
    pub role: &'static str,
    /// The protocol phase the agent is blocked in, human-readable
    /// (e.g. `"waiting for ack to rise"`).
    pub waiting_for: &'static str,
    /// Tokens whose handshake this agent has initiated or observed.
    pub tokens_done: usize,
    /// Total tokens the agent was asked to move (`None` for consumers,
    /// which accept however many arrive).
    pub tokens_expected: Option<usize>,
    /// The nets the blocked phase is waiting on, with committed values.
    pub frontier: Vec<FrontierNet>,
}

impl StallDiagnosis {
    /// Reads `nets` out of the simulator as named frontier observations.
    #[must_use]
    pub fn frontier_of(sim: &Simulator<'_>, nets: &[NetId]) -> Vec<FrontierNet> {
        nets.iter()
            .map(|&n| FrontierNet {
                name: sim.netlist().net(n).name().to_string(),
                value: sim.value(n),
            })
            .collect()
    }
}

impl std::fmt::Display for StallDiagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel '{}' ({})", self.channel, self.role)?;
        match self.tokens_expected {
            Some(total) => write!(f, ": {}/{} tokens through", self.tokens_done, total)?,
            None => write!(f, ": {} tokens through", self.tokens_done)?,
        }
        write!(f, ", {}; frontier:", self.waiting_for)?;
        for net in &self.frontier {
            write!(f, " {}={}", net.name, u8::from(net.value))?;
        }
        Ok(())
    }
}

/// Renders a stall list the way [`crate::agents::TokenRunError`] does.
pub(crate) fn render_stalls(
    f: &mut std::fmt::Formatter<'_>,
    stalls: &[StallDiagnosis],
) -> std::fmt::Result {
    for (i, s) in stalls.iter().enumerate() {
        if i > 0 {
            write!(f, "; ")?;
        }
        write!(f, "{s}")?;
    }
    Ok(())
}
