//! Handshake-channel annotations.
//!
//! Section 2 of the paper: asynchronous modules communicate through
//! channels implementing a handshake protocol over some data encoding.
//! A [`Channel`] groups the nets of one such port so that simulation
//! drivers/monitors and CAD reports can reason about it as a unit.

use crate::ids::NetId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Handshake protocol family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// 4-phase (return-to-zero): request and acknowledge rise and fall once
    /// per transferred token. Both example adders in the paper use this.
    FourPhase,
    /// 2-phase (transition signalling / NRZ): every transition on request
    /// or acknowledge is an event.
    TwoPhase,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Protocol::FourPhase => "4-phase",
            Protocol::TwoPhase => "2-phase",
        })
    }
}

/// Data encoding of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Encoding {
    /// Bundled data: `width` single-rail data wires plus an explicit
    /// request wire whose timing must cover the data (micropipeline style).
    Bundled {
        /// Number of data bits.
        width: usize,
    },
    /// Dual-rail (1-of-2 per bit): each bit has a *true* and a *false*
    /// rail; data validity is encoded in the rails themselves (QDI style).
    DualRail {
        /// Number of encoded bits.
        width: usize,
    },
    /// Generalised 1-of-N: `digits` digits, each one-hot over `n` rails.
    OneOfN {
        /// Rails per digit.
        n: usize,
        /// Number of digits.
        digits: usize,
    },
}

impl Encoding {
    /// Total number of data rails the encoding occupies.
    #[must_use]
    pub fn rail_count(&self) -> usize {
        match *self {
            Encoding::Bundled { width } => width,
            Encoding::DualRail { width } => 2 * width,
            Encoding::OneOfN { n, digits } => n * digits,
        }
    }

    /// Whether the encoding carries validity in the data rails themselves
    /// (delay-insensitive codes) rather than via a separate request wire.
    #[must_use]
    pub fn is_delay_insensitive(&self) -> bool {
        !matches!(self, Encoding::Bundled { .. })
    }
}

impl fmt::Display for Encoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Encoding::Bundled { width } => write!(f, "bundled[{width}]"),
            Encoding::DualRail { width } => write!(f, "dual-rail[{width}]"),
            Encoding::OneOfN { n, digits } => write!(f, "1-of-{n}[{digits}]"),
        }
    }
}

/// Direction of a channel relative to the circuit under description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelDir {
    /// The circuit receives tokens on this channel.
    Input,
    /// The circuit emits tokens on this channel.
    Output,
}

/// Error returned when a [`Channel`]'s net list does not match its encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelShapeError(String);

impl fmt::Display for ChannelShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ChannelShapeError {}

/// A handshake port: protocol + encoding + the participating nets.
///
/// Rail layout conventions (documented once, relied on everywhere):
///
/// * `Bundled`: `data[i]` is bit *i*; `req` is `Some`.
/// * `DualRail`: `data[2*i]` is the **true** rail of bit *i*, `data[2*i+1]`
///   the **false** rail; `req` is `None` (validity lives in the rails).
/// * `OneOfN`: `data[digit*n + v]` is the rail asserting that digit `digit`
///   holds value `v`; `req` is `None`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Channel {
    name: String,
    dir: ChannelDir,
    protocol: Protocol,
    encoding: Encoding,
    req: Option<NetId>,
    ack: NetId,
    data: Vec<NetId>,
}

impl Channel {
    /// Creates a channel annotation.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        dir: ChannelDir,
        protocol: Protocol,
        encoding: Encoding,
        req: Option<NetId>,
        ack: NetId,
        data: Vec<NetId>,
    ) -> Self {
        Self {
            name: name.into(),
            dir,
            protocol,
            encoding,
            req,
            ack,
            data,
        }
    }

    /// Channel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Direction relative to the circuit.
    #[must_use]
    pub fn dir(&self) -> ChannelDir {
        self.dir
    }

    /// Handshake protocol.
    #[must_use]
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Data encoding.
    #[must_use]
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Request net (bundled-data channels only).
    #[must_use]
    pub fn req(&self) -> Option<NetId> {
        self.req
    }

    /// Acknowledge net.
    #[must_use]
    pub fn ack(&self) -> NetId {
        self.ack
    }

    /// Data rails, laid out per the type-level documentation.
    #[must_use]
    pub fn data(&self) -> &[NetId] {
        &self.data
    }

    /// Checks internal consistency: rail count matches encoding, request
    /// presence matches encoding, and all net ids are below `net_count`.
    ///
    /// # Errors
    ///
    /// Returns a [`ChannelShapeError`] describing the first violation.
    pub fn check_shape(&self, net_count: usize) -> Result<(), ChannelShapeError> {
        let want = self.encoding.rail_count();
        if self.data.len() != want {
            return Err(ChannelShapeError(format!(
                "encoding {} needs {want} rails, channel has {}",
                self.encoding,
                self.data.len()
            )));
        }
        match (self.encoding, self.req) {
            (Encoding::Bundled { .. }, None) => {
                return Err(ChannelShapeError(
                    "bundled-data channel requires a request net".into(),
                ));
            }
            (Encoding::DualRail { .. } | Encoding::OneOfN { .. }, Some(_)) => {
                return Err(ChannelShapeError(
                    "delay-insensitive encoding must not carry a request net".into(),
                ));
            }
            _ => {}
        }
        let mut all = self.data.clone();
        all.push(self.ack);
        if let Some(r) = self.req {
            all.push(r);
        }
        for id in all {
            if id.index() >= net_count {
                return Err(ChannelShapeError(format!("net {id} out of range")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<NetId> {
        (0..n).map(NetId::new).collect()
    }

    #[test]
    fn encoding_rail_counts() {
        assert_eq!(Encoding::Bundled { width: 8 }.rail_count(), 8);
        assert_eq!(Encoding::DualRail { width: 8 }.rail_count(), 16);
        assert_eq!(Encoding::OneOfN { n: 4, digits: 3 }.rail_count(), 12);
    }

    #[test]
    fn delay_insensitivity_flag() {
        assert!(!Encoding::Bundled { width: 1 }.is_delay_insensitive());
        assert!(Encoding::DualRail { width: 1 }.is_delay_insensitive());
        assert!(Encoding::OneOfN { n: 4, digits: 1 }.is_delay_insensitive());
    }

    #[test]
    fn dual_rail_accessors() {
        let nets = ids(5);
        let ch = Channel::new(
            "x",
            ChannelDir::Input,
            Protocol::FourPhase,
            Encoding::DualRail { width: 2 },
            None,
            nets[4],
            nets[..4].to_vec(),
        );
        assert!(ch.check_shape(5).is_ok());
    }

    #[test]
    fn bundled_needs_req() {
        let nets = ids(3);
        let ch = Channel::new(
            "x",
            ChannelDir::Input,
            Protocol::FourPhase,
            Encoding::Bundled { width: 2 },
            None,
            nets[2],
            nets[..2].to_vec(),
        );
        assert!(ch.check_shape(3).is_err());
    }

    #[test]
    fn dual_rail_must_not_have_req() {
        let nets = ids(4);
        let ch = Channel::new(
            "x",
            ChannelDir::Output,
            Protocol::FourPhase,
            Encoding::DualRail { width: 1 },
            Some(nets[3]),
            nets[2],
            nets[..2].to_vec(),
        );
        assert!(ch.check_shape(4).is_err());
    }

    #[test]
    fn rail_count_mismatch_detected() {
        let nets = ids(4);
        let ch = Channel::new(
            "x",
            ChannelDir::Output,
            Protocol::FourPhase,
            Encoding::DualRail { width: 2 },
            None,
            nets[3],
            nets[..3].to_vec(),
        );
        let err = ch.check_shape(4).unwrap_err();
        assert!(err.to_string().contains("needs 4 rails"));
    }

    #[test]
    fn out_of_range_net_detected() {
        let nets = ids(3);
        let ch = Channel::new(
            "x",
            ChannelDir::Input,
            Protocol::TwoPhase,
            Encoding::DualRail { width: 1 },
            None,
            NetId::new(9),
            nets[..2].to_vec(),
        );
        assert!(ch.check_shape(3).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Protocol::FourPhase.to_string(), "4-phase");
        assert_eq!(Encoding::DualRail { width: 3 }.to_string(), "dual-rail[3]");
        assert_eq!(
            Encoding::OneOfN { n: 4, digits: 2 }.to_string(),
            "1-of-4[2]"
        );
    }
}
