//! Strongly-typed identifiers.

use std::fmt;

use iobt_ckpt::{Dec, DecodeError, Enc, Wire};

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        // lint: allow(docs) — docs are injected per expansion through the macro's $(#[$doc])* metavariable
        pub struct $name(u64);

        impl $name {
            /// Creates an identifier from its raw numeric value.
            ///
            /// ```
            /// # use iobt_types::NodeId;
            /// let id = NodeId::new(42);
            /// assert_eq!(id.raw(), 42);
            /// ```
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw numeric value.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self::new(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.raw()
            }
        }
    };
}

define_id!(
    /// Identifier of a physical or human node participating in an IoBT.
    NodeId,
    "n"
);
/// The raw value, as a `u64`.
impl Wire for NodeId {
    fn put(&self, e: &mut Enc) {
        let Self(raw) = self;
        e.u64(*raw);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(NodeId(d.u64()?))
    }
}

define_id!(
    /// Identifier of a mission expressed by a commander.
    MissionId,
    "m"
);
define_id!(
    /// Identifier of a task spawned while executing a mission.
    TaskId,
    "t"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert_eq!(MissionId::new(9).to_string(), "m9");
        assert_eq!(TaskId::new(0).to_string(), "t0");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(7), NodeId::from(7));
        assert_eq!(u64::from(NodeId::new(7)), 7);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId::new(0));
    }
}
